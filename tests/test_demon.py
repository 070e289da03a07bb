import math

import numpy as np
import pytest

from erasure_lab.demon import (
    CSV_HEADER,
    EntropyLedger,
    LedgerStep,
    QecScenario,
    classical_cycle,
    equal_overlap_states,
    imperfect_erasure_entropy,
    qec_cycle,
    recovery_fidelity_vs_overlap,
    three_qubit_bit_flip_scenario,
    uhlmann_fidelity,
)
from erasure_lab.errors import InputError, UnsupportedScenarioError
from erasure_lab.linalg import DensityOperator, TensorSpace

LN2 = math.log(2)
RNG = np.random.default_rng(31)


def h_bin(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def entropy_of(matrix):
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[lam > 1e-14]
    return float(-np.sum(lam * np.log(lam)))


def brute_force_qec(scenario):
    """Density-matrix simulation of the perfect-observation cycle using only
    numpy primitives; the oracle for ledger entries and fidelity."""
    v = np.column_stack(scenario.codewords)
    rho_c = v @ scenario.input_state.matrix @ v.conj().T
    ops = [e for e, _ in scenario.errors]
    weights = [w for _, w in scenario.errors]
    n = len(ops)
    d = rho_c.shape[0]

    # Stinespring dilation of the error channel: blocks indexed by the
    # environment record, then reordered to (system x env).
    rho_se = np.zeros((d * n, d * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            block = math.sqrt(weights[i] * weights[j]) * (ops[i] @ rho_c @ ops[j].conj().T)
            rho_se[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
    rho_se = rho_se.reshape(n, d, n, d).transpose(1, 0, 3, 2).reshape(d * n, d * n)
    total_entropy = entropy_of(rho_se)

    rho_f = np.einsum("ikjk->ij", rho_se.reshape(d, n, d, n))
    branches = [op @ rho_c @ op.conj().T for op in ops]
    m_dim = scenario.apparatus_dim
    rho_sa = sum(
        w * np.kron(b, np.outer(m, m.conj()))
        for w, b, m in zip(weights, branches, scenario.apparatus_states)
    )
    rho_a = sum(w * np.outer(m, m.conj()) for w, m in zip(weights, scenario.apparatus_states))
    info = entropy_of(rho_f) + entropy_of(rho_a) - entropy_of(rho_sa)

    overlaps = np.column_stack(scenario.apparatus_states)
    probs = np.abs(overlaps.conj().T @ overlaps) ** 2
    rho_rec = sum(
        weights[i] * probs[j, i] * (ops[j].conj().T @ branches[i] @ ops[j])
        for i in range(n) for j in range(n)
    )
    rho_rec /= np.trace(rho_rec).real
    lam, vecs = np.linalg.eigh(rho_c)
    root = (vecs * np.sqrt(np.clip(lam, 0, None))) @ vecs.conj().T
    lam2 = np.linalg.eigvalsh(root @ rho_rec @ root)
    lam2 = np.where(lam2 < 1e-14 * lam2.max(), 0.0, lam2)
    fid = float(np.sum(np.sqrt(lam2)) ** 2)
    return {
        "total_entropy": total_entropy,
        "s_initial": entropy_of(rho_c),
        "s_error": entropy_of(rho_f),
        "info_gain": info,
        "gc_entropy": entropy_of(rho_a),
        "fidelity": fid,
    }


class TestClassicalCycle:
    def test_half_probability_all_ln2(self):
        ledger = classical_cycle(0.5)
        magnitudes = {
            "error": ledger.steps[1].ds_system,
            "observation-apparatus": ledger.steps[2].ds_apparatus,
            "observation-info": ledger.steps[2].info_gain,
            "correction": -ledger.steps[3].ds_system,
            "reset-apparatus": -ledger.steps[4].ds_apparatus,
            "reset-garbage": ledger.steps[4].ds_garbage,
            "reset-work": -ledger.steps[4].df,
        }
        for name, value in magnitudes.items():
            assert abs(value - LN2) < 1e-12, name

    def test_cycle_closure(self):
        for p in (0.0, 0.25, 0.5, 0.8, 1.0):
            ledger = classical_cycle(p)
            assert not ledger.check_cycle()
            totals = ledger.totals()
            assert totals["dS_garbage"] == pytest.approx(totals["info_gain"], abs=1e-12)

    def test_no_error_probability_is_free(self):
        ledger = classical_cycle(0.0)
        for step in ledger.steps:
            assert step.ds_system == step.ds_apparatus == step.ds_garbage == 0.0
            assert step.df == step.info_gain == 0.0

    def test_quarter_probability(self):
        ledger = classical_cycle(0.25)
        totals = ledger.totals()
        assert totals["info_gain"] == pytest.approx(h_bin(0.25), abs=1e-12)
        assert totals["dS_garbage"] == pytest.approx(h_bin(0.25), abs=1e-12)

    def test_temperature_scales_work(self):
        ledger = classical_cycle(0.5, temperature=2.5)
        assert ledger.steps[4].df == pytest.approx(-2.5 * LN2, abs=1e-12)

    def test_invalid_probability(self):
        with pytest.raises(InputError):
            classical_cycle(1.2)

    def test_csv_shape(self):
        text = classical_cycle(0.5).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6


class TestLedgerChecks:
    def test_detects_broken_closure(self):
        ledger = EntropyLedger((LedgerStep("a", ds_system=0.5),))
        assert any("system" in p for p in ledger.check_cycle())

    def test_detects_landauer_violation(self):
        ledger = EntropyLedger((
            LedgerStep("a", info_gain=1.0),
            LedgerStep("b", ds_garbage=0.5),
        ))
        assert any("garbage" in p for p in ledger.check_cycle())

    def test_system_closure_optional(self):
        ledger = EntropyLedger((LedgerStep("a", ds_system=0.5),))
        assert not ledger.check_cycle(require_system_closure=False)


class TestEqualOverlapStates:
    @pytest.mark.parametrize("n,a", [(2, 0.0), (2, 0.5), (2, 1.0), (4, 0.0), (3, 0.3)])
    def test_gram_matrix(self, n, a):
        states = equal_overlap_states(n, a)
        for i in range(n):
            assert abs(np.linalg.norm(states[i]) - 1.0) < 1e-9
            for j in range(i + 1, n):
                assert abs(np.vdot(states[i], states[j]) - a) < 1e-9

    def test_invalid_overlap(self):
        with pytest.raises(InputError):
            equal_overlap_states(2, 1.5)


class TestQecCycle:
    def test_bit_flip_code_saturates_landauer(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        result = qec_cycle(three_qubit_bit_flip_scenario(ket))
        assert result.recovery_fidelity >= 1.0 - 1e-9
        assert abs(result.gc_entropy - math.log(4)) < 1e-9
        assert abs(result.info_gain - math.log(4)) < 1e-9
        assert not result.ledger.check_cycle()
        assert result.pre_trace_entropy is not None
        assert result.pre_trace_entropy < 1e-9

    def test_bit_flip_code_matches_brute_force(self):
        ket = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        ket /= np.linalg.norm(ket)
        scenario = three_qubit_bit_flip_scenario(ket, weights=(0.4, 0.3, 0.2, 0.1))
        result = qec_cycle(scenario)
        oracle = brute_force_qec(scenario)
        assert result.recovery_fidelity == pytest.approx(oracle["fidelity"], abs=1e-9)
        assert result.gc_entropy == pytest.approx(oracle["gc_entropy"], abs=1e-9)
        assert result.info_gain == pytest.approx(oracle["info_gain"], abs=1e-9)
        assert result.ledger.steps[0].ds_system == pytest.approx(
            oracle["s_error"] - oracle["s_initial"], abs=1e-9)
        assert result.pre_trace_entropy == pytest.approx(oracle["total_entropy"], abs=1e-9)

    def test_mixed_input_ledger(self):
        # equal mixture of the two logical basis states
        mixed = DensityOperator.from_matrix(np.eye(2) / 2, TensorSpace.single("L", 2))
        scenario = three_qubit_bit_flip_scenario(mixed)
        result = qec_cycle(scenario)
        oracle = brute_force_qec(scenario)
        assert result.recovery_fidelity >= 1.0 - 1e-9
        # the error takes S from ln2 to ln8; the apparatus record carries ln4
        assert result.ledger.steps[0].ds_system == pytest.approx(math.log(4), abs=1e-9)
        assert result.ledger.steps[4].ds_apparatus == pytest.approx(-math.log(4), abs=1e-9)
        assert result.ledger.steps[4].ds_garbage == pytest.approx(math.log(4), abs=1e-9)
        assert result.gc_entropy == pytest.approx(result.info_gain, abs=1e-9)
        assert result.info_gain == pytest.approx(oracle["info_gain"], abs=1e-9)
        assert not result.ledger.check_cycle()
        # mixed input: the dilated total state is not pure
        assert result.pre_trace_entropy == pytest.approx(oracle["total_entropy"], abs=1e-9)

    def test_no_error_scenario(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        scenario = three_qubit_bit_flip_scenario(ket, weights=(1.0,))
        result = qec_cycle(scenario)
        assert result.recovery_fidelity >= 1.0 - 1e-9
        for step in result.ledger.steps:
            assert abs(step.ds_system) < 1e-9
            assert abs(step.ds_apparatus) < 1e-9
            assert abs(step.ds_garbage) < 1e-9

    def test_orthogonality_check(self):
        ket = np.array([1.0, 0.0])
        assert three_qubit_bit_flip_scenario(ket).errors_orthogonal()
        c0 = np.zeros(4, dtype=complex)
        c0[0] = 1.0
        c1 = np.zeros(4, dtype=complex)
        c1[1] = 1.0
        duplicated = QecScenario(
            codewords=(c0, c1),
            input_state=DensityOperator.from_ket(np.array([1.0, 0.0]),
                                                 TensorSpace.single("L", 2)),
            errors=((np.eye(4), 0.5), (np.eye(4), 0.5)),
            apparatus_states=tuple(equal_overlap_states(2, 0.0)),
        )
        assert not duplicated.errors_orthogonal()

    def test_imperfect_observation_needs_two_errors(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        scenario = three_qubit_bit_flip_scenario(ket, overlap=0.5)
        with pytest.raises(UnsupportedScenarioError):
            qec_cycle(scenario)


class TestScenarioValidation:
    def test_non_orthonormal_codewords(self):
        c = np.zeros(8, dtype=complex)
        c[0] = 1.0
        with pytest.raises(InputError):
            QecScenario(
                codewords=(c, c),
                input_state=DensityOperator.from_matrix(np.eye(2) / 2),
                errors=((np.eye(8), 1.0),),
                apparatus_states=(np.array([1.0]),),
            )

    def test_bad_weights(self):
        ket = np.array([1.0, 0.0])
        with pytest.raises(InputError):
            three_qubit_bit_flip_scenario(ket, weights=(0.5, 0.2, 0.1, 0.1))

    def test_nan_weight_rejected(self):
        ket = np.array([1.0, 0.0])
        with pytest.raises(InputError):
            three_qubit_bit_flip_scenario(ket, weights=(math.nan, 0.5, 0.25, 0.25))

    def test_non_unitary_error(self):
        c0 = np.zeros(2, dtype=complex)
        c0[0] = 1.0
        c1 = np.zeros(2, dtype=complex)
        c1[1] = 1.0
        with pytest.raises(InputError):
            QecScenario(
                codewords=(c0, c1),
                input_state=DensityOperator.from_matrix(np.eye(2) / 2),
                errors=((np.diag([1.0, 0.0]), 1.0),),
                apparatus_states=(np.array([1.0]),),
            )

    def test_apparatus_count_mismatch(self):
        ket = np.array([1.0, 0.0])
        scenario = three_qubit_bit_flip_scenario(ket)
        with pytest.raises(InputError):
            QecScenario(
                codewords=scenario.codewords,
                input_state=scenario.input_state,
                errors=scenario.errors,
                apparatus_states=scenario.apparatus_states[:3],
            )

    def test_unequal_overlaps_rejected(self):
        ket = np.array([1.0, 0.0])
        scenario = three_qubit_bit_flip_scenario(ket, weights=(0.5, 0.5))
        e0 = np.array([1.0, 0.0, 0.0])
        e1 = np.array([0.6, 0.8, 0.0])
        with pytest.raises(InputError):
            QecScenario(
                codewords=scenario.codewords,
                input_state=scenario.input_state,
                errors=scenario.errors,
                apparatus_states=(e0, e1, e1),
            )


class TestImperfectErasure:
    def test_orthogonal_records(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        scenario = three_qubit_bit_flip_scenario(ket, weights=(0.5, 0.5), overlap=0.0)
        assert imperfect_erasure_entropy(scenario) == pytest.approx(LN2, abs=1e-9)

    def test_identical_records(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        scenario = three_qubit_bit_flip_scenario(ket, weights=(0.5, 0.5), overlap=1.0)
        assert imperfect_erasure_entropy(scenario) == pytest.approx(0.0, abs=1e-9)

    def test_half_overlap(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        scenario = three_qubit_bit_flip_scenario(ket, weights=(0.5, 0.5), overlap=0.5)
        assert imperfect_erasure_entropy(scenario) == pytest.approx(h_bin(0.75), abs=1e-9)

    def test_formula_across_grid(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        for a in np.linspace(0.0, 1.0, 11):
            scenario = three_qubit_bit_flip_scenario(ket, weights=(0.5, 0.5), overlap=float(a))
            expected = h_bin((1 + a) / 2)
            assert imperfect_erasure_entropy(scenario) == pytest.approx(expected, abs=1e-9)

    def test_more_than_two_records_unsupported(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        with pytest.raises(UnsupportedScenarioError):
            imperfect_erasure_entropy(three_qubit_bit_flip_scenario(ket))

    def test_unequal_weights_rejected(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        scenario = three_qubit_bit_flip_scenario(ket, weights=(0.7, 0.3))
        with pytest.raises(InputError):
            imperfect_erasure_entropy(scenario)


class TestOverlapSweep:
    @pytest.fixture()
    def template(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        return three_qubit_bit_flip_scenario(ket, weights=(0.5, 0.5))

    def test_orthogonal_row(self, template):
        rows = recovery_fidelity_vs_overlap(template, [0.0])
        assert rows[0].fidelity == pytest.approx(1.0, abs=1e-9)
        assert rows[0].erasure_entropy == pytest.approx(LN2, abs=1e-9)

    def test_identical_records_mean_guessing(self, template):
        # with equal weights and orthogonal error branches, guessing between
        # the two recoveries keeps half the weight on the right branch
        rows = recovery_fidelity_vs_overlap(template, [1.0])
        assert rows[0].fidelity == pytest.approx(0.5, abs=1e-9)

    def test_monotone_decrease(self, template):
        overlaps = [0.0, 0.25, 0.5, 0.75, 1.0]
        rows = recovery_fidelity_vs_overlap(template, overlaps)
        fidelities = [r.fidelity for r in rows]
        assert all(fidelities[i + 1] < fidelities[i] for i in range(len(rows) - 1))
        for row in rows[1:]:
            assert row.fidelity < 1.0

    def test_helstrom_success_curve(self, template):
        # orthogonal branches: fidelity equals the two-state discrimination success
        for a in (0.2, 0.6, 0.9):
            rows = recovery_fidelity_vs_overlap(template, [a])
            expected = 0.5 * (1 + math.sqrt(1 - a * a))
            assert rows[0].fidelity == pytest.approx(expected, abs=1e-9)

    def test_gc_entropy_shrinks_with_overlap(self, template):
        rows = recovery_fidelity_vs_overlap(template, [0.0, 0.4, 0.8])
        entropies = [r.erasure_entropy for r in rows]
        assert entropies[1] < entropies[0]
        assert entropies[2] < entropies[1]

    def test_needs_two_errors(self):
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        with pytest.raises(InputError):
            recovery_fidelity_vs_overlap(three_qubit_bit_flip_scenario(ket), [0.0])


class TestUhlmannFidelity:
    def test_identical_states(self):
        g = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        m = g @ g.conj().T
        rho = DensityOperator.from_matrix(m / np.trace(m).real)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_states_overlap(self):
        u = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        v = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        f = uhlmann_fidelity(DensityOperator.from_ket(u), DensityOperator.from_ket(v))
        assert f == pytest.approx(abs(np.vdot(u, v)) ** 2, abs=1e-9)

    def test_orthogonal_states(self):
        rho = DensityOperator.from_matrix(np.diag([1.0, 0.0]))
        sigma = DensityOperator.from_matrix(np.diag([0.0, 1.0]))
        assert uhlmann_fidelity(rho, sigma) == pytest.approx(0.0, abs=1e-9)
