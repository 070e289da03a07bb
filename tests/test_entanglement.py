import math

import numpy as np
import pytest

from erasure_lab import entanglement
from erasure_lab.entanglement import (
    EreResult,
    SeparableMixture,
    SolverOptions,
    closest_product_state,
    entanglement_of_creation,
    entropy_of_entanglement,
    purification_bound,
    purification_report,
    relative_entropy_of_entanglement,
    schmidt_decompose,
    schumacher_rate,
    single_shot_probability,
)
from erasure_lab.entropy import relative_entropy
from erasure_lab.errors import InputError
from erasure_lab.linalg import DensityOperator, TensorSpace
from erasure_lab.sampling import random_ket, random_product_terms, random_unitary, rng

LN2 = math.log(2)
SPACE22 = TensorSpace.bipartite(2, 2)
RNG = rng(501)


def h_bin(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def bell_ket():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 2**-0.5
    return v


def two_qubit_pure(b_sq):
    v = np.zeros(4, dtype=complex)
    v[0] = math.sqrt(1 - b_sq)
    v[3] = math.sqrt(b_sq)
    return v


def wootters_eof_nats(matrix):
    """Closed-form two-qubit entanglement of formation, the standalone oracle."""
    y = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(y, y)
    tilde = yy @ matrix.conj() @ yy
    lam = np.sqrt(np.clip(np.linalg.eigvals(matrix @ tilde).real, 0.0, None))
    lam = np.sort(lam)[::-1]
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return h_bin((1 + math.sqrt(1 - c * c)) / 2)


BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)


def bell_diagonal(weights):
    return sum(w * np.outer(b, b) for w, b in zip(weights, BELL_BASIS))


def bell_diagonal_ere(weights):
    """Vedral & Plenio: ln 2 - h(lambda_max) when lambda_max >= 1/2, else 0."""
    top = max(weights)
    return LN2 - h_bin(top) if top >= 0.5 else 0.0


def embed_in_two_by_three(matrix):
    """Carry a two-qubit state into 2x3 through the local isometry |j> -> |j> on B."""
    iso = np.kron(np.eye(2), np.eye(3)[:, :2])
    return DensityOperator.from_matrix(iso @ matrix @ iso.T, TensorSpace.bipartite(2, 3))


def random_two_qubit_mixed(gen):
    g = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real, SPACE22)


class TestSchmidt:
    def test_product_state(self):
        psi = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        form = schmidt_decompose(psi, (2, 2))
        assert form.rank == 1
        assert form.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_bell_state(self):
        form = schmidt_decompose(bell_ket(), (2, 2))
        assert np.allclose(form.coefficients, [2**-0.5, 2**-0.5], atol=1e-12)

    def test_random_qutrit_reconstruction(self):
        psi = random_ket(RNG, 9)
        form = schmidt_decompose(psi, (3, 3))
        assert np.max(np.abs(form.reconstruct() - psi)) < 1e-9
        assert form.rank <= 3
        assert np.all(np.diff(form.coefficients) <= 1e-15)
        assert np.sum(form.coefficients**2) == pytest.approx(1.0, abs=1e-9)

    def test_rectangular_factors(self):
        psi = random_ket(RNG, 6)
        form = schmidt_decompose(psi, (2, 3))
        assert form.rank <= 2
        assert np.max(np.abs(form.reconstruct() - psi)) < 1e-9

    def test_non_unit_vector_rejected(self):
        with pytest.raises(InputError):
            schmidt_decompose(np.ones(4), (2, 2))

    def test_rectangular_product_has_rank_one(self):
        gen = rng(17)
        for _ in range(20):
            psi = np.kron(random_ket(gen, 2), random_ket(gen, 3))
            form = schmidt_decompose(psi, (2, 3))
            assert form.rank == 1
            assert np.max(np.abs(form.reconstruct() - psi)) < 1e-12

    def test_small_schmidt_weight_is_kept(self):
        gen = rng(19)
        weight = 1e-7
        for _ in range(20):
            u, v = random_unitary(gen, 2), random_unitary(gen, 3)
            psi = (math.sqrt(1 - weight) * np.kron(u[:, 0], v[:, 0])
                   + math.sqrt(weight) * np.kron(u[:, 1], v[:, 1]))
            form = schmidt_decompose(psi, (2, 3))
            assert form.rank == 2
            assert np.allclose(form.coefficients**2, [1 - weight, weight], rtol=1e-9, atol=0)


class TestEntropyOfEntanglement:
    def test_product_state_zero(self):
        psi = np.kron(random_ket(RNG, 2), random_ket(RNG, 3))
        assert entropy_of_entanglement(psi, (2, 3)).nats < 1e-10

    def test_schmidt_pair(self):
        assert entropy_of_entanglement(two_qubit_pure(0.25), (2, 2)).nats == pytest.approx(
            h_bin(0.25), abs=1e-12)

    def test_maximally_entangled(self):
        for n in (2, 3):
            psi = np.zeros(n * n, dtype=complex)
            for i in range(n):
                psi[i * n + i] = n**-0.5
            assert entropy_of_entanglement(psi, (n, n)).nats == pytest.approx(
                math.log(n), abs=1e-12)

    def test_both_marginals_agree(self):
        psi = random_ket(RNG, 6)
        rho = DensityOperator.from_ket(psi, TensorSpace.bipartite(2, 3))
        from erasure_lab.entropy import von_neumann_entropy
        s_a = von_neumann_entropy(rho.reduced({"A"})).nats
        s_b = von_neumann_entropy(rho.reduced({"B"})).nats
        assert abs(s_a - s_b) < 1e-9
        assert entropy_of_entanglement(psi, (2, 3)).nats == pytest.approx(s_a, abs=1e-9)


class TestClosestProductState:
    def objective(self, g, a, b):
        ket = np.kron(a, b)
        return float(np.real(ket.conj() @ g @ ket))

    def test_basis_projector(self):
        g = np.zeros((4, 4), dtype=complex)
        g[1, 1] = 1.0  # |0>|1>
        a, b = closest_product_state(g, (2, 2))
        assert self.objective(g, a, b) == pytest.approx(1.0, abs=1e-9)
        assert abs(a[0]) == pytest.approx(1.0, abs=1e-6)
        assert abs(b[1]) == pytest.approx(1.0, abs=1e-6)

    def test_identity(self):
        a, b = closest_product_state(np.eye(4, dtype=complex), (2, 2))
        assert self.objective(np.eye(4), a, b) == pytest.approx(1.0, abs=1e-9)

    def test_bell_projector_caps_at_half(self):
        g = np.outer(bell_ket(), bell_ket().conj())
        a, b = closest_product_state(g, (2, 2))
        value = self.objective(g, a, b)
        assert value == pytest.approx(0.5, abs=1e-9)
        # brute force over a parametrized product grid never beats the oracle
        thetas = np.linspace(0, math.pi / 2, 25)
        phis = np.linspace(0, 2 * math.pi, 25, endpoint=False)
        t, p = (x.reshape(-1) for x in np.meshgrid(thetas, phis, indexing="ij"))
        grid = np.stack([np.cos(t), np.sin(t) * np.exp(1j * p)], axis=1)  # 625 kets
        kets = (grid[:, None, :, None] * grid[None, :, None, :]).reshape(-1, 4)
        best = np.max(np.real(np.einsum("ni,ij,nj->n", kets.conj(), g, kets)))
        assert best <= value + 1e-6

    def test_non_hermitian_rejected(self):
        g = np.zeros((4, 4), dtype=complex)
        g[0, 1] = 1.0
        with pytest.raises(InputError):
            closest_product_state(g, (2, 2))

    def test_nan_matrix_rejected(self):
        g = np.eye(4, dtype=complex) / 4
        g[1, 1] = np.nan
        with pytest.raises(InputError):
            closest_product_state(g, (2, 2))


class TestRelativeEntropyOfEntanglement:
    def test_separable_inputs_near_zero(self):
        gen = rng(11)
        for _ in range(3):
            mixture = SeparableMixture(tuple(random_product_terms(gen, 2, 2, 5)))
            result = relative_entropy_of_entanglement(mixture.assemble())
            assert result.value <= 1e-4

    def test_bell_state(self):
        rho = DensityOperator.from_ket(bell_ket(), SPACE22)
        result = relative_entropy_of_entanglement(rho, SolverOptions(gap_tol=1e-3, max_iter=4000))
        assert result.value == pytest.approx(LN2, abs=1e-3)
        assert result.status == "converged"

    def test_pure_state_collapse(self):
        rho = DensityOperator.from_ket(two_qubit_pure(0.25), SPACE22)
        result = relative_entropy_of_entanglement(rho, SolverOptions(gap_tol=1e-3, max_iter=4000))
        assert result.value == pytest.approx(h_bin(0.25), abs=1e-3)

    def test_objective_monotone_and_nonnegative(self):
        gen = rng(5)
        rho = random_two_qubit_mixed(gen)
        result = relative_entropy_of_entanglement(rho, SolverOptions(max_iter=300))
        objectives = [obj for _, obj, _ in result.convergence]
        assert all(objectives[i + 1] <= objectives[i] + 1e-9 for i in range(len(objectives) - 1))
        assert result.value >= 0.0
        gaps = [gap for _, _, gap in result.convergence]
        assert all(g >= -1e-9 for g in gaps)

    def test_converged_gap_below_tolerance(self):
        rho = DensityOperator.from_ket(two_qubit_pure(0.1), SPACE22)
        opts = SolverOptions(gap_tol=1e-3, max_iter=4000)
        result = relative_entropy_of_entanglement(rho, opts)
        assert result.status == "converged"
        assert result.convergence[-1][2] <= opts.gap_tol

    def test_argmin_is_valid_mixture(self):
        gen = rng(6)
        rho = random_two_qubit_mixed(gen)
        result = relative_entropy_of_entanglement(rho, SolverOptions(max_iter=400))
        assembled = result.argmin.assemble()
        # the minimizing mixture reproduces the solver's objective value
        check = relative_entropy(rho, assembled).nats
        assert check == pytest.approx(result.value, abs=1e-6)

    def test_deterministic_under_seed(self):
        rho = DensityOperator.from_ket(two_qubit_pure(0.3), SPACE22)
        opts = SolverOptions(gap_tol=1e-3, max_iter=500, seed=9)
        r1 = relative_entropy_of_entanglement(rho, opts)
        r2 = relative_entropy_of_entanglement(rho, opts)
        assert r1.value == r2.value
        assert r1.convergence == r2.convergence

    def test_local_unitary_invariance(self):
        gen = rng(13)
        rho = DensityOperator.from_ket(two_qubit_pure(0.2), SPACE22)
        u = np.kron(random_unitary(gen, 2), random_unitary(gen, 2))
        rotated = DensityOperator(SPACE22, u @ rho.matrix @ u.conj().T)
        opts = SolverOptions(gap_tol=1e-3, max_iter=4000)
        v1 = relative_entropy_of_entanglement(rho, opts).value
        v2 = relative_entropy_of_entanglement(rotated, opts).value
        assert abs(v1 - v2) <= 2e-3

    @pytest.mark.parametrize("weights", [
        (0.25, 0.25, 0.25, 0.25),
        (0.5, 0.5, 0.0, 0.0),
        (0.4, 0.3, 0.3, 0.0),
        (0.5, 0.25, 0.25, 0.0),
        (0.6, 0.4, 0.0, 0.0),
        (0.8, 0.2, 0.0, 0.0),
        (0.85, 0.05, 0.05, 0.05),
        (0.7, 0.1, 0.1, 0.1),
        (1.0, 0.0, 0.0, 0.0),
    ])
    def test_bell_diagonal_closed_form(self, weights):
        rho = DensityOperator.from_matrix(bell_diagonal(weights), SPACE22)
        result = relative_entropy_of_entanglement(rho)
        exact = bell_diagonal_ere(weights)
        assert result.status == "converged"
        assert result.value == pytest.approx(exact, abs=1e-6)
        assert -1e-12 <= result.value - exact <= result.convergence[-1][2]

    @pytest.mark.parametrize("q", [0.0, 0.2, 1.0 / 3.0, 0.6, 0.9])
    def test_werner_family_closed_form(self, q):
        bp = np.outer(bell_ket(), bell_ket().conj())
        rho = DensityOperator.from_matrix(q * bp + (1 - q) * np.eye(4) / 4, SPACE22)
        exact = bell_diagonal_ere(((1 + 3 * q) / 4,) + ((1 - q) / 4,) * 3)
        assert relative_entropy_of_entanglement(rho).value == pytest.approx(exact, abs=1e-6)

    def test_pure_states_certified_against_entropy_of_entanglement(self):
        gen = rng(14)
        for _ in range(5):
            psi = random_ket(gen, 4)
            rho = DensityOperator.from_ket(psi, SPACE22)
            result = relative_entropy_of_entanglement(rho)
            exact = entropy_of_entanglement(psi, (2, 2)).nats
            assert result.value == pytest.approx(exact, abs=1e-6)
            assert -1e-12 <= result.value - exact <= result.convergence[-1][2]
            check = relative_entropy(rho, result.argmin.assemble()).nats
            assert check == pytest.approx(result.value, abs=1e-9)
            assert len(result.argmin.terms) <= 4

    def test_iteration_cap_counts_centring_steps(self):
        rho = DensityOperator.from_ket(bell_ket(), SPACE22)
        result = relative_entropy_of_entanglement(rho, SolverOptions(max_iter=3, gap_tol=1e-12))
        assert result.status == "iteration-cap"
        assert len(result.convergence) == 4
        assert result.argmin is not None

    def test_dimension_cap(self):
        space = TensorSpace.bipartite(5, 2)
        rho = DensityOperator.maximally_mixed(space)
        with pytest.raises(InputError):
            relative_entropy_of_entanglement(rho)

    def test_requires_bipartite_space(self):
        rho = DensityOperator.from_matrix(np.eye(4) / 4)
        with pytest.raises(InputError):
            relative_entropy_of_entanglement(rho)

    def test_convergence_csv_format(self):
        rho = DensityOperator.from_ket(bell_ket(), SPACE22)
        result = relative_entropy_of_entanglement(rho, SolverOptions(gap_tol=1e-2, max_iter=100))
        lines = result.convergence_csv().strip().split("\n")
        assert lines[0] == "iteration,objective,gap"
        assert len(lines) == len(result.convergence) + 1


class TestEntanglementOfCreation:
    def test_pure_state_shortcut(self):
        psi = two_qubit_pure(0.3)
        rho = DensityOperator.from_ket(psi, SPACE22)
        result = entanglement_of_creation(rho)
        assert result.value == pytest.approx(h_bin(0.3), abs=1e-9)
        assert len(result.decomposition) == 1

    def test_separable_mixture_near_zero(self):
        gen = rng(21)
        mixture = SeparableMixture(tuple(random_product_terms(gen, 2, 2, 5)))
        result = entanglement_of_creation(mixture.assemble())
        assert result.value <= 1e-4

    def test_werner_family_matches_concurrence_oracle(self):
        bp = np.outer(bell_ket(), bell_ket().conj())
        for q in (0.2, 0.5, 0.8):
            m = q * bp + (1 - q) * np.eye(4) / 4
            rho = DensityOperator.from_matrix(m, SPACE22)
            result = entanglement_of_creation(rho)
            assert result.value == pytest.approx(wootters_eof_nats(m), abs=1e-3)

    def test_random_mixed_states_match_oracle(self):
        gen = rng(22)
        for _ in range(3):
            rho = random_two_qubit_mixed(gen)
            result = entanglement_of_creation(rho)
            assert result.value == pytest.approx(wootters_eof_nats(rho.matrix), abs=1e-3)

    def test_two_qubit_status_certified_by_concurrence(self):
        gen = rng(25)
        opts = SolverOptions(gap_tol=1e-3)
        for _ in range(3):
            rho = random_two_qubit_mixed(gen)
            result = entanglement_of_creation(rho, opts)
            assert result.status == "converged"
            assert result.gap == pytest.approx(result.value - wootters_eof_nats(rho.matrix), abs=1e-9)
            assert result.gap <= opts.gap_tol
            assert len(result.decomposition) == 4  # the K sweep stopped at the rank

    def test_two_qubit_descent_short_of_concurrence_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(entanglement, "_EOC_PATIENCE", 1)
        rho = random_two_qubit_mixed(rng(26))
        opts = SolverOptions(gap_tol=1e-9, eoc_restarts=1)
        result = entanglement_of_creation(rho, opts)
        assert result.status in ("stalled", "step-cap")
        assert result.gap > opts.gap_tol

    def test_decomposition_reassembles_state(self):
        gen = rng(23)
        rho = random_two_qubit_mixed(gen)
        result = entanglement_of_creation(rho)
        rebuilt = sum(p * np.outer(psi, psi.conj()) for p, psi in result.decomposition)
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-8

    def test_ordering_against_relative_entropy(self):
        gen = rng(24)
        for _ in range(3):
            rho = random_two_qubit_mixed(gen)
            e_c = entanglement_of_creation(rho).value
            e_re = relative_entropy_of_entanglement(
                rho, SolverOptions(gap_tol=1e-3, max_iter=4000)).value
            assert e_c + 1e-3 >= e_re


class TestBeyondTwoQubits:
    """2x3 keeps Frank-Wolfe and the uncertified descent; a two-qubit state
    carried in by a local isometry keeps both measures, so the two-qubit
    closed forms are exact oracles there."""

    WEIGHTS = (0.8, 0.0, 0.2, 0.0)  # rank two, entangled

    def test_frank_wolfe_brackets_the_closed_form(self):
        rho = embed_in_two_by_three(bell_diagonal(self.WEIGHTS))
        opts = SolverOptions(gap_tol=1e-3)
        result = relative_entropy_of_entanglement(rho, opts)
        exact = bell_diagonal_ere(self.WEIGHTS)
        final_gap = result.convergence[-1][2]
        assert result.status == "converged"
        assert 0.0 <= final_gap <= opts.gap_tol
        assert exact - 1e-8 <= result.value <= exact + final_gap

    def test_descent_matches_wootters(self):
        matrix = bell_diagonal(self.WEIGHTS)
        result = entanglement_of_creation(embed_in_two_by_three(matrix))
        assert result.value == pytest.approx(wootters_eof_nats(matrix), abs=1e-3)
        assert result.gap is None

    def test_stall_guard_reports_stalled(self, monkeypatch):
        monkeypatch.setattr(entanglement, "_STALL_TOL", 1.0)
        monkeypatch.setattr(entanglement, "_STALL_ITERATIONS", 2)
        rho = embed_in_two_by_three(bell_diagonal(self.WEIGHTS))
        opts = SolverOptions(gap_tol=1e-6)
        result = relative_entropy_of_entanglement(rho, opts)
        assert result.status == "stalled"
        assert len(result.convergence) == 3


class TestPurificationOps:
    def test_bell_bound_is_one(self):
        rho = DensityOperator.from_ket(bell_ket(), SPACE22)
        ere = EreResult.exact(entropy_of_entanglement(bell_ket(), (2, 2)).nats)
        assert purification_bound(rho, 2, ere) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_bound(self):
        psi = two_qubit_pure(0.25)
        rho = DensityOperator.from_ket(psi, SPACE22)
        ere = EreResult.exact(entropy_of_entanglement(psi, (2, 2)).nats)
        assert purification_bound(rho, 2, ere) == pytest.approx(h_bin(0.25) / LN2, abs=1e-12)

    def test_separable_bound_near_zero(self):
        gen = rng(31)
        mixture = SeparableMixture(tuple(random_product_terms(gen, 2, 2, 5)))
        rho = mixture.assemble()
        ere = relative_entropy_of_entanglement(rho)
        assert purification_bound(rho, 2, ere) <= 1e-4

    def test_invalid_target(self):
        rho = DensityOperator.from_ket(bell_ket(), SPACE22)
        with pytest.raises(InputError):
            purification_bound(rho, 1, EreResult.exact(0.5))

    def test_single_shot_values(self):
        assert single_shot_probability(two_qubit_pure(0.25)) == pytest.approx(0.5, abs=1e-12)
        assert single_shot_probability(two_qubit_pure(0.5)) == pytest.approx(1.0, abs=1e-12)
        assert single_shot_probability(np.kron([1.0, 0.0], [1.0, 0.0])) == 0.0

    def test_single_shot_below_entropic_bound(self):
        for b_sq in (0.1, 0.25, 0.4):
            assert single_shot_probability(two_qubit_pure(b_sq)) < h_bin(b_sq) / LN2

    def test_single_shot_rejects_high_rank(self):
        psi = np.zeros(9, dtype=complex)
        for i in range(3):
            psi[i * 3 + i] = 3**-0.5
        with pytest.raises(InputError):
            single_shot_probability(psi, (3, 3))

    def test_schumacher_rate_values(self):
        pure = DensityOperator.from_ket(random_ket(RNG, 2))
        assert schumacher_rate(pure, 2) == pytest.approx(0.0, abs=1e-12)
        mixed = DensityOperator.from_matrix(np.eye(3) / 3)
        assert schumacher_rate(mixed, 3) == pytest.approx(1.0, abs=1e-12)
        biased = DensityOperator.from_matrix(np.diag([0.25, 0.75]))
        assert schumacher_rate(biased, 2) == pytest.approx(h_bin(0.25) / LN2, abs=1e-12)
        with pytest.raises(InputError):
            schumacher_rate(pure, 1)

    def test_report_for_pure_state(self):
        psi = two_qubit_pure(0.25)
        rho = DensityOperator.from_ket(psi, SPACE22)
        ere = EreResult.exact(entropy_of_entanglement(psi, (2, 2)).nats)
        report = purification_report(rho, 2, ere)
        assert report.single_shot == pytest.approx(0.5, abs=1e-9)
        assert report.single_shot <= report.ensemble_bound + 1e-9
        blob = report.to_json()
        assert blob["N"] == 2

    def test_report_for_mixed_state_has_no_single_shot(self):
        gen = rng(32)
        rho = random_two_qubit_mixed(gen)
        report = purification_report(rho, 2, EreResult.exact(0.1))
        assert report.single_shot is None

    def test_bound_chain_on_sampled_pure_states(self):
        gen = rng(33)
        opts = SolverOptions(gap_tol=1e-3, max_iter=4000)
        for _ in range(3):
            psi = random_ket(gen, 4)
            rho = DensityOperator.from_ket(psi, SPACE22)
            ere = relative_entropy_of_entanglement(rho, opts)
            assert single_shot_probability(psi) <= purification_bound(rho, 2, ere) + 1e-3


class TestSeparableMixture:
    def test_weights_must_sum_to_one(self):
        ka = np.array([1.0, 0.0])
        with pytest.raises(InputError):
            SeparableMixture(((0.5, ka, ka),))

    def test_nan_weight_rejected(self):
        ka = np.array([1.0, 0.0])
        with pytest.raises(InputError):
            SeparableMixture(((math.nan, ka, ka), (1.0, ka, ka)))

    def test_kets_must_be_unit(self):
        ka = np.array([1.0, 1.0])
        with pytest.raises(InputError):
            SeparableMixture(((1.0, ka, ka),))

    def test_assembles_to_valid_state(self):
        gen = rng(41)
        mixture = SeparableMixture(tuple(random_product_terms(gen, 2, 3, 4)))
        state = mixture.assemble()
        assert state.space.dims == (2, 3)

    def test_maximally_mixed_assembly(self):
        mixture = SeparableMixture.maximally_mixed((2, 2))
        assert np.max(np.abs(mixture.matrix() - np.eye(4) / 4)) < 1e-12
