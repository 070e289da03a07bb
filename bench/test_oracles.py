"""Tests of the benchmark's oracles and checks: python3 -m pytest bench -q

Each oracle is pinned on textbook states (a Bell state, a product state and
the Werner state at its separability threshold), and each check is shown to
pass on real program output and to fail once a result is perturbed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from erasure_lab import entanglement  # noqa: E402
from erasure_lab.linalg import DensityOperator, TensorSpace  # noqa: E402

LN2 = math.log(2.0)
PHI = np.array([1, 0, 0, 1]) / math.sqrt(2.0)
BELL = np.outer(PHI, PHI)
PRODUCT_KET = np.kron([1.0, 0.0], [1.0, 1.0]) / math.sqrt(2.0)
PRODUCT = np.outer(PRODUCT_KET, PRODUCT_KET)


def werner(p: float) -> np.ndarray:
    return p * BELL + (1.0 - p) * np.eye(4) / 4.0


WERNER_THRESHOLD = werner(1.0 / 3.0)
# Bell weights of werner(p): (1 + 3p)/4 on Phi+, (1 - p)/4 on the other three
WERNER_THRESHOLD_WEIGHTS = [0.5, 1 / 6, 1 / 6, 1 / 6]


# ---------------------------------------------------------------------------
# oracles on textbook states
# ---------------------------------------------------------------------------

def test_concurrence_and_wootters():
    assert oracles.concurrence(BELL) == pytest.approx(1.0, abs=1e-12)
    assert oracles.wootters_eof(BELL) == pytest.approx(LN2, abs=1e-12)
    assert oracles.concurrence(PRODUCT) == pytest.approx(0.0, abs=1e-12)
    assert oracles.wootters_eof(PRODUCT) == pytest.approx(0.0, abs=1e-12)
    assert oracles.concurrence(WERNER_THRESHOLD) == pytest.approx(0.0, abs=1e-12)
    assert oracles.concurrence(werner(0.5)) == pytest.approx(0.25, abs=1e-12)  # (3p - 1) / 2


def test_bell_diagonal_ere():
    assert oracles.bell_diagonal_ere([1, 0, 0, 0]) == pytest.approx(LN2, abs=1e-15)
    assert oracles.bell_diagonal_ere([0.25] * 4) == 0.0
    assert oracles.bell_diagonal_ere(WERNER_THRESHOLD_WEIGHTS) == pytest.approx(0.0, abs=1e-15)
    assert oracles.bell_diagonal_ere([0.8, 0.2, 0, 0]) == pytest.approx(
        LN2 + 0.8 * math.log(0.8) + 0.2 * math.log(0.2), abs=1e-15)


def test_ere_lower_bound():
    assert oracles.ere_lower_bound(BELL, (2, 2)) == pytest.approx(LN2, abs=1e-12)
    assert oracles.ere_lower_bound(PRODUCT, (2, 2)) == pytest.approx(0.0, abs=1e-12)
    assert oracles.ere_lower_bound(WERNER_THRESHOLD, (2, 2)) < 0.0


def test_partial_transpose_detects_entanglement():
    assert oracles.min_pt_eigenvalue(BELL, (2, 2)) == pytest.approx(-0.5, abs=1e-12)
    assert oracles.min_pt_eigenvalue(PRODUCT, (2, 2)) >= -1e-15
    assert oracles.min_pt_eigenvalue(WERNER_THRESHOLD, (2, 2)) == pytest.approx(0.0, abs=1e-12)
    assert oracles.min_pt_eigenvalue(werner(0.34), (2, 2)) < 0.0


def test_gibbs_cross_entropy():
    ham, beta = np.diag([0.0, 1.0]), 1.0
    z = 1.0 + math.exp(-1.0)
    cross, s_omega = oracles.gibbs_cross_entropy(np.diag([1.0, 0.0]), ham, beta)
    assert cross == pytest.approx(math.log(z), abs=1e-14)
    omega = np.diag([1.0, math.exp(-1.0)]) / z
    cross, s_omega = oracles.gibbs_cross_entropy(omega, ham, beta)
    assert cross == pytest.approx(s_omega, abs=1e-14)
    assert s_omega == pytest.approx(oracles.entropy(omega), abs=1e-14)


def test_relative_entropy_to_mixture():
    assert oracles.relative_entropy(BELL, np.eye(4) / 4.0) == pytest.approx(math.log(4.0), abs=1e-12)
    assert oracles.relative_entropy(PRODUCT, PRODUCT) == pytest.approx(0.0, abs=1e-12)
    assert oracles.relative_entropy(BELL, PRODUCT) == math.inf
    # the closest separable state to the Bell state: (|00><00| + |11><11|) / 2
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    sigma = oracles.mixture_matrix([(0.5, e0, e0), (0.5, e1, e1)])
    assert oracles.relative_entropy(BELL, sigma) == pytest.approx(LN2, abs=1e-12)


def test_branch_entanglement_and_reassembly():
    assert oracles.branch_entanglement([(1.0, PHI)], (2, 2)) == pytest.approx(LN2, abs=1e-12)
    assert oracles.branch_entanglement([(1.0, PRODUCT_KET)], (2, 2)) == pytest.approx(0.0, abs=1e-12)
    # Werner at the threshold: I/4 part as product kets, Bell part as Phi+
    basis = np.eye(2)
    branches = [(1.0 / 3.0, PHI)] + [(1.0 / 6.0, np.kron(basis[i], basis[j]))
                                     for i in range(2) for j in range(2)]
    assert np.allclose(oracles.decomposition_matrix(branches), WERNER_THRESHOLD, atol=1e-15)
    assert oracles.branch_entanglement(branches, (2, 2)) == pytest.approx(LN2 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# checks pass on program output and fail on perturbed output
# ---------------------------------------------------------------------------

def _solve(case, opts=None):
    opts = opts or entanglement.SolverOptions()
    rho = DensityOperator(TensorSpace.bipartite(*case.dims), case.matrix)
    ere = entanglement.relative_entropy_of_entanglement(rho, opts)
    eoc = entanglement.entanglement_of_creation(rho, opts)
    return ere, eoc, entanglement.purification_report(rho, 2, ere), opts.gap_tol


@pytest.fixture(scope="module")
def bell_case():
    gen = np.random.default_rng(3)
    case = workloads.bell_state_mixture(gen)
    return case, _solve(case)


@pytest.fixture(scope="module")
def pure_case():
    case = workloads.pure_state(np.random.default_rng(4), (2, 2))
    return case, _solve(case)


@pytest.mark.parametrize("fixture", ["bell_case", "pure_case"])
def test_library_checks_pass_on_program_output(fixture, request):
    case, (ere, eoc, pur, gap_tol) = request.getfixturevalue(fixture)
    assert checks.check_library_op(case, ere, eoc, pur, gap_tol) == []


def test_ere_checks_fail_when_perturbed(bell_case):
    case, (ere, eoc, pur, gap_tol) = bell_case
    for delta in (-1e-6, 1e-3):  # undercuts the exact value / exceeds it by more than the gap
        assert checks.check_library_op(case, replace(ere, value=ere.value + delta), eoc, pur, gap_tol)
    terms = list(ere.argmin.terms)
    w, ka, kb = terms[0]
    terms[0] = (w, ka, np.roll(kb, 1))
    moved = replace(ere, argmin=SimpleNamespace(terms=tuple(terms)))
    assert any("argmin" in p for p in checks.check_library_op(case, moved, eoc, pur, gap_tol))


def test_ere_check_rejects_an_entangled_argmin():
    entangled = SimpleNamespace(kind="mixed", dims=(2, 2), matrix=BELL, bell_weights=None)
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    separable = [(0.5, e0, e0), (0.5, e1, e1)]
    assert checks.check_ere(entangled, LN2, "iteration-cap", 1.0, 1e-5, separable) == []
    hidden = [(1.0, PHI, np.array([1.0]))]  # a "product" term that is the Bell ket itself
    assert any("PPT" in p for p in checks.check_ere(entangled, LN2, "iteration-cap", 1.0, 1e-5, hidden))


def test_eoc_checks_fail_when_perturbed(bell_case):
    case, (ere, eoc, pur, gap_tol) = bell_case
    lower = replace(eoc, value=eoc.value - 1e-4)
    assert checks.check_library_op(case, ere, lower, pur, gap_tol)
    higher = replace(eoc, value=eoc.value + 1e-3, gap=eoc.gap + 1e-3)
    assert checks.check_library_op(case, ere, higher, pur, gap_tol)  # converged yet far from Wootters
    p, psi = eoc.decomposition[0]
    skewed = replace(eoc, decomposition=((p * 0.9, psi),) + eoc.decomposition[1:])
    assert any("decomposition" in x for x in checks.check_library_op(case, ere, skewed, pur, gap_tol))


def test_purification_checks_fail_when_perturbed(pure_case):
    case, (ere, eoc, pur, gap_tol) = pure_case
    for field in ("ensemble_bound", "single_shot", "schumacher"):
        bad = replace(pur, **{field: getattr(pur, field) + 1e-6})
        assert checks.check_library_op(case, ere, eoc, bad, gap_tol), field


def test_2x3_checks_on_synthetic_results():
    # a rank-2 Bell-diagonal state carried into 2x3 by an isometry on B
    weights = np.array([0.7, 0.3, 0.0, 0.0])
    source = workloads._bell_diagonal(np.random.default_rng(5), weights)
    iso = np.kron(np.eye(2), np.eye(3)[:, :2])
    case = workloads.State("embedded", (2, 3), iso @ source @ iso.T,
                           bell_weights=weights, two_qubit=source)
    exact_ere = oracles.bell_diagonal_ere(case.bell_weights)
    exact_eoc = oracles.wootters_eof(case.two_qubit)
    assert exact_eoc >= exact_ere - 1e-12
    assert checks.check_ere(case, exact_ere + 5e-4, "converged", 1e-3, 1e-3) == []
    assert checks.check_ere(case, exact_ere + 2e-3, "converged", 1e-3, 1e-3)
    assert checks.check_ere(case, exact_ere - 1e-6, "converged", 1e-3, 1e-3)
    assert checks.check_eoc(case, exact_eoc, "converged", None, 1e-3, exact_ere) == []
    assert checks.check_eoc(case, exact_eoc - 1e-4, "converged", None, 1e-3, exact_ere)


def _cli_result(ops, kind):
    op = next(o for o in ops if o.kind == kind)
    return op, op.run()


@pytest.fixture(scope="module")
def cli_ops(tmp_path_factory):
    return workloads.cli_pass(np.random.default_rng(6), str(tmp_path_factory.mktemp("scenarios")))


@pytest.mark.parametrize("kind", ["erasure", "demon-classical", "demon-qec", "demon-sweep",
                                  "entanglement"])
def test_cli_checks_pass_on_program_output(cli_ops, kind):
    op, result = _cli_result(cli_ops, kind)
    assert result[0] == 0
    assert op.check(result) == []


def _perturbed(result, old: str, new: str):
    rc, text = result
    assert old in text
    return rc, text.replace(old, new, 1)


def test_cli_checks_fail_when_perturbed(cli_ops):
    op, result = _cli_result(cli_ops, "erasure")
    doc = checks.strict_json(result[1])
    total = repr(doc["report"]["delta_total"])
    assert op.check(_perturbed(result, total, repr(float(total) + 1e-6)))
    assert op.check(_perturbed(result, total, "NaN"))  # not strict JSON

    op, result = _cli_result(cli_ops, "demon-classical")
    assert op.check(_perturbed(result, '"dS_system": 0.0', '"dS_system": 0.001'))

    op, result = _cli_result(cli_ops, "demon-qec")
    fid = repr(checks.strict_json(result[1])["recovery_fidelity"])
    assert op.check(_perturbed(result, f'"recovery_fidelity": {fid}', '"recovery_fidelity": 0.99'))
    gc = repr(checks.strict_json(result[1])["gc_entropy"])
    assert op.check(_perturbed(result, f'"gc_entropy": {gc}', f'"gc_entropy": {float(gc) + 1e-6!r}'))

    op, result = _cli_result(cli_ops, "demon-sweep")
    rows = checks.strict_json(result[1])["rows"]
    last = repr(rows[-1]["fidelity"])
    assert op.check(_perturbed(result, f'"fidelity": {last}', '"fidelity": 1.5'))
    ent = repr(rows[1]["erasure_entropy"])
    assert op.check(_perturbed(result, ent, repr(float(ent) * 1.001)))

    op, result = _cli_result(cli_ops, "entanglement")
    value = repr(checks.strict_json(result[1])["eoc"]["value_nats"])
    assert op.check(_perturbed(result, value, repr(float(value) - 1e-4)))


def test_selftest_check():
    good = ("# erasure-lab selftest seed=0\nPASS a: x\nPASS b: y\n"
            "selftest: 2/2 families passed\n")
    assert checks.check_selftest(0, good) == []
    bad = good.replace("PASS b", "FAIL b").replace("2/2", "1/2")
    assert checks.check_selftest(3, bad)


def test_strict_json_refuses_nan():
    with pytest.raises(ValueError):
        checks.strict_json('{"x": NaN}')
    assert checks.strict_json('{"x": 1.5}') == {"x": 1.5}
