"""The two workloads: seeded inputs, the operations run on them, and the
check applied to each operation's output.

A workload is a list of passes. Pass k of a run with seed s draws its inputs
from ``numpy.random.default_rng([s, k])``, so the same seed gives the same
inputs, and every pass holds the same operations in the same order with
fresh random inputs. Nothing here uses ``erasure_lab.sampling``: a change to
the package cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from erasure_lab import cli, entanglement
from erasure_lab.linalg import DensityOperator, TensorSpace

import checks

ENTANGLE_2X3_GAP_TOL = 1e-3
PURE_2X3_WEIGHT = 0.08
N_TARGET = 2
_BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)
_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass
class Op:
    """One operation: ``run`` calls the program, ``check`` judges its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    case: "State | None" = None


@dataclass
class State:
    """A generated bipartite state and what is known about it in closed form."""

    kind: str
    dims: tuple[int, int]
    matrix: np.ndarray
    ket: np.ndarray | None = None
    bell_weights: np.ndarray | None = None
    two_qubit: np.ndarray | None = None  # the 2x2 source of a Bell-diagonal state


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def _ket(gen: np.random.Generator, d: int) -> np.ndarray:
    v = gen.normal(size=d) + 1j * gen.normal(size=d)
    return v / np.linalg.norm(v)


def _unitary(gen: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _mixed(gen: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """Wishart state G G^dag / tr, G a d x rank complex Gaussian matrix."""
    g = gen.normal(size=(d, rank)) + 1j * gen.normal(size=(d, rank))
    m = g @ g.conj().T
    return _hermitian_part(m / np.trace(m).real)


def _bell_diagonal(gen: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i |Bell_i><Bell_i| in a random local frame U_A (x) U_B."""
    frame = np.kron(_unitary(gen, 2), _unitary(gen, 2))
    return _hermitian_part(frame @ (_BELL.T * weights) @ _BELL @ frame.conj().T)


def pure_state(gen: np.random.Generator, dims: tuple[int, int],
               schmidt_weight: float | None = None) -> State:
    """Haar ket, or one with Schmidt weights (1 - w, w) in a random local frame."""
    d_a, d_b = dims
    if schmidt_weight is None:
        ket = _ket(gen, d_a * d_b)
    else:
        core = np.zeros(d_a * d_b, dtype=complex)
        core[0] = np.sqrt(1.0 - schmidt_weight)
        core[d_b + 1] = np.sqrt(schmidt_weight)
        ket = np.kron(_unitary(gen, d_a), _unitary(gen, d_b)) @ core
    return State("pure", dims, np.outer(ket, ket.conj()), ket=ket)


def mixed_state(gen: np.random.Generator, rank: int) -> State:
    return State(f"rank{rank}", (2, 2), _mixed(gen, 4, rank))


def bell_state_mixture(gen: np.random.Generator) -> State:
    weights = gen.dirichlet(np.ones(4))
    m = _bell_diagonal(gen, weights)
    return State("bell", (2, 2), m, bell_weights=weights, two_qubit=m)


# ---------------------------------------------------------------------------
# cli-scenarios
# ---------------------------------------------------------------------------

def _matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _vector_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex)
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def _three_qubit_code(n_errors: int) -> tuple[list[dict], list[np.ndarray]]:
    """Code words |000>, |111> and the identity followed by single bit flips."""
    c0, c1 = np.zeros(8), np.zeros(8)
    c0[0], c1[7] = 1.0, 1.0
    eye = np.eye(2)
    flips = [np.kron(np.kron(_FLIP, eye), eye), np.kron(np.kron(eye, _FLIP), eye),
             np.kron(np.kron(eye, eye), _FLIP)]
    return [_vector_json(c0), _vector_json(c1)], [np.eye(8)] + flips[: n_errors - 1]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _cli_op(kind: str, argv: list[str], judge: Callable[[dict], list[str]]) -> Op:
    def check(result) -> list[str]:
        rc, text = result
        if rc != 0:
            return [f"{kind}: exit code {rc}"]
        try:
            doc = checks.strict_json(text)
        except ValueError as exc:
            return [f"{kind}: output is not strict JSON: {exc}"]
        return [f"{kind}: {p}" for p in judge(doc)]
    return Op(kind, lambda: _run_cli(argv), check)


def _write(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def cli_pass(gen: np.random.Generator, workdir: str) -> list[Op]:
    """6 erasure, 2 classical, 3 qec, 1 overlap sweep, 2 entanglement, 1 selftest.

    Every scenario is drawn from ``gen``; selftest runs at seed 0 in every pass.
    """
    ops: list[Op] = []
    n = 0

    def scenario(payload: dict) -> str:
        nonlocal n
        n += 1
        return _write(os.path.join(workdir, f"scenario{n}.json"), payload)

    for d in (2, 3, 4, 2, 3, 4):
        state = _mixed(gen, d, d)
        g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        ham, beta = _hermitian_part(g), float(gen.uniform(0.2, 3.0))
        path = scenario({"version": 1, "state": _matrix_json(state),
                         "hamiltonian": {"matrix": _matrix_json(ham), "beta": beta}})
        ops.append(_cli_op("erasure", ["erasure", "--scenario", path, "--format", "json"],
                           lambda doc, s=state, h=ham, b=beta: checks.check_erasure(doc, s, h, b)))

    for _ in range(2):
        p, temp = float(gen.uniform(0.0, 1.0)), float(gen.uniform(0.5, 2.0))
        path = scenario({"version": 1, "kind": "classical", "error_probability": p,
                         "temperature": temp})
        ops.append(_cli_op("demon-classical", ["demon", "--scenario", path, "--format", "json"],
                           lambda doc, p=p, t=temp: checks.check_classical(doc, p, t)))

    for n_errors, mixed_input in ((2, False), (3, True), (4, False)):
        codewords, errors = _three_qubit_code(n_errors)
        weights = gen.dirichlet(np.ones(n_errors))
        payload = {"version": 1, "kind": "qec", "codewords": codewords,
                   "errors": [{"matrix": _matrix_json(e), "weight": float(w)}
                              for e, w in zip(errors, weights)]}
        if mixed_input:
            payload["input_state"] = _matrix_json(_mixed(gen, 2, 2))
        else:
            payload["input_ket"] = _vector_json(_ket(gen, 2))
        path = scenario(payload)
        ops.append(_cli_op("demon-qec", ["demon", "--scenario", path, "--format", "json"],
                           lambda doc, w=weights: checks.check_qec(doc, w)))

    codewords, errors = _three_qubit_code(2)
    overlaps = [0.0] + sorted(float(a) for a in gen.uniform(0.0, 1.0, size=3)) + [1.0]
    path = scenario({"version": 1, "kind": "overlap-sweep", "codewords": codewords,
                     "input_ket": _vector_json(_ket(gen, 2)), "overlaps": overlaps,
                     "errors": [{"matrix": _matrix_json(e), "weight": 0.5} for e in errors]})
    ops.append(_cli_op("demon-sweep", ["demon", "--scenario", path, "--format", "json"],
                       lambda doc, a=overlaps: checks.check_sweep(doc, a)))

    for case in (pure_state(gen, (2, 2)), mixed_state(gen, 2)):
        path = scenario({"version": 1, "dims": [2, 2], "state": _matrix_json(case.matrix),
                         "schmidt_target": N_TARGET})
        ops.append(_cli_op("entanglement", ["entanglement", "--scenario", path, "--format",
                                            "json", "--with-eoc"],
                           lambda doc, c=case: checks.check_cli_entanglement(
                               doc, c, entanglement.SolverOptions().gap_tol, N_TARGET)))

    # At the default seed only: some other seeds fail a family (see README.md).
    ops.append(Op("selftest", lambda: _run_cli(["selftest", "--seed", "0"]),
                  lambda result: checks.check_selftest(*result)))
    return ops


def cli_warm_up(ops: list[Op]) -> None:
    """One command of each kind except selftest, outputs discarded."""
    seen = set()
    for op in ops:
        if op.kind not in seen and op.kind != "selftest":
            seen.add(op.kind)
            op.run()


# ---------------------------------------------------------------------------
# entangle: 2x2 states and 2x3 kets
# ---------------------------------------------------------------------------

def _entangle_op(case: State, opts) -> Op:
    def run():
        rho = DensityOperator(TensorSpace.bipartite(*case.dims), case.matrix)
        ere = entanglement.relative_entropy_of_entanglement(rho, opts)
        eoc = entanglement.entanglement_of_creation(rho, opts)
        return ere, eoc, entanglement.purification_report(rho, N_TARGET, ere)

    def check(result) -> list[str]:
        return [f"{case.kind}: {p}" for p in checks.check_library_op(case, *result, opts.gap_tol)]

    return Op(case.kind, run, check, case)


def entangle_2x2_pass(gen: np.random.Generator) -> list[Op]:
    """3 pure kets, 3 Bell-diagonal states, 3 each of rank 2 and 3, 1 of rank 4."""
    cases = [pure_state(gen, (2, 2)) for _ in range(3)]
    cases += [bell_state_mixture(gen) for _ in range(3)]
    cases += [mixed_state(gen, rank) for rank in (2, 2, 2, 3, 3, 3, 4)]
    opts = entanglement.SolverOptions()
    return [_entangle_op(c, opts) for c in cases]


def entangle_2x3_pass(gen: np.random.Generator) -> list[Op]:
    """4 pure kets with Schmidt weights (0.92, 0.08), each in a random local
    frame, at gap_tol 1e-3.

    FW needs about 2,000 w iterations on a ket with smaller weight w, the
    same in every frame, so every op does the same work.
    """
    opts = entanglement.SolverOptions(gap_tol=ENTANGLE_2X3_GAP_TOL)
    return [_entangle_op(pure_state(gen, (2, 3), PURE_2X3_WEIGHT), opts) for _ in range(4)]


def entangle_pass(gen: np.random.Generator) -> list[Op]:
    """The 13 two-qubit ops, then the 4 2x3 kets.

    One workload holds both paths so that a run is long enough to be steady
    on this benchmark's time budget, and the 2x3 kets, whose work is the same
    in every pass, take about half of the op time and damp the heavy tail of
    the 2x2 descent in ``ops_per_s``.
    """
    return entangle_2x2_pass(gen) + entangle_2x3_pass(gen)


def entangle_warm_up(ops: list[Op]) -> None:
    """The last op of each shape with its iterations capped, so the barrier,
    Frank-Wolfe and the descent run once without paying for a full solve."""
    last = {op.case.dims: op.case for op in ops}
    opts = entanglement.SolverOptions(max_iter=3, eoc_restarts=2, eoc_max_steps=3)
    for state in last.values():
        rho = DensityOperator(TensorSpace.bipartite(*state.dims), state.matrix)
        ere = entanglement.relative_entropy_of_entanglement(rho, opts)
        entanglement.entanglement_of_creation(rho, opts)
        entanglement.purification_report(rho, N_TARGET, ere)


@dataclass
class Workload:
    make_pass: Callable[[np.random.Generator, str], list[Op]]
    warm_up: Callable[[list[Op]], None]


WORKLOADS = {
    "cli-scenarios": Workload(cli_pass, cli_warm_up),
    "entangle": Workload(lambda gen, _dir: entangle_pass(gen), entangle_warm_up),
}
