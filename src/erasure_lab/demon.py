"""Error-correction cycles with step-by-step entropy ledgers.

Two simulations live here: the classical two-atom feedback cycle (a box-atom
bit monitored and reset by a second atom) and the quantum error-correction
cycle (encode, decohering errors with an environment record, observation by an
apparatus, conditional recovery, and a garbage-can swap reset). Both emit an
EntropyLedger whose columns track the system, apparatus and garbage-can
entropy changes per step, in nats with k_B = 1.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .entropy import binary_entropy, mutual_information, von_neumann_entropy
from .errors import InputError, UnsupportedScenarioError
from .linalg import EIG_FLOOR, DensityOperator, TensorSpace, hermitian_eig

__all__ = [
    "LedgerStep",
    "EntropyLedger",
    "QecScenario",
    "QecCycleResult",
    "OverlapSweepRow",
    "classical_cycle",
    "qec_cycle",
    "imperfect_erasure_entropy",
    "recovery_fidelity_vs_overlap",
    "equal_overlap_states",
    "three_qubit_bit_flip_scenario",
    "uhlmann_fidelity",
]

CSV_HEADER = "step,name,dS_system,dS_apparatus,dS_garbage,dF,info_gain"
CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class LedgerStep:
    name: str
    ds_system: float = 0.0
    ds_apparatus: float = 0.0
    ds_garbage: float = 0.0
    df: float = 0.0
    info_gain: float = 0.0
    note: str = ""


@dataclass(frozen=True)
class EntropyLedger:
    """Ordered entropy deltas for one full cycle."""

    steps: tuple[LedgerStep, ...]

    def totals(self) -> dict:
        return {
            "dS_system": sum(s.ds_system for s in self.steps),
            "dS_apparatus": sum(s.ds_apparatus for s in self.steps),
            "dS_garbage": sum(s.ds_garbage for s in self.steps),
            "dF": sum(s.df for s in self.steps),
            "info_gain": sum(s.info_gain for s in self.steps),
        }

    def check_cycle(self, tol: float = CLOSURE_TOL, require_system_closure: bool = True) -> list[str]:
        """Cycle-closure and Landauer violations, empty when the ledger is consistent.

        The system column closes only when recovery is perfect; callers running
        imperfect-observation sweeps skip that check via the flag.
        """
        t = self.totals()
        problems = []
        if require_system_closure and abs(t["dS_system"]) > tol:
            problems.append(f"system entropy does not close: sum = {t['dS_system']:.3e}")
        if abs(t["dS_apparatus"]) > tol:
            problems.append(f"apparatus entropy does not close: sum = {t['dS_apparatus']:.3e}")
        if t["dS_garbage"] < t["info_gain"] - tol:
            problems.append(
                f"garbage entropy {t['dS_garbage']:.6f} below information gain {t['info_gain']:.6f}"
            )
        return problems

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for i, s in enumerate(self.steps, start=1):
            buf.write(
                f"{i},{s.name},{s.ds_system:.12g},{s.ds_apparatus:.12g},"
                f"{s.ds_garbage:.12g},{s.df:.12g},{s.info_gain:.12g}\n"
            )
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "steps": [
                {
                    "name": s.name,
                    "dS_system": s.ds_system,
                    "dS_apparatus": s.ds_apparatus,
                    "dS_garbage": s.ds_garbage,
                    "dF": s.df,
                    "info_gain": s.info_gain,
                    "note": s.note,
                }
                for s in self.steps
            ],
            "totals": self.totals(),
        }


def classical_cycle(error_probability: float, temperature: float = 1.0) -> EntropyLedger:
    """Five-step ledger for the two-atom feedback cycle at error probability p.

    The entropy scale is the binary entropy of p; at p = 1/2 every nonzero
    entry has magnitude ln 2. Work bookkeeping appears only at the reset step
    as dF = -T * dS_garbage.
    """
    if not 0.0 <= error_probability <= 1.0:
        raise InputError(f"error probability must lie in [0, 1], got {error_probability}")
    h = binary_entropy(error_probability).nats
    t = temperature
    steps = (
        LedgerStep("initial", note="atoms A and B confined; both entropies zero"),
        LedgerStep("error", ds_system=h, note="atom A free to occupy either half"),
        LedgerStep(
            "observation",
            ds_apparatus=h,
            info_gain=h,
            note="atom B correlates with A; joint entropy unchanged",
        ),
        LedgerStep("correction", ds_system=-h, note="A compressed conditionally on B"),
        LedgerStep(
            "reset",
            ds_apparatus=-h,
            ds_garbage=h,
            df=-t * h,
            note="B compressed isothermally; cost dumped to the environment",
        ),
    )
    return EntropyLedger(steps)


def equal_overlap_states(n: int, overlap: float, dim: int | None = None) -> list[np.ndarray]:
    """n unit vectors whose pairwise inner products all equal ``overlap``.

    Columns of the square root of the Gram matrix (1-a)I + aJ, embedded in
    dimension ``dim`` (default n).
    """
    if not 0.0 <= overlap <= 1.0:
        raise InputError(f"overlap must lie in [0, 1], got {overlap}")
    if n < 1:
        raise InputError("need at least one state")
    dim = n if dim is None else dim
    if dim < n:
        raise InputError(f"dimension {dim} too small for {n} states")
    gram = (1.0 - overlap) * np.eye(n) + overlap * np.ones((n, n))
    lam, vecs = hermitian_eig(gram)
    root = (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T
    states = []
    for i in range(n):
        v = np.zeros(dim, dtype=complex)
        v[:n] = root[:, i]
        states.append(v)
    return states


def _pairwise_overlap(states: list[np.ndarray], tol: float = 1e-9) -> float:
    if len(states) < 2:
        return 0.0
    values = []
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            values.append(abs(np.vdot(states[i], states[j])))
    a = values[0]
    if max(abs(v - a) for v in values) > tol:
        raise InputError(f"apparatus overlaps are not all equal: {values}")
    return float(a)


@dataclass(frozen=True)
class QecScenario:
    """Code words, an input state on the logical space, weighted unitary errors
    and the apparatus states that record which error occurred."""

    codewords: tuple[np.ndarray, ...]
    input_state: DensityOperator
    errors: tuple[tuple[np.ndarray, float], ...]
    apparatus_states: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "codewords", tuple(np.asarray(c, dtype=complex).reshape(-1) for c in self.codewords)
        )
        object.__setattr__(
            self,
            "errors",
            tuple((np.asarray(e, dtype=complex), float(w)) for e, w in self.errors),
        )
        object.__setattr__(
            self,
            "apparatus_states",
            tuple(np.asarray(m, dtype=complex).reshape(-1) for m in self.apparatus_states),
        )
        d = self.codewords[0].size
        v = np.column_stack(self.codewords)
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(len(self.codewords)))) > 1e-9:
            raise InputError("code words are not orthonormal")
        if self.input_state.dim != len(self.codewords):
            raise InputError(
                f"input state dimension {self.input_state.dim} must equal the number "
                f"of code words {len(self.codewords)}"
            )
        weights = np.array([w for _, w in self.errors])
        if not (weights.min() >= -1e-12 and abs(weights.sum() - 1.0) <= 1e-9):  # also rejects NaN
            raise InputError(f"error weights must be a probability vector, got {weights}")
        for e, _ in self.errors:
            if e.shape != (d, d):
                raise InputError(f"error operator shape {e.shape} does not match system dim {d}")
            if np.max(np.abs(e.conj().T @ e - np.eye(d))) > 1e-9:
                raise InputError("error operators must be unitary (recovery applies E^dag)")
        if len(self.apparatus_states) != len(self.errors):
            raise InputError("need one apparatus state per error operator")
        for m in self.apparatus_states:
            if abs(np.linalg.norm(m) - 1.0) > 1e-9:
                raise InputError("apparatus states must be unit vectors")
        _pairwise_overlap(list(self.apparatus_states))

    @property
    def system_dim(self) -> int:
        return self.codewords[0].size

    @property
    def apparatus_dim(self) -> int:
        return self.apparatus_states[0].size

    @property
    def overlap(self) -> float:
        return _pairwise_overlap(list(self.apparatus_states))

    @property
    def encoder(self) -> np.ndarray:
        return np.column_stack(self.codewords)

    def errors_orthogonal(self, tol: float = 1e-9) -> bool:
        """True when distinct errors map the code space to orthogonal subspaces."""
        v = self.encoder
        for i in range(len(self.errors)):
            for j in range(i + 1, len(self.errors)):
                block = v.conj().T @ self.errors[i][0].conj().T @ self.errors[j][0] @ v
                if np.max(np.abs(block)) > tol:
                    return False
        return True


@dataclass(frozen=True)
class QecCycleResult:
    ledger: EntropyLedger
    recovered_state: DensityOperator
    recovery_fidelity: float
    gc_entropy: float
    info_gain: float
    # Entropy of the full system+apparatus+environment state before the trace;
    # zero for a pure input, None when the check was skipped.
    pre_trace_entropy: float | None = None


def uhlmann_fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, equal to <psi|sigma|psi> for pure rho."""
    if rho.dim != sigma.dim:
        raise InputError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    lam, vecs = hermitian_eig(rho.matrix)
    root = (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T
    inner = root @ sigma.matrix @ root
    lam2, _ = hermitian_eig((inner + inner.conj().T) / 2.0)
    # the square root amplifies rounding noise near zero, so drop it first
    lam2 = np.where(lam2 < 1e-14 * max(lam2.max(), 1e-300), 0.0, lam2)
    return float(np.sum(np.sqrt(lam2)) ** 2)


def _measurement_probabilities(scenario: QecScenario) -> np.ndarray:
    """P[j, i] = probability of inferring error j given branch i.

    Orthogonal apparatus records are read out projectively; an imperfect
    two-record observation uses the optimal two-outcome (Helstrom)
    discrimination; anything else is not simulated.
    """
    states = scenario.apparatus_states
    n = len(states)
    a = scenario.overlap
    if a <= 1e-9:
        m = np.column_stack(states)
        return np.abs(m.conj().T @ m) ** 2
    if n != 2:
        raise UnsupportedScenarioError(
            "imperfect observation is only modeled for two error branches"
        )
    p1, p2 = (w for _, w in scenario.errors)
    m1, m2 = states
    gamma = p1 * np.outer(m1, m1.conj()) - p2 * np.outer(m2, m2.conj())
    lam, vecs = hermitian_eig(gamma)
    if np.max(np.abs(lam)) <= 1e-12:
        return np.full((2, 2), 0.5)
    pos = vecs[:, lam > 1e-12]
    pi1 = pos @ pos.conj().T
    pi2 = np.eye(len(m1)) - pi1
    probs = np.empty((2, 2))
    for i, m in enumerate((m1, m2)):
        probs[0, i] = float(np.real(m.conj() @ pi1 @ m))
        probs[1, i] = float(np.real(m.conj() @ pi2 @ m))
    return np.clip(probs, 0.0, 1.0)


def qec_cycle(scenario: QecScenario) -> QecCycleResult:
    """Run one error-correction cycle and account for every entropy change.

    Steps: encode, apply weighted errors with an explicit environment record
    (orthonormal record states), trace out the environment, correlate the
    apparatus with the error branch, recover conditioned on the apparatus
    readout, and finally swap the apparatus into a garbage can.
    """
    d = scenario.system_dim
    n_err = len(scenario.errors)
    m_dim = scenario.apparatus_dim

    v = scenario.encoder
    rho_logical = scenario.input_state.matrix
    rho_c = v @ rho_logical @ v.conj().T
    space_s = TensorSpace.single("S", d)
    encoded = DensityOperator(space_s, rho_c)
    s_initial = von_neumann_entropy(encoded).nats

    # Explicit environment record: branch amplitudes sqrt(p_i) E_i |chi_k> (x) |m0> (x) |e_i>.
    w_in, chi = hermitian_eig(rho_logical)
    keep = w_in > EIG_FLOOR
    w_in, chi = w_in[keep], chi[:, keep]
    m0 = np.zeros(m_dim, dtype=complex)
    m0[0] = 1.0
    branch_kets = []  # one (d*m_dim, n_err) matrix per input eigenvector
    for k in range(chi.shape[1]):
        psi = v @ chi[:, k]
        cols = np.empty((d * m_dim, n_err), dtype=complex)
        for i, (e_op, p) in enumerate(scenario.errors):
            cols[:, i] = math.sqrt(max(p, 0.0)) * np.kron(e_op @ psi, m0)
        branch_kets.append(cols)

    # Entropy of the total state from the Gram matrix of its (few) components.
    flat = np.column_stack([math.sqrt(wk) * cols.reshape(-1) for wk, cols in zip(w_in, branch_kets)])
    gram = flat.conj().T @ flat
    g_lam, _ = hermitian_eig(gram)
    g_lam = np.clip(np.real(g_lam), 0.0, None)
    pre_trace_entropy = float(-np.sum(g_lam[g_lam > 0] * np.log(g_lam[g_lam > 0])))

    # Tracing the orthonormal environment records collapses each ket matrix to W W^dag.
    rho_sa_pre = sum(wk * cols @ cols.conj().T for wk, cols in zip(w_in, branch_kets))
    rho_f = np.einsum("ikjk->ij", rho_sa_pre.reshape(d, m_dim, d, m_dim))
    s_error = von_neumann_entropy(DensityOperator(space_s, rho_f)).nats

    # Observation correlates the apparatus with the error branch.
    branches = [e_op @ rho_c @ e_op.conj().T for e_op, _ in scenario.errors]
    weights = [p for _, p in scenario.errors]
    space_sa = TensorSpace.of(("S", d), ("A", m_dim))
    rho_sa = sum(
        p * np.kron(b, np.outer(m, m.conj()))
        for p, b, m in zip(weights, branches, scenario.apparatus_states)
    )
    joint = DensityOperator(space_sa, rho_sa)
    rho_a = sum(p * np.outer(m, m.conj()) for p, m in zip(weights, scenario.apparatus_states))
    apparatus = DensityOperator(TensorSpace.single("A", m_dim), rho_a)
    info_gain = mutual_information(joint, ({"S"}, {"A"})).nats
    s_apparatus = von_neumann_entropy(apparatus).nats

    # Conditional recovery weighted by the apparatus readout statistics.
    probs = _measurement_probabilities(scenario)
    rho_rec = np.zeros_like(rho_c)
    for i, (b, p) in enumerate(zip(branches, weights)):
        for j, (e_op, _) in enumerate(scenario.errors):
            if probs[j, i] == 0.0:
                continue
            rho_rec += p * probs[j, i] * (e_op.conj().T @ b @ e_op)
    rho_rec = (rho_rec + rho_rec.conj().T) / 2.0
    rho_rec /= np.trace(rho_rec).real
    recovered = DensityOperator(space_s, rho_rec)
    s_recovered = von_neumann_entropy(recovered).nats
    fidelity = uhlmann_fidelity(encoded, recovered)

    steps = (
        LedgerStep(
            "error",
            ds_system=s_error - s_initial,
            note="weighted errors recorded by orthonormal environment states",
        ),
        LedgerStep("trace-environment", note="bookkeeping only; no physical change"),
        LedgerStep(
            "observation",
            ds_apparatus=s_apparatus,
            info_gain=info_gain,
            note="apparatus correlated with the error branch; joint entropy unchanged",
        ),
        LedgerStep(
            "correction",
            ds_system=s_recovered - s_error,
            note="conditional inverse applied from the apparatus readout",
        ),
        LedgerStep(
            "reset",
            ds_apparatus=-s_apparatus,
            ds_garbage=s_apparatus,
            df=-s_apparatus,
            note="apparatus swapped into the garbage can",
        ),
    )
    return QecCycleResult(
        ledger=EntropyLedger(steps),
        recovered_state=recovered,
        recovery_fidelity=fidelity,
        gc_entropy=s_apparatus,
        info_gain=info_gain,
        pre_trace_entropy=pre_trace_entropy,
    )


def imperfect_erasure_entropy(scenario: QecScenario) -> float:
    """Erasure entropy of the two-record apparatus: S((|m1><m1| + |m2><m2|)/2).

    Equals binary_entropy((1+a)/2) for overlap a and decreases strictly in a.
    """
    if len(scenario.apparatus_states) != 2:
        raise UnsupportedScenarioError("erasure entropy is defined for exactly two apparatus states")
    w1, w2 = (w for _, w in scenario.errors)
    if abs(w1 - w2) > 1e-9:
        raise InputError(f"apparatus records must carry equal weights, got {w1}, {w2}")
    m1, m2 = scenario.apparatus_states
    mix = 0.5 * (np.outer(m1, m1.conj()) + np.outer(m2, m2.conj()))
    state = DensityOperator.from_matrix(mix)
    return von_neumann_entropy(state).nats


@dataclass(frozen=True)
class OverlapSweepRow:
    overlap: float
    fidelity: float
    erasure_entropy: float


def recovery_fidelity_vs_overlap(template: QecScenario, overlaps) -> list[OverlapSweepRow]:
    """Re-run the two-error cycle across apparatus overlaps.

    The returned fidelity column is non-increasing in the overlap and drops
    below 1 as soon as the records stop being orthogonal.
    """
    if len(template.errors) != 2:
        raise InputError("the overlap sweep needs a two-error scenario template")
    rows = []
    for a in overlaps:
        states = equal_overlap_states(2, float(a), dim=template.apparatus_dim)
        scenario = QecScenario(
            codewords=template.codewords,
            input_state=template.input_state,
            errors=template.errors,
            apparatus_states=tuple(states),
        )
        result = qec_cycle(scenario)
        rows.append(
            OverlapSweepRow(
                overlap=float(a),
                fidelity=result.recovery_fidelity,
                erasure_entropy=imperfect_erasure_entropy(scenario),
            )
        )
    return rows


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def three_qubit_bit_flip_scenario(input_state: DensityOperator | np.ndarray,
                                  weights=(0.25, 0.25, 0.25, 0.25),
                                  overlap: float = 0.0) -> QecScenario:
    """The concrete code used throughout: |000>, |111> with single bit flips.

    ``input_state`` is a logical qubit, given as a DensityOperator or a ket.
    Passing fewer than four weights keeps only the leading error operators
    (identity first), which is how the two-error sweep template is built.
    """
    c0 = np.zeros(8, dtype=complex)
    c0[0] = 1.0
    c1 = np.zeros(8, dtype=complex)
    c1[7] = 1.0
    eye2 = np.eye(2, dtype=complex)
    ops = [
        np.eye(8, dtype=complex),
        np.kron(np.kron(_PAULI_X, eye2), eye2),
        np.kron(np.kron(eye2, _PAULI_X), eye2),
        np.kron(np.kron(eye2, eye2), _PAULI_X),
    ][: len(weights)]
    if len(ops) != len(weights):
        raise InputError("at most four error weights are supported by this code")
    if not isinstance(input_state, DensityOperator):
        input_state = DensityOperator.from_ket(np.asarray(input_state, dtype=complex),
                                               TensorSpace.single("L", 2))
    states = equal_overlap_states(len(weights), overlap)
    return QecScenario(
        codewords=(c0, c1),
        input_state=input_state,
        errors=tuple((op, w) for op, w in zip(ops, weights)),
        apparatus_states=tuple(states),
    )
