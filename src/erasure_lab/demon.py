"""Error-correction cycles with step-by-step entropy ledgers.

Two simulations live here: the classical two-atom feedback cycle (a box-atom
bit monitored and reset by a second atom) and the quantum error-correction
cycle (encode, weighted unitary errors applied in Kraus form, observation by an
apparatus, conditional recovery, and a garbage-can swap reset). Both emit an
EntropyLedger whose columns track the system, apparatus and garbage-can
entropy changes per step, in nats with k_B = 1.

A QecScenario keeps its error operators, weights and apparatus records as
stacked arrays, so a cycle runs every branch, the readout and the recovery as
array contractions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .entropy import binary_entropy, mutual_information, von_neumann_entropy
from .errors import InputError, UnsupportedScenarioError
from .linalg import DensityOperator, TensorSpace, hermitian_eig

__all__ = [
    "LedgerStep",
    "EntropyLedger",
    "QecScenario",
    "QecCycleResult",
    "OverlapSweepRow",
    "classical_cycle",
    "qec_cycle",
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

    def check_cycle(self, require_system_closure: bool = True) -> list[str]:
        """Cycle-closure and Landauer violations beyond ``CLOSURE_TOL``, empty
        when the ledger is consistent.

        The system column closes only when recovery is perfect; callers running
        imperfect-observation sweeps skip that check via the flag.
        """
        t = self.totals()
        problems = []
        if require_system_closure and abs(t["dS_system"]) > CLOSURE_TOL:
            problems.append(f"system entropy does not close: sum = {t['dS_system']:.3e}")
        if abs(t["dS_apparatus"]) > CLOSURE_TOL:
            problems.append(f"apparatus entropy does not close: sum = {t['dS_apparatus']:.3e}")
        if t["dS_garbage"] < t["info_gain"] - CLOSURE_TOL:
            problems.append(
                f"garbage entropy {t['dS_garbage']:.6f} below information gain {t['info_gain']:.6f}"
            )
        return problems

    def to_csv(self) -> str:
        rows = (f"{i},{s.name},{s.ds_system:.12g},{s.ds_apparatus:.12g},"
                f"{s.ds_garbage:.12g},{s.df:.12g},{s.info_gain:.12g}"
                for i, s in enumerate(self.steps, start=1))
        return "\n".join((CSV_HEADER, *rows)) + "\n"

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
    states = np.zeros((n, dim), dtype=complex)
    states[:, :n] = root.T
    return list(states)


def _pairwise_overlap(gram: np.ndarray) -> float:
    """The common |<m_i|m_j>|, i != j, of the records with Gram matrix ``gram``."""
    n = len(gram)
    if n < 2:
        return 0.0
    values = np.abs(gram[~np.eye(n, dtype=bool)])  # row-major, so values[0] = |<m_0|m_1>|
    if np.abs(values - values[0]).max() > 1e-9:
        upper = list(np.abs(gram[np.triu_indices(n, 1)]))
        raise InputError(f"apparatus overlaps are not all equal: {upper}")
    return float(values[0])


@dataclass(frozen=True)
class QecScenario:
    """Code words, an input state on the logical space, weighted unitary errors
    and the apparatus states that record which error occurred.

    ``overlap`` is the common |<m_i|m_j>| that validation checks. The stacks
    ``kraus`` (n, d, d), ``weights`` (n,) and ``records`` (n, m) are derived
    by validation and read-only; ``errors`` and ``apparatus_states`` view them.
    """

    codewords: tuple[np.ndarray, ...]
    input_state: DensityOperator
    errors: tuple[tuple[np.ndarray, float], ...]
    apparatus_states: tuple[np.ndarray, ...]
    overlap: float = field(init=False)
    kraus: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    records: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.codewords) == 0 or len(self.errors) == 0:
            raise InputError("need at least one code word and one error operator")
        stacks = {}
        for name, kind in (("codewords", "code words"), ("apparatus_states", "apparatus states")):
            vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in getattr(self, name)]
            if len({v.size for v in vecs}) > 1:
                raise InputError(f"{kind} must share one length, got {[v.size for v in vecs]}")
            stacks[name] = np.array(vecs, dtype=complex)
        codes, records = stacks["codewords"], stacks["apparatus_states"]
        k, d = codes.shape
        if np.max(np.abs(codes.conj() @ codes.T - np.eye(k))) > 1e-9:
            raise InputError("code words are not orthonormal")
        if self.input_state.dim != k:
            raise InputError(
                f"input state dimension {self.input_state.dim} must equal the number "
                f"of code words {k}"
            )
        weights = np.array([float(w) for _, w in self.errors])
        if not (weights.min() >= -1e-12 and abs(weights.sum() - 1.0) <= 1e-9):  # also rejects NaN
            raise InputError(f"error weights must be a probability vector, got {weights}")
        ops = [np.asarray(e, dtype=complex) for e, _ in self.errors]
        for e in ops:
            if e.shape != (d, d):
                raise InputError(f"error operator shape {e.shape} does not match system dim {d}")
        kraus = np.array(ops)
        if np.max(np.abs(kraus.conj().swapaxes(1, 2) @ kraus - np.eye(d))) > 1e-9:
            raise InputError("error operators must be unitary (recovery applies E^dag)")
        if len(records) != len(ops):
            raise InputError("need one apparatus state per error operator")
        if np.max(np.abs(np.linalg.norm(records, axis=1) - 1.0)) > 1e-9:
            raise InputError("apparatus states must be unit vectors")
        for a in (codes, kraus, weights, records):
            a.flags.writeable = False
        derived = {"codewords": tuple(codes), "errors": tuple(zip(kraus, weights.tolist())),
                   "apparatus_states": tuple(records), "kraus": kraus, "weights": weights,
                   "records": records, "overlap": _pairwise_overlap(records.conj() @ records.T)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def perfect_observation(self) -> bool:  # records read out projectively; the cycle must close
        return self.overlap <= 1e-9

    @property
    def system_dim(self) -> int:
        return self.codewords[0].size

    @property
    def apparatus_dim(self) -> int:
        return self.apparatus_states[0].size

    @property
    def encoder(self) -> np.ndarray:
        return np.column_stack(self.codewords)


@dataclass(frozen=True)
class QecCycleResult:
    ledger: EntropyLedger
    recovery_fidelity: float
    gc_entropy: float
    info_gain: float


def uhlmann_fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, equal to <psi|sigma|psi> for pure rho."""
    if rho.dim != sigma.dim:
        raise InputError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    lam, vecs = rho.eigenvalues, rho.eigenvectors
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
    m = scenario.records
    if scenario.perfect_observation:
        return np.abs(m.conj() @ m.T) ** 2
    if len(m) != 2:
        raise UnsupportedScenarioError(
            "imperfect observation is only modeled for two error branches"
        )
    # Helstrom: project onto the positive part of p1 |m1><m1| - p2 |m2><m2|.
    gamma = np.einsum("ia,ib,i->ab", m, m.conj(), scenario.weights * [1.0, -1.0])
    lam, vecs = hermitian_eig(gamma)
    if np.max(np.abs(lam)) <= 1e-12:
        return np.full((2, 2), 0.5)
    pos = vecs[:, lam > 1e-12]
    pi1 = pos @ pos.conj().T
    readout = np.stack((pi1, np.eye(len(pi1)) - pi1))
    return np.clip(np.einsum("ia,kab,ib->ki", m.conj(), readout, m).real, 0.0, 1.0)


def qec_cycle(scenario: QecScenario) -> QecCycleResult:
    """Run one error-correction cycle and account for every entropy change.

    Steps: encode, apply the weighted errors as the Kraus-form channel
    sum_i p_i E_i rho E_i^dag, correlate the apparatus with the error branch,
    recover conditioned on the apparatus readout, and finally swap the
    apparatus into a garbage can.
    """
    d, m_dim = scenario.system_dim, scenario.apparatus_dim
    kraus, p, records = scenario.kraus, scenario.weights, scenario.records
    kraus_dag = kraus.conj().swapaxes(1, 2)

    v = scenario.encoder
    rho_c = v @ scenario.input_state.matrix @ v.conj().T
    space_s = TensorSpace.single("S", d)
    encoded = DensityOperator(space_s, rho_c)
    s_initial = von_neumann_entropy(encoded).nats

    # The error channel in Kraus form: branch i is E_i rho_c E_i^dag, with weight p_i.
    branches = kraus @ rho_c @ kraus_dag
    weighted = p[:, None, None] * branches
    rho_f = weighted.sum(axis=0)
    s_error = von_neumann_entropy(DensityOperator(space_s, rho_f)).nats

    # Observation correlates the apparatus with the error branch: record i is |m_i><m_i|.
    marks = records[:, :, None] * records.conj()[:, None, :]
    rho_sa = np.einsum("iab,icd->acbd", weighted, marks).reshape(d * m_dim, d * m_dim)
    joint = DensityOperator(TensorSpace.of(("S", d), ("A", m_dim)), rho_sa)
    apparatus = DensityOperator(TensorSpace.single("A", m_dim), np.einsum("i,iab->ab", p, marks))
    info_gain = mutual_information(joint, ({"S"}, {"A"})).nats
    s_apparatus = von_neumann_entropy(apparatus).nats

    # Conditional recovery: readout j applies E_j^dag to sum_i p_i P[j, i] b_i.
    guided = np.einsum("ji,iab->jab", _measurement_probabilities(scenario), weighted)
    rho_rec = (kraus_dag @ guided @ kraus).sum(axis=0)
    rho_rec = (rho_rec + rho_rec.conj().T) / 2.0
    rho_rec /= np.trace(rho_rec).real
    recovered = DensityOperator(space_s, rho_rec)
    s_recovered = von_neumann_entropy(recovered).nats
    fidelity = uhlmann_fidelity(encoded, recovered)

    steps = (
        LedgerStep(
            "error",
            ds_system=s_error - s_initial,
            note="weighted unitary errors applied as the Kraus channel sum_i p_i E_i rho E_i^dag",
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
    return QecCycleResult(ledger=EntropyLedger(steps), recovery_fidelity=fidelity,
                          gc_entropy=s_apparatus, info_gain=info_gain)


@dataclass(frozen=True)
class OverlapSweepRow:
    overlap: float
    fidelity: float
    erasure_entropy: float


def recovery_fidelity_vs_overlap(template: QecScenario, overlaps) -> list[OverlapSweepRow]:
    """Re-run the two-error cycle across apparatus overlaps.

    The returned fidelity column is non-increasing in the overlap and drops
    below 1 as soon as the records stop being orthogonal. The erasure entropy
    is the garbage-can entropy S((|m1><m1| + |m2><m2|)/2) = h((1+a)/2), which
    needs equally weighted records.
    """
    if len(template.errors) != 2:
        raise InputError("the overlap sweep needs a two-error scenario template")
    w1, w2 = template.weights.tolist()
    if abs(w1 - w2) > 1e-9:
        raise InputError(f"apparatus records must carry equal weights, got {w1}, {w2}")
    rows = []
    for a in overlaps:
        states = equal_overlap_states(2, float(a), dim=template.apparatus_dim)
        result = qec_cycle(dataclasses.replace(template, apparatus_states=tuple(states)))
        rows.append(OverlapSweepRow(float(a), result.recovery_fidelity, result.gc_entropy))
    return rows


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# The identity, then a bit flip on each of the three qubits.
_BIT_FLIP_ERRORS = np.array([np.eye(8)] + [np.kron(np.kron(np.eye(2**k), _PAULI_X), np.eye(4 // 2**k))
                                           for k in range(3)], dtype=complex)


def three_qubit_bit_flip_scenario(input_state: DensityOperator | np.ndarray,
                                  weights=(0.25, 0.25, 0.25, 0.25),
                                  overlap: float = 0.0) -> QecScenario:
    """The concrete code used throughout: |000>, |111> with single bit flips.

    ``input_state`` is a logical qubit, given as a DensityOperator or a ket.
    Passing fewer than four weights keeps only the leading error operators
    (identity first), which is how the two-error sweep template is built.
    """
    ops = _BIT_FLIP_ERRORS[: len(weights)]
    if len(ops) != len(weights):
        raise InputError("at most four error weights are supported by this code")
    if not isinstance(input_state, DensityOperator):
        input_state = DensityOperator.from_ket(np.asarray(input_state, dtype=complex),
                                               TensorSpace.single("L", 2))
    states = equal_overlap_states(len(weights), overlap)
    return QecScenario(
        codewords=tuple(np.eye(8)[[0, 7]]),
        input_state=input_state,
        errors=tuple(zip(ops, weights)),
        apparatus_states=tuple(states),
    )
