"""Entanglement measures and purification bounds by constrained optimization.

The relative-entropy measure E_RE minimizes S(rho || omega) over the
separable set. Five rules run in order, and the first that applies answers:

1. pure state, any shape: the Schmidt-diagonal product mixture, certified by
   the entropic bound S(rho_A) - S(rho);
2. PPT state on 2x2, 2x3 or 3x2, where PPT means separable (Peres;
   Horodecki): E_RE = 0 exactly;
3. two qubits with entangled fraction F > 1/2: an explicit separable omega,
   certified by ln 2 - h(F) and exact on Bell-diagonal states in every local
   frame (Vedral & Plenio 1998);
4. other states on 2x2, 2x3 and 3x2: a log-barrier Newton path over the PPT
   set, each centring step warm-started from the path's tangent. Steps whose
   nu/t exceeds gap_tol centre loosely and carry an explicit dual gap; the
   steps that can certify centre fully and carry the gap nu/t;
5. larger factors: Frank-Wolfe steps toward product pure states, found by a
   local oracle, so the Frank-Wolfe gap is not a certificate.

On 2x2 Wootters' construction splits every minimizer into product kets.

The creation measure E_C minimizes average branch entanglement over all
pure-state decompositions. On 2x2 Wootters' construction gives the optimal
decomposition in closed form; elsewhere an uncertified random-restart descent
runs over isometry mixes of the eigen-ensemble.

Solvers are deterministic given the seed in SolverOptions. They run over raw
arrays with numpy's batched eigensolver internally; results are exposed back
through the package's density-operator types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .entropy import (EntropyValue, binary_entropy, cross_term_eig, shannon_entropy,
                      spectrum_entropy, von_neumann_entropy)
from .errors import InputError
# hermitian_eig is not called here; the benchmark tracer patches it by name.
from .linalg import EIG_FLOOR, DensityOperator, hermitian_eig  # noqa: F401

__all__ = [
    "SolverOptions",
    "SchmidtForm",
    "SeparableMixture",
    "EreResult",
    "EocResult",
    "PurificationReport",
    "schmidt_decompose",
    "entropy_of_entanglement",
    "relative_entropy_of_entanglement",
    "entanglement_of_creation",
    "purification_bound",
    "single_shot_probability",
    "schumacher_rate",
    "purification_report",
]

# Schmidt coefficients at or below this fraction of the largest are rounding.
_SCHMIDT_CUTOFF = 1e-12
# E_RE and E_C refuse a factor larger than this.
_MAX_FACTOR_DIM = 4
# Eigenvalues at or above minus this count as nonnegative in the closed-form
# E_RE rules: eigvalsh puts exact zeros within 5e-16. A partial transpose at
# -delta turns PPT on mixing in delta I, at relative entropy <= d delta.
_PPT_ROUNDING = 1e-14
# Product kets with 1 - |<a b|a' b'>| at or below this are one term of a
# product split; merging them moves the mixture by about this much.
_PARALLEL_KETS = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Solver settings: scenario files and the CLI choose gap_tol, max_iter and
    seed, and library callers may also bound the E_C descent; every other
    numerical setting is one of the module constants below."""

    gap_tol: float = 1e-5
    max_iter: int = 2000
    seed: int = 0
    eoc_restarts: int = 32
    eoc_max_steps: int = 5000

    def __post_init__(self):
        if not 0.0 < self.gap_tol < math.inf:  # also rejects NaN
            raise InputError(f"gap_tol must be positive and finite, got {self.gap_tol}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be at least 1, got {self.max_iter}")


# linear oracle (closest product state)
_ORACLE_STARTS = 8
_ORACLE_ROUNDS = 200
_ORACLE_GAIN_TOL = 1e-10
# step-size search along the Frank-Wolfe segment
_LINE_SEARCH_POINTS = 17
_LINE_SEARCH_ROUNDS = 4
# stagnation guard
_STALL_TOL = 1e-13
_STALL_ITERATIONS = 50
# identity weight mixed into a rank-deficient Frank-Wolfe iterate
_REGULARIZATION_EPS = 1e-9
# decomposition optimizer
_EOC_INITIAL_STEP = 0.5
_EOC_STEP_GROW = 1.4
_EOC_STEP_SHRINK = 0.9
_EOC_MIN_STEP = 1e-7
_EOC_PATIENCE = 300


def _bipartite_dims(rho: DensityOperator, max_factor_dim: int | None = None) -> tuple[int, int]:
    if len(rho.space.factors) != 2:
        raise InputError(
            f"expected a bipartite state, got factors {rho.space.labels}"
        )
    d_a, d_b = rho.space.dims
    if max_factor_dim is not None and max(d_a, d_b) > max_factor_dim:
        raise InputError(
            f"factor dimensions {d_a}x{d_b} exceed the cap {max_factor_dim}"
        )
    return d_a, d_b


# ---------------------------------------------------------------------------
# Schmidt analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchmidtForm:
    """Biorthogonal expansion of a bipartite ket: psi = sum c_k left_k (x) right_k."""

    coefficients: np.ndarray  # descending, squared-sum 1, zeros dropped
    left: np.ndarray          # (dim_a, k) orthonormal columns
    right: np.ndarray         # (dim_b, k) orthonormal columns

    @property
    def rank(self) -> int:
        return self.coefficients.size


def schmidt_decompose(psi, dims: tuple[int, int]) -> SchmidtForm:
    """Schmidt form of a unit vector on A (x) B with dims = (dim_a, dim_b)."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    d_a, d_b = dims
    if v.size != d_a * d_b:
        raise InputError(f"vector length {v.size} does not match dims {dims}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-9:
        raise InputError(f"expected a unit vector, got norm {norm}")
    # SVD of the coefficient matrix: the eigenvalues of c^dag c would square
    # the singular values and turn rounding into ghost Schmidt coefficients.
    u, coeffs, vh = np.linalg.svd(v.reshape(d_a, d_b), full_matrices=False)
    k = int(np.count_nonzero(coeffs > _SCHMIDT_CUTOFF * coeffs[0]))
    return SchmidtForm(coefficients=coeffs[:k], left=u[:, :k], right=vh[:k].T)


def entropy_of_entanglement(psi, dims: tuple[int, int]) -> EntropyValue:
    """Von Neumann entropy of either reduced state of a bipartite pure vector."""
    form = schmidt_decompose(psi, dims)
    probs = form.coefficients**2
    return shannon_entropy(probs / probs.sum())


# ---------------------------------------------------------------------------
# Separable mixtures: the E_RE minimizers, as stacks of weights and kets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableMixture:
    """Explicit convex combination of product pure states {p_i, |a_i>, |b_i>}:
    validation stacks the terms once into the read-only ``weights`` (k,),
    ``kets_a`` (k, d_a) and ``kets_b`` (k, d_b), which ``terms`` views."""

    terms: tuple[tuple[float, np.ndarray, np.ndarray], ...]
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    kets_a: np.ndarray = field(init=False, repr=False, compare=False)
    kets_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            weights, kets_a, kets_b = zip(*self.terms)
            kets_a, kets_b = (np.array(k, dtype=complex).reshape(len(k), -1)
                              for k in (kets_a, kets_b))
        except ValueError as exc:  # no terms, or ragged kets
            raise InputError(f"expected (p, a, b) terms, one ket length per factor: {exc}") from exc
        weights = np.array(weights, dtype=float)
        if not weights.min() >= -1e-12:  # also rejects NaN
            raise InputError(f"mixture weight {weights.min()} is negative")
        norms = np.concatenate([np.linalg.norm(kets_a, axis=1), np.linalg.norm(kets_b, axis=1)])
        if not np.abs(norms - 1.0).max() <= 1e-9:  # also rejects NaN
            raise InputError("mixture kets must be unit vectors")
        if not abs(weights.sum() - 1.0) <= 1e-9:
            raise InputError(f"mixture weights sum to {weights.sum()}, not 1")
        for name, a in (("weights", weights), ("kets_a", kets_a), ("kets_b", kets_b)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "terms", tuple(zip(weights.tolist(), kets_a, kets_b)))

    @property
    def dims(self) -> tuple[int, int]:
        return self.kets_a.shape[1], self.kets_b.shape[1]

    def matrix(self) -> np.ndarray:
        """Sum_i p_i |a_i b_i><a_i b_i| as one product of the stacked kets."""
        kets = (self.kets_a[:, :, None] * self.kets_b[:, None, :]).reshape(len(self.weights), -1)
        return (kets.T * self.weights) @ kets.conj()

    @staticmethod
    def maximally_mixed(dims: tuple[int, int]) -> "SeparableMixture":
        """I/d as the d = d_a d_b product basis kets, each at weight 1/d."""
        d_a, d_b = dims
        kets_a = np.repeat(np.eye(d_a, dtype=complex), d_b, axis=0)
        kets_b = np.tile(np.eye(d_b, dtype=complex), (d_a, 1))
        return SeparableMixture(tuple(zip(np.full(d_a * d_b, 1.0 / (d_a * d_b)), kets_a, kets_b)))


# ---------------------------------------------------------------------------
# Linear oracle: best product state of a Hermitian matrix
# ---------------------------------------------------------------------------

def _top_eigvec_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and eigenvector per matrix in a (..., d, d) stack."""
    mats = (mats + np.conj(np.swapaxes(mats, -1, -2))) / 2.0
    w, v = np.linalg.eigh(mats)
    return w[..., -1], v[..., :, -1]


def _product_maximize(g: np.ndarray, dims: tuple[int, int],
                      gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """Locally maximize <a,b|G|a,b> by alternating eigenvector updates.

    Runs _ORACLE_STARTS random starts plus one spectral start (the top
    Schmidt vector of G's dominant eigenvector) in a single batch and returns
    the best product pair found.
    """
    d_a, d_b = dims
    g4 = g.reshape(d_a, d_b, d_a, d_b)

    n_starts = _ORACLE_STARTS + 1
    b = gen.normal(size=(n_starts, d_b)) + 1j * gen.normal(size=(n_starts, d_b))
    top = np.linalg.eigh((g + g.conj().T) / 2.0)[1][:, -1]
    _, _, vh = np.linalg.svd(top.reshape(d_a, d_b))
    b[-1] = vh[0]
    b /= np.linalg.norm(b, axis=1, keepdims=True)

    values = np.full(n_starts, -np.inf)
    best_value = -np.inf
    a = np.zeros((n_starts, d_a), dtype=complex)
    for _ in range(_ORACLE_ROUNDS):
        m_a = np.einsum("ikjl,sk,sl->sij", g4, b.conj(), b)
        _, a = _top_eigvec_batch(m_a)
        m_b = np.einsum("ikjl,si,sj->skl", g4, a.conj(), a)
        values, b = _top_eigvec_batch(m_b)
        new_best = float(values.max())
        if new_best - best_value < _ORACLE_GAIN_TOL:
            best_value = max(best_value, new_best)
            break
        best_value = new_best
    best = int(np.argmax(values))
    return a[best], b[best], float(values[best])


# ---------------------------------------------------------------------------
# Relative entropy of entanglement (PPT barrier, Frank-Wolfe on larger factors)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EreResult:
    """Minimized relative entropy with the achieving mixture and solver trace."""

    value: float
    # the separable omega with value = S(rho || omega) as stacked product terms:
    # the Schmidt-diagonal mixture of a pure state, on 2x2 Wootters' split of rho
    # (PPT), sigma* (entangled fraction) or the barrier's last iterate, and beyond
    # 2x3 Frank-Wolfe's pruned active set; None for mixed states on 2x3 and 3x2
    argmin: SeparableMixture | None
    convergence: tuple[tuple[int, float, float], ...]  # (iteration, objective, gap)
    # "converged": the last gap is a bound on value - E_RE and is within
    # gap_tol; "iteration-cap": max_iter ran out first; "stalled": the
    # objective stopped improving (Frank-Wolfe) or a centring step failed
    # (barrier), so the last gap certifies nothing.
    status: str

    def convergence_csv(self) -> str:
        lines = ["iteration,objective,gap"]
        lines += [f"{it},{obj:.12g},{gap:.12g}" for it, obj, gap in self.convergence]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "value_nats": self.value,
            "status": self.status,
            "iterations": len(self.convergence),
            "final_gap": self.convergence[-1][2] if self.convergence else None,
            "mixture_terms": len(self.argmin.terms) if self.argmin else None,
        }


def _objective(rho: np.ndarray, s_rho: float, w: np.ndarray, u: np.ndarray) -> float:
    """S(rho || omega) from omega's eigensystem; inf on a support violation."""
    return float(cross_term_eig(rho, w, u)) - s_rho


def _log_dd1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First divided difference (ln a - ln b)/(a - b), elementwise, for a, b > 0.

    Written as log1p(u)/u / b with u = (a - b)/b, which keeps full relative
    precision for nearly equal arguments and gives 1/b when they coincide.
    """
    u = (a - b) / b
    equal = u == 0.0
    return np.where(equal, 1.0, np.log1p(u) / np.where(equal, 1.0, u)) / b


@lru_cache(maxsize=None)
def _triple_indices(d: int) -> tuple[np.ndarray, ...]:
    """Index arrays over the d^3 triples (i, j, k) in C order: each triple's entries
    ascending (3, d^3), the flat positions of its pairs (hi, mid) and (mid, lo) in a
    d x d matrix (2, d^3), of R_ki in a d x d matrix and of [(i, j), (j, k)] in a d^2 x d^2 one."""
    i, j, k = np.indices((d, d, d)).reshape(3, -1)
    lo, mid, hi = np.sort([i, j, k], axis=0)
    return (np.array([lo, mid, hi]), np.array([hi * d + mid, mid * d + lo]),
            k * d + i, (i * d + j) * d * d + j * d + k)


def _log_dd2(w: np.ndarray, loewner: np.ndarray) -> np.ndarray:
    """Second divided differences ln[w_i, w_j, w_k], flat over the triples
    (i, j, k) in C order, for ascending w and its first divided differences
    loewner = ln[w_i, w_j].

    Each triple is taken in ascending order so the outer pair carries the
    largest spread; below a relative spread of 1e-4 the Taylor series about
    their mean (through the fourth derivative) replaces the cancelling
    difference.
    """
    ascending, pairs = _triple_indices(w.size)[:2]
    lo, mid, hi = w[ascending]
    mean = (lo + mid + hi) / 3.0
    h2 = ((lo - mean) ** 2 + (mid - mean) ** 2 + (hi - mean) ** 2) / 2.0
    out = -0.5 / mean**2 - h2 / (4.0 * mean**4)
    upper, lower = loewner.reshape(-1)[pairs]
    np.divide(upper - lower, hi - lo, out=out, where=hi - lo > 1e-4 * mean)
    return out


def _neg_gradient(rho: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """-grad of S(rho||omega) at omega: the log's Frechet derivative applied to rho.

    Divided differences (ln w_i - ln w_j)/(w_i - w_j) in omega's eigenbasis.
    """
    loewner = _log_dd1(w[:, None], w[None, :])
    inner = u.conj().T @ rho @ u
    out = u @ ((loewner + loewner.T) / 2.0 * inner) @ u.conj().T
    return (out + out.conj().T) / 2.0


def _line_search(rho: np.ndarray, s_rho: float, omega: np.ndarray,
                 vertex: np.ndarray) -> tuple[float, float]:
    """Minimize the objective along (1-g) omega + g vertex with nested grids."""
    lo, hi = 0.0, 1.0
    best_g, best_f = 0.0, math.inf
    for _ in range(_LINE_SEARCH_ROUNDS):
        gammas = np.linspace(lo, hi, _LINE_SEARCH_POINTS)
        stack = (1.0 - gammas)[:, None, None] * omega + gammas[:, None, None] * vertex
        f = cross_term_eig(rho, *np.linalg.eigh(stack)) - s_rho
        i = int(np.argmin(f))
        if f[i] < best_f:
            best_f, best_g = float(f[i]), float(gammas[i])
        lo = float(gammas[max(i - 1, 0)])
        hi = float(gammas[min(i + 1, len(gammas) - 1)])
    return best_g, best_f


def relative_entropy_of_entanglement(rho: DensityOperator,
                                     opts: SolverOptions | None = None) -> EreResult:
    """Minimize S(rho || omega) over separable omega.

    The module's rules in order: ``_schmidt_ere`` for a pure state (one
    eigenvalue above EIG_FLOOR); 0 on 2x2, 2x3 and 3x2 when the partial
    transpose has no eigenvalue below -_PPT_ROUNDING; on 2x2
    ``_entangled_fraction_ere``; ``_ppt_barrier`` on 2x2, 2x3 and 3x2; and
    ``_frank_wolfe`` beyond. Rules 1 and 3 return only with a gap within
    gap_tol. "converged" certifies value - E_RE <= gap_tol except through
    Frank-Wolfe. The value is S(rho || omega) for a separable omega, hence an
    upper bound on E_RE; the argmin lists omega's product terms except for
    mixed states on 2x3 and 3x2, where it is None.
    """
    opts = opts or SolverOptions()
    dims = _bipartite_dims(rho, _MAX_FACTOR_DIM)
    s_rho = von_neumann_entropy(rho).nats
    if np.count_nonzero(rho.eigenvalues > EIG_FLOOR) == 1:
        result = _schmidt_ere(rho.matrix, s_rho, rho.eigenvectors[:, 0], dims)
        if result.convergence[-1][2] <= opts.gap_tol:
            return result
    if dims not in ((2, 2), (2, 3), (3, 2)):
        return _frank_wolfe(rho.matrix, s_rho, dims, opts)
    if np.linalg.eigvalsh(_partial_transpose(rho.matrix, dims))[0] >= -_PPT_ROUNDING:
        argmin = None
        if dims == (2, 2):
            argmin = _product_split(rho.eigenvalues[::-1], rho.eigenvectors[:, ::-1])
        return EreResult(value=0.0, argmin=argmin, convergence=((0, 0.0, 0.0),), status="converged")
    if dims == (2, 2):
        result = _entangled_fraction_ere(rho.matrix, s_rho)
        if result is not None and result.convergence[-1][2] <= opts.gap_tol:
            return result
    return _ppt_barrier(rho.matrix, s_rho, dims, opts)


def _schmidt_ere(rho: np.ndarray, s_rho: float, psi: np.ndarray,
                 dims: tuple[int, int]) -> EreResult:
    """E_RE of a pure state, S(rho || sigma) at sigma = sum_k c_k^2 |a_k b_k><a_k b_k|
    for rho's top eigenvector psi = sum_k c_k |a_k b_k> (Vedral & Plenio 1998).
    The gap is the value less the entropic lower bound S(rho_A) - S(rho)
    (Plenio, Virmani & Papadopoulos 2000); it is >= 0 but for rounding."""
    d_a, d_b = dims
    form = schmidt_decompose(psi, dims)
    w = form.coefficients**2
    u = (form.left[:, None, :] * form.right[None, :, :]).reshape(d_a * d_b, form.rank)
    value = max(_objective(rho, s_rho, w, u), 0.0)
    rho_a = np.trace(rho.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)
    gap = max(value - (shannon_entropy(np.linalg.eigvalsh(rho_a)).nats - s_rho), 0.0)
    argmin = SeparableMixture(tuple(zip(w, form.left.T, form.right.T)))
    return EreResult(value=value, argmin=argmin, convergence=((0, value, gap),), status="converged")


# The magic basis (Hill & Wootters 1997): a two-qubit ket is maximally
# entangled iff it is a phase times _MAGIC @ x for a real unit vector x.
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]) / math.sqrt(2.0)


def _entangled_fraction_ere(rho: np.ndarray, s_rho: float) -> EreResult | None:
    """Two-qubit E_RE at the product split of sigma* = Phi*/2 + (rho - F Phi*)
    / (2 (1 - F)), the closest separable state to a Bell-diagonal rho (Vedral
    & Plenio 1998). F = max <Phi|rho|Phi> over maximally entangled Phi is the
    top eigenvalue of Re(M^dag rho M), at Phi*. The gap is the value less
    ln 2 - h(F), a lower bound on E_RE whenever F > 1/2: separable sigma have
    <Phi*|sigma|Phi*> <= 1/2, and S(rho || sigma) does not grow under the
    measurement {Phi*, 1 - Phi*}. None when F <= 1/2 or sigma* is not a state.
    """
    fractions, vecs = np.linalg.eigh((_MAGIC.conj().T @ rho @ _MAGIC).real)
    f = float(fractions[-1])
    if not 0.5 < f < 1.0:
        return None
    phi = _MAGIC @ vecs[:, -1]
    top = np.outer(phi, phi.conj())
    w, u = np.linalg.eigh(top / 2.0 + (rho - f * top) / (2.0 * (1.0 - f)))
    if w[0] < -_PPT_ROUNDING:
        return None
    argmin = _product_split(w, u)
    value = max(_objective(rho, s_rho, *np.linalg.eigh(argmin.matrix())), 0.0)
    gap = max(value - (math.log(2.0) - binary_entropy(f).nats), 0.0)
    return EreResult(value=value, argmin=argmin, convergence=((0, value, gap),), status="converged")


def _frank_wolfe(rho_m: np.ndarray, s_rho: float, dims: tuple[int, int],
                 opts: SolverOptions) -> EreResult:
    """Frank-Wolfe minimization of S(rho || omega) over separable omega.

    Starts from the maximally mixed state, takes the best product state of the
    negated gradient as the step vertex, line-searches the convex combination,
    and stops with "converged" when the duality gap <g(omega), omega - vertex>
    lies in [0, opts.gap_tol]. A negative gap means the oracle returned a
    local maximum and certifies nothing, so the run goes on; it ends as
    "stalled" once _STALL_ITERATIONS steps in a row gained less than
    _STALL_TOL, or as "iteration-cap".
    """
    d = dims[0] * dims[1]
    gen = np.random.default_rng(opts.seed)

    # the active set: weights, and (kets_a, kets_b) blocks stacked once at the end
    base = SeparableMixture.maximally_mixed(dims)
    weights, kets = base.weights, [(base.kets_a, base.kets_b)]
    omega = np.eye(d, dtype=complex) / d

    trace: list[tuple[int, float, float]] = []
    status = "iteration-cap"
    stall = 0
    eps = _REGULARIZATION_EPS

    for it in range(opts.max_iter + 1):
        w, u = np.linalg.eigh(omega)
        if w[0] <= EIG_FLOOR:
            # keep the iterate full rank so the gradient stays finite
            omega = (1.0 - eps) * omega + eps * np.eye(d, dtype=complex) / d
            weights = np.concatenate([weights * (1.0 - eps), eps * base.weights])
            kets.append((base.kets_a, base.kets_b))
            w, u = np.linalg.eigh(omega)
        f = _objective(rho_m, s_rho, w, u)
        g_neg = _neg_gradient(rho_m, w, u)
        ket_a, ket_b, vertex_value = _product_maximize(g_neg, dims, gen)
        gap = vertex_value - float(np.real(np.trace(g_neg @ omega)))
        trace.append((it, f, gap))
        if 0.0 <= gap <= opts.gap_tol:
            status = "converged"
            break
        if stall >= _STALL_ITERATIONS:
            status = "stalled"
            break
        if it == opts.max_iter:
            break

        ket = np.kron(ket_a, ket_b)
        vertex = np.outer(ket, ket.conj())
        gamma, f_new = _line_search(rho_m, s_rho, omega, vertex)
        stall = stall + 1 if f - f_new < _STALL_TOL else 0
        if gamma > 0.0:
            omega = (1.0 - gamma) * omega + gamma * vertex
            omega = (omega + omega.conj().T) / 2.0
            weights = np.append(weights * (1.0 - gamma), gamma)
            kets.append((ket_a[None], ket_b[None]))

    kets_a, kets_b = (np.concatenate(blocks) for blocks in zip(*kets))
    argmin = _pruned_mixture(weights, kets_a, kets_b, cap=d * d)
    return EreResult(value=max(trace[-1][1], 0.0), argmin=argmin,
                     convergence=tuple(trace), status=status)


# sigma_y (x) sigma_y, which is real; the symmetric Hadamard matrix mixes four
# kets with equal squared weights.
_YY = np.array([[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
_HADAMARD4 = np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                       [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0
_BARRIER_START = 100.0       # t of the first centring step
_BARRIER_GROWTH = 10.0       # t multiplier between centring steps
_BARRIER_MARGIN = 100.0      # the path runs on until nu/t <= gap_tol / margin
_NEWTON_STEPS = 50           # per centring step
_NEWTON_DECREMENT_TOL = 1e-12
_LOOSE_DECREMENT = 0.5       # where a step whose nu/t cannot certify stops centring
_FULL_STEP_DECREMENT = 1e-4  # below it the whole Newton step is taken: near the
                             # centre, roundoff in t * S swamps the Armijo test
_START_MARGIN = 0.3          # share of p I/d's PT margin the first point keeps


def _partial_transpose(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose on the second factor of a (..., d, d) stack."""
    d_a, d_b = dims
    lead = m.shape[:-2]
    blocks = m.reshape(lead + (d_a, d_b, d_a, d_b)).swapaxes(-3, -1)
    return blocks.reshape(lead + (d_a * d_b, d_a * d_b))


@lru_cache(maxsize=None)
def _traceless_basis(d: int) -> np.ndarray:
    """Generalised Gell-Mann matrices: the d^2 - 1 traceless Hermitian d x d
    matrices B_a with tr(B_a B_b) = delta_ab, as a (d^2 - 1, d, d) stack."""
    e = [np.outer(row, col) for row in np.eye(d) for col in np.eye(d)]
    pairs = [(j * d + k, k * d + j) for j in range(d) for k in range(j + 1, d)]
    out = [(e[jk] + e[kj]) / math.sqrt(2.0) for jk, kj in pairs]
    out += [1j * (e[kj] - e[jk]) / math.sqrt(2.0) for jk, kj in pairs]
    out += [np.diag(np.r_[np.ones(l), -l, np.zeros(d - l - 1)]) / math.sqrt(l * (l + 1))
            for l in range(1, d)]
    return np.array(out, dtype=complex)


def _barrier_start(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """x_a = tr(B_a omega_0), omega_0 = (1 - p) rho + p I/d at the least p >= 0.1 (omega_0 > 0
    for any rho) with lambda_min(omega_0^{T_B}) >= _START_MARGIN p / d; local-unitary covariant."""
    lam = min(float(np.linalg.eigvalsh(_partial_transpose(rho, dims))[0]), 0.0)
    p = max(-lam / ((1.0 - _START_MARGIN) / len(rho) - lam), 0.1)
    return (1.0 - p) * (_traceless_basis(len(rho)).reshape(-1, rho.size).conj() @ rho.ravel()).real


def _ppt_barrier(rho: np.ndarray, s_rho: float, dims: tuple[int, int],
                 opts: SolverOptions) -> EreResult:
    """E_RE over the PPT set by log-barrier path following.

    Minimizes t S(rho || omega) - ln det omega - ln det omega^{T_B} over
    trace-one omega = I/d + sum_a x_a B_a, d = d_A d_B, by damped Newton
    steps on t H_obj + H_bar. Each point costs one stacked eigh of omega and
    omega^{T_B}, whose eigensystems the objective, the Newton system (one pass
    over Liouville space) and the dual gap share. The path starts at
    ``_barrier_start``'s mix of rho and I/d and at t = _BARRIER_START, a power
    of mu = _BARRIER_GROWTH, so it stops at the same t as one started from
    t = 1; t is then multiplied by mu. Each centring step's minimizer is unique
    and the certifying steps centre fully, so the start moves only loose rows.

    Each trace row is one centring step. At a centred point S(rho || omega)
    exceeds the PPT minimum by at most nu / t, nu = 2d (two log-det barriers
    on d x d blocks). A step with nu / t <= opts.gap_tol can certify: it
    centres to a Newton decrement of _NEWTON_DECREMENT_TOL, records nu / t
    as its gap, and makes the run "converged". Any other step stops at a
    decrement of _LOOSE_DECREMENT, never makes the run "converged", and
    records f - LB, with LB = f + 1 + lambda_min(G - Z_1 - Z_2^{T_B}) a lower
    bound on E_RE^PPT at any strictly feasible omega: f = S(rho || omega) is
    convex with gradient G, <G, omega> = -1, and Z_1 = omega^{-1} / t and
    Z_2 = (omega^{T_B})^{-1} / t have <Z_1, tau> >= 0 and <Z_2^{T_B}, tau> >= 0
    on every PPT state tau. At an exact centre LB = f - nu / t.

    At a boundary optimum (rank-deficient rho or omega^{T_B}) the centre
    moves like x* + c / t and the value's own excess is about nu / (2t), so
    the path runs on until nu / t <= gap_tol / _BARRIER_MARGIN unless
    max_iter stops it first. The next centring step starts from that model's
    x(t) + (1 - 1/mu) t dx/dt, with dx/dt = -(t H_obj + H_bar)^{-1} g_obj
    from the last solve at t, if that point is strictly feasible and no
    worse at mu t, else from x(t). A centring step fails once a full step no
    longer lowers the decrement; one that fails before convergence ends the
    run as "stalled"; one that fails after it ends the run at the last
    centred point. On 2x2 ``_product_split`` turns the final iterate's
    eigensystem into product kets and the value is S(rho || argmin); on 2x3
    and 3x2 the value is S(rho || omega) at the final iterate, with no argmin.
    """
    d = dims[0] * dims[1]
    basis = _traceless_basis(d)
    n = len(basis)
    rows = np.stack([basis, _partial_transpose(basis, dims)], 1).reshape(n, -1)  # B_a, B_a^{T_B}
    cols = rows.reshape(n, 2, d * d).transpose(1, 2, 0).copy()  # the same, as two (d^2, n) blocks
    diagonal = np.arange(d) * (d + 1)
    ik, scatter = _triple_indices(d)[2:]
    centre = np.eye(d, dtype=complex) / d
    nu = 2.0 * d

    def evaluate(x: np.ndarray):
        # (objective, log-det barrier, w, u); w[k], u[k] for omega, omega^{T_B}; None outside
        w, u = np.linalg.eigh(centre + (x @ rows).reshape(2, d, d))
        if w[0, 0] <= 0.0 or w[1, 0] <= 0.0:
            return None
        return _objective(rho, s_rho, w[0], u[0]), -np.log(w).sum(), w, u

    def derivatives(point) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # in Liouville space over omega's eigenbasis, with b the rotated basis columns
        # and R = U^dag rho U: grad_a = -tr(B_a D ln[omega](rho)) and Hessian
        # -(b^T K b + transpose), K[(i, j), (j, k)] = ln[w_i, w_j, w_k] R_ki; each log
        # det gives -tr(S_a) and Re(S^dag S), S_a = w^{-1/2} V^dag X_a V w^{-1/2} over
        # the eigensystem (w, V) of omega or omega^{T_B}, X_a = B_a or B_a^{T_B}, with
        # vec(V^dag X V) = (V^dag (x) V^T) vec(X) for both pairs in one stacked product
        _, _, w, u = point
        ut = u.swapaxes(1, 2)
        kron = (ut.conj()[:, :, None, :, None] * ut[:, None, :, None, :]).reshape(2, d * d, d * d)
        b = kron @ cols
        b_eig, r = b[0], u[0].conj().T @ rho @ u[0]
        loewner = _log_dd1(w[0, :, None], w[0, None, :])
        g_obj = -(b_eig.T @ (loewner * r.T).reshape(-1)).real
        k = np.zeros(d**4, dtype=complex)
        k[scatter] = _log_dd2(w[0], loewner) * r.reshape(-1)[ik]
        k = b_eig.T @ k.reshape(d * d, d * d) @ b_eig
        s = (b / np.sqrt(w[:, :, None] * w[:, None, :]).reshape(2, d * d, 1)).reshape(2 * d * d, n)
        g_bar = -(s[diagonal] + s[d * d + diagonal]).sum(axis=0).real
        return g_obj, -(k.real + k.real.T), g_bar, (s.conj().T @ s).real

    def dual_gap(point, t: float) -> float:
        # f - LB at any strictly feasible omega, LB = f + 1 + lambda_min(G - Z_1 - Z_2^{T_B})
        # with G = -D ln[omega](rho), Z_1 = omega^{-1} / t and Z_2 = (omega^{T_B})^{-1} / t
        _, _, w, u = point
        inv = (u / w[:, None, :]) @ u.conj().swapaxes(1, 2)
        z = inv[0] + _partial_transpose(inv[1], dims)
        return -1.0 - float(np.linalg.eigvalsh(-_neg_gradient(rho, w[0], u[0]) - z / t)[0])

    x, t = _barrier_start(rho, dims), _BARRIER_START
    point = evaluate(x)
    derivs = derivatives(point)
    trace: list[tuple[int, float, float]] = []
    status = "iteration-cap"
    for it in range(opts.max_iter + 1):
        certifying = nu / t <= opts.gap_tol
        tol = _NEWTON_DECREMENT_TOL if certifying else _LOOSE_DECREMENT
        centred, last = False, math.inf
        for _ in range(_NEWTON_STEPS):
            g_obj, h_obj, g_bar, h_bar = derivs
            grad = t * g_obj + g_bar
            try:
                step, tangent = np.linalg.solve(t * h_obj + h_bar, -np.array([grad, g_obj]).T).T
            except np.linalg.LinAlgError:
                break
            decrement = float(-grad @ step)
            if decrement <= tol:
                centred = True
                break
            if decrement < _FULL_STEP_DECREMENT and decrement >= last:
                break
            last = decrement
            value = t * point[0] + point[1]
            alpha = 1.0
            while alpha > 1e-12:
                trial = evaluate(x + alpha * step)
                if trial is not None and (t * trial[0] + trial[1] <= value - 0.25 * alpha * decrement
                                          or decrement < _FULL_STEP_DECREMENT):
                    break
                alpha /= 2.0
            else:
                break
            x, point = x + alpha * step, trial
            derivs = derivatives(point)
        if not centred and status == "converged":
            break
        final = point
        trace.append((it, point[0], nu / t if certifying else dual_gap(point, t)))
        if not centred:
            status = "stalled"
            break
        if certifying:
            status = "converged"
        if nu / t <= opts.gap_tol / _BARRIER_MARGIN or it == opts.max_iter:
            break
        x_ext = x + (1.0 - 1.0 / _BARRIER_GROWTH) * t * tangent
        t *= _BARRIER_GROWTH
        trial = evaluate(x_ext)
        if trial is not None and t * trial[0] + trial[1] <= t * point[0] + point[1]:
            x, point, derivs = x_ext, trial, derivatives(trial)

    argmin, value = None, final[0]
    if dims == (2, 2):
        argmin = _product_split(final[2][0], final[3][0])
        value = _objective(rho, s_rho, *np.linalg.eigh(argmin.matrix()))
    return EreResult(value=max(value, 0.0), argmin=argmin, convergence=tuple(trace), status=status)


def _wootters_kets(w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
    """Wootters' optimal decomposition of a two-qubit state (PRL 80, 2245).

    Takes the state's eigensystem (eigenvalues w ascending, eigenvectors the
    columns of u) and returns (z, C): four unnormalized kets z_k, the columns
    of z, with z z^dag = rho and each of the state's concurrence C, so that
    their average branch entanglement is the entanglement of formation. With
    rho = V V^dag and Y = sigma_y (x) sigma_y, the singular values of the
    complex symmetric tau = V^T Y V are Wootters' lambda_i. A Takagi
    factorization tau = U diag(lambda) U^T gives kets x = V conj(U) with
    x_i^T Y x_j = lambda_i delta_ij; multiplying x_j by e^{i theta_j / 2} and
    mixing the four by the Hadamard matrix gives
    z_k^T Y z_k = sum_j e^{i theta_j} lambda_j / 4.

    C = 0: the phases close sum_j e^{i theta_j} lambda_j = 0 (a triangle with
    sides lambda_1, lambda_2 and lambda_3 + lambda_4), so every z_k is a
    product ket. C > 0: phases (0, pi, pi, pi), i.e. x_j -> i x_j for j > 1,
    give z_k^T Y z_k = C / 4. At most three real rotations of column pairs
    then zero every f_k = z_k^T Y z_k - C |z_k|^2; they preserve
    sum_k f_k = C - C tr(rho) = 0.
    """
    v = u * np.sqrt(np.clip(w, 0.0, None))
    tau = v.T @ _YY @ v
    # Takagi vectors from the real symmetric embedding [[Re, Im], [Im, -Re]]:
    # its eigenvector [p; q] for lambda >= 0 gives tau conj(p + iq) = lambda (p + iq)
    embedding = np.empty((8, 8))
    embedding[:4, :4], embedding[4:, 4:] = tau.real, -tau.real
    embedding[:4, 4:] = embedding[4:, :4] = tau.imag
    lam, vecs = np.linalg.eigh(embedding)
    lam = lam[4:][::-1]
    takagi = (vecs[:4, 4:] + 1j * vecs[4:, 4:])[:, ::-1]
    x = v @ takagi.conj()
    concurrence = min(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), 1.0)

    if concurrence == 0.0:
        a, b, c = lam[0], lam[1], lam[2] + lam[3]
        # angle between sides a and b by the half-angle formula; acos of the
        # law of cosines loses every digit near a degenerate triangle (C = 0)
        corner = 2.0 * math.atan2(math.sqrt(max((b + c - a) * (a + c - b), 0.0)),
                                  math.sqrt(max((a + b + c) * (a + b - c), 0.0)))
        beta = math.pi - corner
        gamma = float(np.angle(-(a + b * np.exp(1j * beta))))
        return (x * np.exp(0.5j * np.array([0.0, beta, gamma, gamma]))) @ _HADAMARD4, 0.0

    z = (x * np.array([1.0, 1j, 1j, 1j])) @ _HADAMARD4
    for _ in range(3):
        # f is a real quadratic form in the columns: a rotation by phi of the
        # pair (i, j) takes f_i to cos^2 phi (f_ii + 2 t f_ij + t^2 f_jj),
        # t = tan phi, which has one positive root when f_ii > 0 > f_jj
        f = (z.T @ _YY @ z).real - concurrence * (z.conj().T @ z).real
        i, j = int(np.argmax(np.diag(f))), int(np.argmin(np.diag(f)))
        if not f[i, i] > 0.0 > f[j, j]:
            break
        q = f[i, j] + math.copysign(math.sqrt(f[i, j] ** 2 - f[i, i] * f[j, j]), f[i, j])
        t = -q / f[j, j] if q > 0.0 else -f[i, i] / q
        cos = 1.0 / math.sqrt(1.0 + t * t)
        z[:, [i, j]] = z[:, [i, j]] @ np.array([[cos, -t * cos], [t * cos, cos]])
    return z, concurrence


def _product_split(w: np.ndarray, u: np.ndarray) -> SeparableMixture:
    """Wootters' product kets of a zero-concurrence two-qubit state, from its eigensystem.

    Kets parallel on both factors (to ``_PARALLEL_KETS``) make one term, at the
    weighted mean of their phase-aligned factors: it matches the terms' sum to
    second order in the kets' distance, which a degenerate rho's rounding puts
    as high as 1e-7 (the square roots of its zero eigenvalues).
    """
    z, _ = _wootters_kets(w, u)
    left, sv, right = np.linalg.svd(z.T.reshape(4, 2, 2))
    keep = sv[:, 0] > 1e-15
    weights, kets_a, kets_b = sv[keep, 0] ** 2, left[keep, :, 0], right[keep, 0]
    ov_a, ov_b = kets_a.conj() @ kets_a.T, kets_b.conj() @ kets_b.T  # [i, j] = <a_i|a_j>
    parallel = 1.0 - np.abs(ov_a * ov_b) <= _PARALLEL_KETS
    if np.count_nonzero(parallel) > len(weights):  # some distinct kets are parallel
        terms, taken = [], np.zeros(len(weights), dtype=bool)
        for i in range(len(weights)):
            if taken[i]:
                continue
            group = parallel[i] & ~taken
            taken |= group
            if np.count_nonzero(group) == 1:
                terms.append((weights[i], kets_a[i], kets_b[i]))
                continue
            p = weights[group]
            mean_a = (p * np.conj(ov_a[i, group]) / np.abs(ov_a[i, group])) @ kets_a[group]
            mean_b = (p * np.conj(ov_b[i, group]) / np.abs(ov_b[i, group])) @ kets_b[group]
            terms.append((p.sum(), mean_a / np.linalg.norm(mean_a),
                          mean_b / np.linalg.norm(mean_b)))
        weights, kets_a, kets_b = (np.array(x) for x in zip(*terms))
    return SeparableMixture(tuple(zip(weights / weights.sum(), kets_a, kets_b)))


def _pruned_mixture(weights, kets_a, kets_b, cap: int) -> SeparableMixture:
    """The stacked terms heavier than 1e-12, heaviest first and renormalized; the cap applies
    only when the tail it would cut weighs at most 1e-9 (the iterate can genuinely need
    many vertices, and misreporting the argmin is worse than a long list)."""
    order = np.argsort(weights)[::-1]
    kept = order[weights[order] > 1e-12]
    if len(kept) > cap and weights[kept[cap:]].sum() <= 1e-9:
        kept = kept[:cap]
    w = weights[kept]
    return SeparableMixture(tuple(zip(w / w.sum(), kets_a[kept], kets_b[kept])))


# ---------------------------------------------------------------------------
# Entanglement of creation (decomposition optimization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EocResult:
    """Minimized average branch entanglement and the achieving decomposition."""

    value: float
    decomposition: tuple[tuple[float, np.ndarray], ...]
    # On 2x2 and for pure states the value is exact: "converged" with gap 0.
    # On larger factors the descent has no certificate: "converged" only
    # means it settled, "step-cap" that the step cap intervened, and gap is None.
    status: str
    gap: float | None = None

    def to_json(self) -> dict:
        return {
            "value_nats": self.value,
            "status": self.status,
            "branches": len(self.decomposition),
            "gap": self.gap,
        }


def _branch_cost(y: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Sum_i p_i E(psi_i) for batches of unnormalized branch kets.

    ``y`` has shape (..., K, d); branch weights are the squared norms and
    the Schmidt weights come from a batched SVD.
    """
    d_a, d_b = dims
    c = y.reshape(y.shape[:-1] + (d_a, d_b))
    p = np.sum(np.abs(y) ** 2, axis=-1)
    sv = np.linalg.svd(c, compute_uv=False)
    q = np.clip(sv**2 / np.where(p[..., None] > 1e-15, p[..., None], 1.0), 0.0, 1.0)
    return np.sum(p * spectrum_entropy(q), axis=-1)


def _random_isometries(gen: np.random.Generator, n: int, k: int, r: int) -> np.ndarray:
    g = gen.normal(size=(n, k, r)) + 1j * gen.normal(size=(n, k, r))
    q, _ = np.linalg.qr(g)
    return q


def _branches(y: np.ndarray, floor: float) -> tuple[tuple[float, np.ndarray], ...]:
    """Unit kets and renormalized weights of the rows of y heavier than floor."""
    p = np.sum(np.abs(y) ** 2, axis=1)
    keep = p > floor
    p, y = p[keep], y[keep]
    return tuple(zip((p / p.sum()).tolist(), y / np.sqrt(p)[:, None]))


def entanglement_of_creation(rho: DensityOperator,
                             opts: SolverOptions | None = None) -> EocResult:
    """Minimize the average reduced entropy over pure-state decompositions.

    A pure state is its own decomposition. On 2x2 the minimum is closed form:
    Wootters' four kets (``_wootters_kets``) all have the state's concurrence
    C, and the value is h((1 + sqrt(1 - C^2)) / 2). Both report "converged"
    with gap 0.

    On larger factors every length-K decomposition of rho arises as an
    isometry mix of its eigen-ensemble; the optimizer sweeps K from the rank
    r up to r^2, running batched random-restart descent (random isometry
    perturbations with step halving) for each K. The value is the average
    branch entanglement of the returned decomposition, hence an upper bound
    on the true minimum. The descent is uncertified, and the status says
    whether the step sizes collapsed (a local optimum, "converged") or the
    step cap intervened ("step-cap").
    """
    opts = opts or SolverOptions()
    dims = _bipartite_dims(rho, _MAX_FACTOR_DIM)
    keep = rho.eigenvalues > EIG_FLOOR
    lam, vecs = rho.eigenvalues[keep], rho.eigenvectors[:, keep]
    r = int(lam.size)
    amplitudes = vecs * np.sqrt(lam)  # (d, r), rho = W W^dag

    if r == 1:
        psi = amplitudes[:, 0] / np.linalg.norm(amplitudes[:, 0])
        value = entropy_of_entanglement(psi, dims).nats
        return EocResult(value=value, decomposition=((1.0, psi),), status="converged", gap=0.0)
    if dims == (2, 2):
        z, concurrence = _wootters_kets(rho.eigenvalues[::-1], rho.eigenvectors[:, ::-1])
        value = binary_entropy((1.0 + math.sqrt(1.0 - concurrence**2)) / 2.0).nats
        return EocResult(value=value, decomposition=_branches(z.T, 0.0), status="converged", gap=0.0)

    gen = np.random.default_rng(opts.seed)
    best_value = math.inf
    best_y: np.ndarray | None = None
    converged = False
    since_improved = 0
    for k in range(r, r * r + 1):
        value_k, y_k, done_k = _eoc_descent(amplitudes, dims, k, gen, opts)
        if value_k < best_value - 1e-9:
            best_value, best_y, converged = value_k, y_k, done_k
            since_improved = 0
        else:
            since_improved += 1
        if since_improved >= 3:
            break
    return EocResult(value=max(best_value, 0.0), decomposition=_branches(best_y, 1e-12),
                     status="converged" if converged else "step-cap")


def _eoc_descent(amplitudes: np.ndarray, dims: tuple[int, int], k: int,
                 gen: np.random.Generator, opts: SolverOptions) -> tuple[float, np.ndarray, bool]:
    """Batched random-restart local descent over K x r isometries.

    The flag is False only when opts.eoc_max_steps ran out.
    """
    r = amplitudes.shape[1]
    n = opts.eoc_restarts
    t = _random_isometries(gen, n, k, r)
    wt = amplitudes.T  # (r, d)
    current = _branch_cost(t @ wt, dims)
    step = np.full(n, _EOC_INITIAL_STEP)
    best_seen = current.min()
    since_best = 0
    exhausted = True
    for _ in range(opts.eoc_max_steps):
        active = step >= _EOC_MIN_STEP
        if not active.any():
            exhausted = False
            break
        noise = (gen.normal(size=t.shape) + 1j * gen.normal(size=t.shape))
        cand, _ = np.linalg.qr(t + step[:, None, None] * noise)
        values = _branch_cost(cand @ wt, dims)
        improved = (values < current - 1e-15) & active
        t[improved] = cand[improved]
        current[improved] = values[improved]
        step[improved] *= _EOC_STEP_GROW
        step[~improved & active] *= _EOC_STEP_SHRINK
        if current.min() < best_seen - 1e-10:
            best_seen = current.min()
            since_best = 0
        else:
            since_best += 1
            if since_best >= _EOC_PATIENCE:
                exhausted = False
                break
    best = int(np.argmin(current))
    return float(current[best]), t[best] @ wt, not exhausted


# ---------------------------------------------------------------------------
# Purification bounds
# ---------------------------------------------------------------------------

def purification_bound(n_target: int, ere: EreResult) -> float:
    """Ensemble bound min(1, E_RE / ln N) on the maximally-entangled fraction."""
    if n_target < 2:
        raise InputError(f"target Schmidt rank must be at least 2, got {n_target}")
    return min(1.0, ere.value / math.log(n_target))


def single_shot_probability(psi, dims: tuple[int, int] = (2, 2)) -> float:
    """Best one-pair conversion probability 2 b^2 for a|00> + b|11> with b <= a."""
    form = schmidt_decompose(psi, dims)
    if form.rank > 2 and form.coefficients[2] > 1e-9:
        raise InputError(f"Schmidt rank {form.rank} exceeds 2")
    b_sq = float(form.coefficients[1] ** 2) if form.rank >= 2 else 0.0
    b_sq = min(b_sq, 1.0 - b_sq)  # convention: b is the smaller coefficient
    return 2.0 * b_sq


def schumacher_rate(rho: DensityOperator, n_levels: int) -> float:
    """Compression ratio S(rho) / ln N."""
    if n_levels < 2:
        raise InputError(f"alphabet size must be at least 2, got {n_levels}")
    return von_neumann_entropy(rho).nats / math.log(n_levels)


@dataclass(frozen=True)
class PurificationReport:
    """Bound values for one input state; probabilities validated to [0, 1]."""

    n_target: int
    ensemble_bound: float
    single_shot: float | None
    schumacher: float

    def __post_init__(self):
        for name, value in (("ensemble_bound", self.ensemble_bound),
                            ("single_shot", self.single_shot)):
            if value is not None and not -1e-9 <= value <= 1.0 + 1e-9:
                raise InputError(f"{name} = {value} is not a probability")

    def to_json(self) -> dict:
        return {
            "N": self.n_target,
            "ensemble_bound": self.ensemble_bound,
            "single_shot": self.single_shot,
            "schumacher_rate": self.schumacher,
        }


def purification_report(rho: DensityOperator, n_target: int, ere: EreResult) -> PurificationReport:
    """Assemble the bound report; the single-shot entry applies only to
    two-qubit pure states (Schmidt rank at most 2)."""
    pure_qubits = _bipartite_dims(rho) == (2, 2) and rho.eigenvalues[0] > 1.0 - 1e-9
    return PurificationReport(
        n_target=n_target,
        ensemble_bound=purification_bound(n_target, ere),
        single_shot=single_shot_probability(rho.eigenvectors[:, 0]) if pure_qubits else None,
        schumacher=schumacher_rate(rho, n_target),
    )
