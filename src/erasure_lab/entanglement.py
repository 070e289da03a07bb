"""Entanglement measures and purification bounds by constrained optimization.

The relative-entropy measure E_RE minimizes S(rho || omega) over the
separable set. On 2x2 that set is exactly the PPT set (Peres; Horodecki), so
a log-barrier Newton method solves the convex problem with a certified gap
nu/t, and Wootters' construction splits the zero-concurrence minimizer into
product kets. On every other pair of dimensions Frank-Wolfe steps run over
the separable set: its extreme points are product pure states, so the linear
subproblem reduces to maximizing a product-state expectation value, solved by
alternating top-eigenvector updates with multiple starts; that oracle is
local, so the Frank-Wolfe gap is not a certificate.

The creation measure E_C minimizes average branch entanglement over all
pure-state decompositions, parametrized as isometry mixes of the
eigen-ensemble. On 2x2 Wootters' closed form is the descent's stopping
certificate; elsewhere the descent is uncertified.

Solvers are deterministic given the seed in SolverOptions. They run over raw
arrays with numpy's batched eigensolver internally; results are exposed back
through the package's density-operator types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyValue, binary_entropy, cross_term_eig, shannon_entropy, von_neumann_entropy
from .errors import InputError
from .linalg import EIG_FLOOR, DensityOperator, TensorSpace, hermitian_eig, require_hermitian

__all__ = [
    "SolverOptions",
    "SchmidtForm",
    "SeparableMixture",
    "EreResult",
    "EocResult",
    "PurificationReport",
    "schmidt_decompose",
    "entropy_of_entanglement",
    "closest_product_state",
    "relative_entropy_of_entanglement",
    "entanglement_of_creation",
    "purification_bound",
    "single_shot_probability",
    "schumacher_rate",
    "purification_report",
]

# Schmidt coefficients at or below this fraction of the largest are rounding.
_SCHMIDT_CUTOFF = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """The solver settings that scenario files and the CLI choose; every other
    numerical setting is one of the module constants below."""

    gap_tol: float = 1e-5
    max_iter: int = 2000
    seed: int = 0
    max_factor_dim: int = 4
    eoc_restarts: int = 32
    eoc_max_steps: int = 5000


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
            f"factor dimensions {d_a}x{d_b} exceed the configured cap {max_factor_dim}"
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

    def reconstruct(self) -> np.ndarray:
        out = np.zeros(self.left.shape[0] * self.right.shape[0], dtype=complex)
        for k in range(self.rank):
            out += self.coefficients[k] * np.kron(self.left[:, k], self.right[:, k])
        return out


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
# Separable mixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableMixture:
    """Explicit convex combination of product pure states {p_i, |a_i>, |b_i>}."""

    terms: tuple[tuple[float, np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        cleaned = []
        total = 0.0
        for w, ka, kb in self.terms:
            w = float(w)
            if not w >= -1e-12:  # also rejects NaN
                raise InputError(f"mixture weight {w} is negative")
            ka = np.asarray(ka, dtype=complex).reshape(-1)
            kb = np.asarray(kb, dtype=complex).reshape(-1)
            if abs(np.linalg.norm(ka) - 1.0) > 1e-9 or abs(np.linalg.norm(kb) - 1.0) > 1e-9:
                raise InputError("mixture kets must be unit vectors")
            cleaned.append((w, ka, kb))
            total += w
        if not abs(total - 1.0) <= 1e-9:
            raise InputError(f"mixture weights sum to {total}, not 1")
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def dims(self) -> tuple[int, int]:
        _, ka, kb = self.terms[0]
        return ka.size, kb.size

    def matrix(self) -> np.ndarray:
        d_a, d_b = self.dims
        out = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
        for w, ka, kb in self.terms:
            ket = np.kron(ka, kb)
            out += w * np.outer(ket, ket.conj())
        return out

    def assemble(self, space: TensorSpace | None = None) -> DensityOperator:
        d_a, d_b = self.dims
        if space is None:
            space = TensorSpace.bipartite(d_a, d_b)
        return DensityOperator(space, self.matrix())

    @staticmethod
    def maximally_mixed(dims: tuple[int, int]) -> "SeparableMixture":
        d_a, d_b = dims
        w = 1.0 / (d_a * d_b)
        terms = []
        for i in range(d_a):
            for j in range(d_b):
                ka = np.zeros(d_a, dtype=complex)
                ka[i] = 1.0
                kb = np.zeros(d_b, dtype=complex)
                kb[j] = 1.0
                terms.append((w, ka, kb))
        return SeparableMixture(tuple(terms))


# ---------------------------------------------------------------------------
# Linear oracle: best product state of a Hermitian matrix
# ---------------------------------------------------------------------------

def _top_eigvec_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and eigenvector per matrix in a (..., d, d) stack.

    The 2x2 case is closed form (v = [lam - c, b], falling back to e1 when
    that degenerates); larger blocks go through the batched eigensolver.
    """
    if mats.shape[-1] == 2:
        a = mats[..., 0, 0].real
        c = mats[..., 1, 1].real
        b = (mats[..., 1, 0] + np.conj(mats[..., 0, 1])) / 2.0
        lam = (a + c) / 2.0 + np.sqrt(((a - c) / 2.0) ** 2 + np.abs(b) ** 2)
        v0 = (lam - c).astype(complex)
        v1 = b
        norm = np.sqrt(np.abs(v0) ** 2 + np.abs(v1) ** 2)
        degenerate = norm <= 1e-30 * np.maximum(1.0, np.abs(lam))
        v0 = np.where(degenerate, 0.0, v0)
        v1 = np.where(degenerate, 1.0, v1)
        norm = np.where(degenerate, 1.0, norm)
        return lam, np.stack([v0 / norm, v1 / norm], axis=-1)
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


def closest_product_state(g, dims: tuple[int, int],
                          opts: SolverOptions | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Product unit vectors (ket_a, ket_b) locally maximizing <a,b|G|a,b>."""
    opts = opts or SolverOptions()
    g = np.asarray(g, dtype=complex)
    d_a, d_b = dims
    if g.shape != (d_a * d_b, d_a * d_b):
        raise InputError(f"matrix shape {g.shape} does not match dims {dims}")
    require_hermitian(g)
    gen = np.random.default_rng(opts.seed)
    ket_a, ket_b, _ = _product_maximize(g, dims, gen)
    return ket_a, ket_b


# ---------------------------------------------------------------------------
# Relative entropy of entanglement (Frank-Wolfe over the separable set)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EreResult:
    """Minimized relative entropy with the achieving mixture and solver trace."""

    value: float
    argmin: SeparableMixture | None
    convergence: tuple[tuple[int, float, float], ...]  # (iteration, objective, gap)
    # "converged": the last gap is a bound on value - E_RE and is within
    # gap_tol; "iteration-cap": max_iter ran out first; "stalled": the
    # objective stopped improving (Frank-Wolfe) or a centring step failed
    # (barrier), so the last gap certifies nothing.
    status: str

    @staticmethod
    def exact(value: float) -> "EreResult":
        """Wrap an independently known value (e.g. the pure-state reduced entropy)."""
        return EreResult(value=float(value), argmin=None,
                         convergence=((0, float(value), 0.0),), status="converged")

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
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log1p(u) / u
    return np.where(u == 0.0, 1.0, ratio) / b


def _log_dd2(w: np.ndarray) -> np.ndarray:
    """Second divided differences ln[w_i, w_j, w_k] as a (d, d, d) array.

    The three arguments are sorted so the outer pair carries the largest
    spread; below a relative spread of 1e-4 the Taylor series about their
    mean (through the fourth derivative) replaces the cancelling difference.
    """
    trip = np.stack(np.broadcast_arrays(w[:, None, None], w[None, :, None],
                                        w[None, None, :]), axis=-1)
    trip = np.sort(trip, axis=-1)
    lo, mid, hi = trip[..., 0], trip[..., 1], trip[..., 2]
    mean = trip.mean(axis=-1)
    dev = trip - mean[..., None]
    h2 = (dev**2).sum(axis=-1) + dev[..., 0] * dev[..., 1] \
        + dev[..., 0] * dev[..., 2] + dev[..., 1] * dev[..., 2]
    series = -0.5 / mean**2 - h2 / (4.0 * mean**4)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (_log_dd1(hi, mid) - _log_dd1(mid, lo)) / (hi - lo)
    return np.where(hi - lo > 1e-4 * mean, exact, series)


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

    On 2x2 the separable states are exactly the PPT states, so the minimum
    is a smooth convex problem, solved by log-barrier Newton steps (see
    ``_ppt_barrier``); there "converged" certifies value - E_RE <= gap_tol.
    Every other pair of dimensions runs Frank-Wolfe (see ``_frank_wolfe``),
    whose gap rests on a local product-state oracle and so is only as good
    as that oracle. Either way the value is S(rho || argmin) for an explicit
    separable argmin, hence an upper bound on E_RE.
    """
    opts = opts or SolverOptions()
    dims = _bipartite_dims(rho, opts.max_factor_dim)
    s_rho = von_neumann_entropy(rho).nats
    if dims == (2, 2):
        return _ppt_barrier(rho.matrix, s_rho, opts)
    return _frank_wolfe(rho.matrix, s_rho, dims, opts)


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

    mixture = SeparableMixture.maximally_mixed(dims)
    weights = np.full(d, 1.0 / d)
    kets = [(ka, kb) for _, ka, kb in mixture.terms]
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
            base = SeparableMixture.maximally_mixed(dims)
            weights = np.concatenate([weights * (1.0 - eps),
                                      [eps * bw for bw, _, _ in base.terms]])
            kets.extend((ka, kb) for _, ka, kb in base.terms)
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
            kets.append((ket_a, ket_b))

    final_terms = _pruned_terms(weights, kets, cap=d * d)
    value = max(trace[-1][1], 0.0)
    return EreResult(value=value, argmin=SeparableMixture(final_terms),
                     convergence=tuple(trace), status=status)


# Two-qubit constants: sigma_i (x) sigma_j / 2 without the identity term is an
# orthonormal basis of the traceless Hermitian 4x4 matrices; sigma_y (x) sigma_y
# is real; the symmetric Hadamard matrix mixes four kets with equal squared weights.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_TRACELESS_22 = np.array([np.kron(a, b) / 2.0 for a in _PAULI for b in _PAULI][1:])
_YY = np.kron(_PAULI[2], _PAULI[2]).real
_HADAMARD4 = np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                       [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0
_BARRIER_NU = 8.0            # two log-det barriers on 4x4 blocks
_BARRIER_GROWTH = 10.0       # t multiplier between centring steps
_BARRIER_MARGIN = 100.0      # the path runs on until nu/t <= gap_tol / margin
_NEWTON_STEPS = 50           # per centring step
_NEWTON_DECREMENT_TOL = 1e-12
_FULL_STEP_DECREMENT = 1e-4  # below it the whole Newton step is taken: near the
                             # centre, roundoff in t * S swamps the Armijo test


def _partial_transpose(m: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose on the second factor of a (..., d, d) stack."""
    d_a, d_b = dims
    lead = m.shape[:-2]
    blocks = m.reshape(lead + (d_a, d_b, d_a, d_b)).swapaxes(-3, -1)
    return blocks.reshape(lead + (d_a * d_b, d_a * d_b))


def _ppt_barrier(rho: np.ndarray, s_rho: float, opts: SolverOptions) -> EreResult:
    """Two-qubit E_RE by log-barrier path following over the PPT set.

    Minimizes t S(rho || omega) - ln det omega - ln det omega^{T_B} over
    trace-one omega = I/4 + sum_a x_a B_a with damped Newton steps (the
    Frechet gradient of ``_neg_gradient`` and the exact Hessian from the
    log's second divided differences), then multiplies t by
    _BARRIER_GROWTH. Each trace row is one centring step; at a centred
    point S(rho || omega) - E_RE <= nu / t with nu = 8, the recorded gap,
    and the run is "converged" once that gap is within opts.gap_tol. At a
    boundary optimum (rank-deficient rho or omega^{T_B}) the value's own
    excess is about nu / (2t), so the path runs on until nu / t <=
    gap_tol / _BARRIER_MARGIN, a few Newton steps more, unless max_iter
    stops it first. A centring step that fails before convergence ends the
    run as "stalled"; one that fails after it ends the run at the last
    centred point. The strictly PPT iterate is split into product kets by
    ``_product_split``, and the reported value is S(rho || argmin).
    """
    basis = _TRACELESS_22
    basis_pt = _partial_transpose(basis, (2, 2))
    centre = np.eye(4, dtype=complex) / 4.0

    def evaluate(x: np.ndarray, t: float):
        omega = centre + np.einsum("a,aij->ij", x, basis)
        omega_pt = _partial_transpose(omega, (2, 2))
        w, u = np.linalg.eigh(omega)
        w_pt = np.linalg.eigvalsh(omega_pt)
        if w[0] <= 0.0 or w_pt[0] <= 0.0:
            return math.inf, None
        f = _objective(rho, s_rho, w, u)
        return t * f - np.log(w).sum() - np.log(w_pt).sum(), (omega, omega_pt, w, u, f)

    def newton_step(t: float, omega, omega_pt, w, u) -> tuple[np.ndarray, np.ndarray]:
        # objective: grad_a = -tr(D ln[rho] B_a); Hessian from
        # D^2 ln[X, Y]_ik = sum_j ln[w_i, w_j, w_k] (X_ij Y_jk + Y_ij X_jk)
        grad = -t * np.einsum("ij,aji->a", _neg_gradient(rho, w, u), basis).real
        b_eig = u.conj().T @ basis @ u
        weight = _log_dd2(w) * (u.conj().T @ rho @ u).T[:, None, :]
        k = np.einsum("ijk,aij,bjk->ab", weight, b_eig, b_eig)
        hess = -t * (k + k.T).real
        for block, block_basis in ((omega, basis), (omega_pt, basis_pt)):
            inv_b = np.linalg.inv(block) @ block_basis
            grad -= np.einsum("aii->a", inv_b).real
            hess += np.einsum("aij,bji->ab", inv_b, inv_b).real
        return np.linalg.solve(hess, -grad), grad

    x = np.zeros(len(basis))
    t = 1.0
    trace: list[tuple[int, float, float]] = []
    status = "iteration-cap"
    for it in range(opts.max_iter + 1):
        value, point = evaluate(x, t)
        centred = False
        for _ in range(_NEWTON_STEPS):
            try:
                step, grad = newton_step(t, *point[:4])
            except np.linalg.LinAlgError:
                break
            decrement = float(-grad @ step)
            if decrement <= _NEWTON_DECREMENT_TOL:
                centred = True
                break
            alpha = 1.0
            while alpha > 1e-12:
                trial_value, trial = evaluate(x + alpha * step, t)
                accept = trial_value <= value - 0.25 * alpha * decrement
                if trial is not None and (accept or decrement < _FULL_STEP_DECREMENT):
                    break
                alpha /= 2.0
            else:
                break
            x, value, point = x + alpha * step, trial_value, trial
        gap = _BARRIER_NU / t
        if not centred and status == "converged":
            break
        final = point
        trace.append((it, point[4], gap))
        if not centred:
            status = "stalled"
            break
        if gap <= opts.gap_tol:
            status = "converged"
        if gap <= opts.gap_tol / _BARRIER_MARGIN or it == opts.max_iter:
            break
        t *= _BARRIER_GROWTH

    argmin = _product_split(final[0])
    w, u = np.linalg.eigh(argmin.matrix())
    value = max(_objective(rho, s_rho, w, u), 0.0)
    return EreResult(value=value, argmin=argmin, convergence=tuple(trace), status=status)


def _preconcurrence(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes V with matrix = V V^dag and tau = V^T (sigma_y (x) sigma_y) V.

    The singular values of the complex symmetric tau are Wootters' lambda_i,
    the square roots of the eigenvalues of rho (sigma_y (x) sigma_y) rho^*
    (sigma_y (x) sigma_y).
    """
    w, u = np.linalg.eigh(matrix)
    v = u * np.sqrt(np.clip(w, 0.0, None))
    return v, v.T @ _YY @ v


def _wootters_eof(matrix: np.ndarray) -> float:
    """Closed-form two-qubit entanglement of formation in nats (Wootters 1998)."""
    lam = np.linalg.svd(_preconcurrence(matrix)[1], compute_uv=False)
    c = min(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), 1.0)
    return binary_entropy((1.0 - math.sqrt(1.0 - c * c)) / 2.0).nats


def _product_split(omega: np.ndarray) -> SeparableMixture:
    """Wootters' decomposition of a zero-concurrence two-qubit state.

    Takagi-factorizes tau = U diag(lambda) U^T, so the kets x = V conj(U)
    satisfy x_i^T Y x_j = lambda_i delta_ij. Phases e^{i theta_j / 2} close
    sum_j e^{i theta_j} lambda_j = 0 (a triangle with sides lambda_1,
    lambda_2 and lambda_3 + lambda_4, which exists when the concurrence is
    zero), and the Hadamard mix of the phased kets gives four kets with
    z^T Y z = 0, i.e. product kets, whose projectors sum to omega.
    """
    v, tau = _preconcurrence(omega)
    # Takagi vectors from the real symmetric embedding [[Re, Im], [Im, -Re]]:
    # its eigenvector [p; q] for lambda >= 0 gives tau conj(p + iq) = lambda (p + iq)
    lam, vecs = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    lam = lam[4:][::-1]
    takagi = (vecs[:4, 4:] + 1j * vecs[4:, 4:])[:, ::-1]
    x = v @ takagi.conj()

    a, b, c = lam[0], lam[1], lam[2] + lam[3]
    # angle between sides a and b by the half-angle formula; acos of the
    # law of cosines loses every digit near a degenerate triangle (C = 0)
    corner = 2.0 * math.atan2(math.sqrt(max((b + c - a) * (a + c - b), 0.0)),
                              math.sqrt(max((a + b + c) * (a + b - c), 0.0)))
    beta = math.pi - corner
    gamma = float(np.angle(-(a + b * np.exp(1j * beta))))
    z = (x * np.exp(0.5j * np.array([0.0, beta, gamma, gamma]))) @ _HADAMARD4

    terms = []
    for k in range(4):
        left, sv, right = np.linalg.svd(z[:, k].reshape(2, 2))
        if sv[0] > 1e-15:
            terms.append((sv[0] ** 2, left[:, 0], right[0]))
    total = sum(p for p, _, _ in terms)
    return SeparableMixture(tuple((p / total, ka, kb) for p, ka, kb in terms))


def _pruned_terms(weights, kets, cap: int):
    """Drop negligible weights; apply the term cap only when the tail it
    would discard is itself negligible (the iterate can genuinely need many
    vertices, and misreporting the argmin is worse than a long list)."""
    order = np.argsort(weights)[::-1]
    kept = [i for i in order if weights[i] > 1e-12]
    if len(kept) > cap and sum(weights[i] for i in kept[cap:]) <= 1e-9:
        kept = kept[:cap]
    total = sum(weights[i] for i in kept)
    return tuple((weights[i] / total, kets[i][0], kets[i][1]) for i in kept)


# ---------------------------------------------------------------------------
# Entanglement of creation (decomposition optimization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EocResult:
    """Minimized average branch entanglement and the achieving decomposition."""

    value: float
    decomposition: tuple[tuple[float, np.ndarray], ...]
    # On 2x2, "converged" means value is within gap_tol of Wootters' closed
    # form (``gap`` holds the difference); otherwise the run ends "stalled"
    # (descent settled above it) or "step-cap". On larger factors there is no
    # certificate: "converged" only means the descent settled, and gap is None
    # (a pure state is exact in every dimension, with gap 0).
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

    ``y`` has shape (..., K, d); branch weights are the squared norms. The
    2x2 case uses the closed-form singular values; larger factors fall back
    to batched SVD.
    """
    d_a, d_b = dims
    c = y.reshape(y.shape[:-1] + (d_a, d_b))
    p = np.sum(np.abs(y) ** 2, axis=-1)
    if d_a == 2 and d_b == 2:
        det = c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]
        disc = np.sqrt(np.clip(p**2 - 4.0 * np.abs(det) ** 2, 0.0, None))
        lam_small = (p - disc) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(p > 1e-15, lam_small / np.where(p > 1e-15, p, 1.0), 0.0)
        x = np.clip(x, 0.0, 0.5)
        ent = np.zeros_like(x)
        pos = (x > 0.0) & (x < 1.0)
        xp = x[pos]
        ent[pos] = -xp * np.log(xp) - (1.0 - xp) * np.log(1.0 - xp)
        return np.sum(p * ent, axis=-1)
    sv = np.linalg.svd(c, compute_uv=False)
    sq = sv**2
    with np.errstate(divide="ignore", invalid="ignore"):
        q = sq / np.where(p[..., None] > 1e-15, p[..., None], 1.0)
    q = np.clip(q, 0.0, 1.0)
    ent = -np.sum(np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0), axis=-1)
    return np.sum(p * ent, axis=-1)


def _random_isometries(gen: np.random.Generator, n: int, k: int, r: int) -> np.ndarray:
    g = gen.normal(size=(n, k, r)) + 1j * gen.normal(size=(n, k, r))
    q, _ = np.linalg.qr(g)
    return q


def entanglement_of_creation(rho: DensityOperator,
                             opts: SolverOptions | None = None) -> EocResult:
    """Minimize the average reduced entropy over pure-state decompositions.

    Every length-K decomposition of rho arises as an isometry mix of its
    eigen-ensemble; the optimizer sweeps K from the rank r up to r^2, running
    batched random-restart descent (random isometry perturbations with step
    halving) for each K. The value is the average branch entanglement of the
    returned decomposition, hence an upper bound on the true minimum.

    On 2x2, Wootters' closed form is the stopping certificate: the descent and
    the K sweep stop once the best cost is within opts.gap_tol of it, and only
    then is the status "converged". On larger factors the descent is
    uncertified, and the status says whether the step sizes collapsed (a local
    optimum, "converged") or the step cap intervened ("step-cap").
    """
    opts = opts or SolverOptions()
    dims = _bipartite_dims(rho, opts.max_factor_dim)
    lam, vecs = hermitian_eig(rho.matrix)
    keep = lam > EIG_FLOOR
    lam, vecs = lam[keep], vecs[:, keep]
    r = int(lam.size)
    amplitudes = vecs * np.sqrt(lam)  # (d, r), rho = W W^dag

    if r == 1:
        psi = amplitudes[:, 0] / np.linalg.norm(amplitudes[:, 0])
        value = entropy_of_entanglement(psi, dims).nats
        return EocResult(value=value, decomposition=((1.0, psi),), status="converged", gap=0.0)

    target = _wootters_eof(rho.matrix) if dims == (2, 2) else None
    stop_at = -math.inf if target is None else target + opts.gap_tol
    gen = np.random.default_rng(opts.seed)
    best_value = math.inf
    best_y: np.ndarray | None = None
    converged = False
    since_improved = 0
    for k in range(r, r * r + 1):
        value_k, y_k, done_k = _eoc_descent(amplitudes, dims, k, gen, opts, stop_at)
        if value_k < best_value - 1e-9:
            best_value, best_y, converged = value_k, y_k, done_k
            since_improved = 0
        else:
            since_improved += 1
        if best_value <= stop_at or since_improved >= 3:
            break

    terms = []
    for i in range(best_y.shape[0]):
        p = float(np.sum(np.abs(best_y[i]) ** 2))
        if p > 1e-12:
            terms.append((p, best_y[i] / math.sqrt(p)))
    total = sum(p for p, _ in terms)
    terms = tuple((p / total, psi) for p, psi in terms)
    value = max(best_value, 0.0)
    if target is None:
        return EocResult(value=value, decomposition=terms,
                         status="converged" if converged else "step-cap")
    if value <= stop_at:
        status = "converged"
    else:
        status = "stalled" if converged else "step-cap"
    return EocResult(value=value, decomposition=terms, status=status, gap=value - target)


def _eoc_descent(amplitudes: np.ndarray, dims: tuple[int, int], k: int,
                 gen: np.random.Generator, opts: SolverOptions,
                 stop_at: float) -> tuple[float, np.ndarray, bool]:
    """Batched random-restart local descent over K x r isometries.

    Stops early once the best cost reaches stop_at; the flag is False only
    when opts.eoc_max_steps ran out.
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
        if not active.any() or current.min() <= stop_at:
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

def purification_bound(rho: DensityOperator, n_target: int, ere: EreResult) -> float:
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
    dims = _bipartite_dims(rho)
    single: float | None = None
    lam, vecs = hermitian_eig(rho.matrix)
    if dims == (2, 2) and lam[0] > 1.0 - 1e-9:
        single = single_shot_probability(vecs[:, 0], dims)
    return PurificationReport(
        n_target=n_target,
        ensemble_bound=purification_bound(rho, n_target, ere),
        single_shot=single,
        schumacher=schumacher_rate(rho, n_target),
    )
