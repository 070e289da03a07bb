"""Dense complex linear algebra over labeled tensor-product spaces.

Everything in this module is a pure function over immutable values: matrices
are numpy arrays treated as read-only, spaces and density operators are frozen
dataclasses, and a density operator holds the spectrum it was validated with in
read-only arrays. Composite indices are row-major with the first tensor factor
most significant, so ``|i>|j>`` of dims ``(da, db)`` sits at flat index
``i*db + j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = [
    "TensorSpace",
    "DensityOperator",
    "partial_trace",
    "hermitian_eig",
    "density_eig",
    "matrix_from_json",
    "vector_from_json",
]

# Validation thresholds of ``hermitian_eig`` and ``DensityOperator``.
HERMITICITY_TOL = 1e-10
UNIT_TRACE_TOL = 1e-10
PSD_TOL = 1e-10
# Eigenvalues at or below this count as outside the support.
EIG_FLOOR = 1e-12


def _as_square_array(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class TensorSpace:
    """Ordered tensor factors, each a (label, dimension) pair with unique labels."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise InputError(f"factor labels must be unique, got {labels}")
        for lab, d in self.factors:
            if not isinstance(d, int) or d < 1:
                raise InputError(f"factor {lab!r} has non-positive dimension {d}")

    @staticmethod
    def of(*factors: tuple[str, int]) -> "TensorSpace":
        return TensorSpace(tuple((str(lab), int(d)) for lab, d in factors))

    @staticmethod
    def single(label: str, dim: int) -> "TensorSpace":
        return TensorSpace.of((label, dim))

    @staticmethod
    def bipartite(dim_a: int, dim_b: int, labels: tuple[str, str] = ("A", "B")) -> "TensorSpace":
        return TensorSpace.of((labels[0], dim_a), (labels[1], dim_b))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        return int(math.prod(self.dims)) if self.factors else 1

    def subspace(self, keep) -> "TensorSpace":
        """Sub-space of the kept labels, preserving the original factor order."""
        keep = set(keep)
        unknown = keep - set(self.labels)
        if unknown:
            raise InputError(f"unknown factor labels {sorted(unknown)}; have {self.labels}")
        return TensorSpace(tuple((lab, d) for lab, d in self.factors if lab in keep))


@dataclass(frozen=True)
class DensityOperator:
    """Positive-semidefinite unit-trace operator over a labeled tensor space.

    Construction validates Hermiticity, unit trace and positivity to the
    module thresholds ``HERMITICITY_TOL``, ``UNIT_TRACE_TOL`` and ``PSD_TOL``.
    The positivity check's ``density_eig`` is kept as ``eigenvalues``
    (descending) and ``eigenvectors`` (columns), so consumers diagonalise
    nothing; these and a private copy of ``matrix`` are read-only.
    """

    space: TensorSpace
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(_as_square_array(self.matrix))
        if m.shape[0] != self.space.dim:
            raise InputError(
                f"matrix dimension {m.shape[0]} does not match space dimension {self.space.dim}"
            )
        lam, vecs = density_eig(m)
        for name, a in (("matrix", m), ("eigenvalues", lam), ("eigenvectors", vecs)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @staticmethod
    def from_matrix(m, space: TensorSpace | None = None) -> "DensityOperator":
        a = _as_square_array(m)
        if space is None:
            space = TensorSpace.single("q", a.shape[0])
        return DensityOperator(space, a)

    @staticmethod
    def from_ket(vec, space: TensorSpace | None = None) -> "DensityOperator":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-9:
            raise InputError(f"ket must be unit-norm, got |v| = {n}")
        v = v / n
        return DensityOperator.from_matrix(np.outer(v, v.conj()), space)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def reduced(self, keep) -> "DensityOperator":
        return partial_trace(self, keep)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced density operator on the kept factors (original order preserved).

    ``keep`` may be any iterable of factor labels; tracing over everything
    (empty ``keep``) gives the scalar 1 on an empty space.
    """
    space = rho.space
    keep_set = set(keep)
    unknown = keep_set - set(space.labels)
    if unknown:
        raise InputError(f"unknown factor labels {sorted(unknown)}; have {space.labels}")

    dims = space.dims
    k = len(dims)
    t = rho.matrix.reshape(dims + dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * k > len(letters):
        raise InputError("too many tensor factors")
    row = list(letters[:k])
    col = list(letters[k : 2 * k])
    out = []
    for i, (lab, _) in enumerate(space.factors):
        if lab in keep_set:
            out.append(i)
        else:
            col[i] = row[i]  # repeated index -> traced out
    subscript = "".join(row) + "".join(col) + "->" + "".join(row[i] for i in out) + "".join(
        col[i] for i in out
    )
    reduced = np.einsum(subscript, t)
    d_keep = int(math.prod(dims[i] for i in out)) if out else 1
    reduced = reduced.reshape(d_keep, d_keep)
    return DensityOperator(space.subspace(keep_set), reduced)


def _stack_member(ok: np.ndarray) -> str:
    """Names the first failing member of a stack; empty for a single matrix."""
    return f" (stack member {np.argwhere(~ok)[0].tolist()})" if ok.ndim else ""


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or a stack (..., d, d) of them,
    by LAPACK (``numpy.linalg.eigh``).

    Returns (eigenvalues descending, eigenvectors as orthonormal columns).
    Each matrix must be Hermitian to ``HERMITICITY_TOL``; its Hermitian part
    is what gets diagonalised.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    a_dag = a.conj().swapaxes(-1, -2)
    dev = np.abs(a - a_dag).max(axis=(-2, -1), initial=0.0)
    ok = dev <= HERMITICITY_TOL  # also rejects NaN
    if not ok.all():
        raise InputError(
            f"matrix is not Hermitian: max |M - M^dag| = {dev[~ok].flat[0]:.3e} > "
            f"{HERMITICITY_TOL:.1e}{_stack_member(ok)}"
        )
    lam, v = np.linalg.eigh((a + a_dag) / 2.0)
    return lam[..., ::-1], v[..., ::-1]


def density_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """``hermitian_eig`` of a density matrix, or a stack (..., d, d) of them.

    Each matrix must also have unit trace to ``UNIT_TRACE_TOL`` and no
    eigenvalue below ``-PSD_TOL``; the first member of a stack that fails a
    check is named in the ``InputError``.
    """
    lam, vecs = hermitian_eig(m)
    tr = np.trace(m, axis1=-2, axis2=-1)
    ok = abs(tr - 1.0) <= UNIT_TRACE_TOL
    if not ok.all():
        raise InputError(f"trace must be 1, got {complex(tr[~ok].flat[0])}{_stack_member(ok)}")
    low = lam[..., -1]
    ok = low >= -PSD_TOL
    if not ok.all():
        raise InputError(f"matrix is not positive semidefinite: min eigenvalue "
                         f"{low[~ok].flat[0]:.3e}{_stack_member(ok)}")
    return lam, vecs


def _require_finite(re: np.ndarray, im: np.ndarray, kind: str) -> None:
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise InputError(f"{kind} literal has a non-finite entry (NaN or Infinity)")


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix literal: {exc}") from exc
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InputError(
            f"matrix literal shape mismatch: dim={dim}, re {re.shape}, im {im.shape}"
        )
    _require_finite(re, im, "matrix")
    return re + 1j * im


def vector_from_json(obj: dict) -> np.ndarray:
    try:
        re = np.asarray(obj["re"], dtype=float).reshape(-1)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed vector literal: {exc}") from exc
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float).reshape(-1)
    if im.shape != re.shape:
        raise InputError("vector literal re/im length mismatch")
    _require_finite(re, im, "vector")
    return re + 1j * im
