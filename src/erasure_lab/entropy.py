"""Entropy functionals with a single internal unit (nats, k_B = 1).

Support violations in relative-entropy-like quantities are reported through an
explicit infinity marker rather than a large float, so optimizers can treat
infeasible reference states as infinitely bad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
# hermitian_eig is not called here; the benchmark tracer patches it by name.
from .linalg import EIG_FLOOR, PSD_TOL, DensityOperator, hermitian_eig  # noqa: F401

__all__ = [
    "EntropyValue",
    "von_neumann_entropy",
    "relative_entropy",
    "cross_term_eig",
    "spectrum_entropy",
    "mutual_information",
    "shannon_entropy",
    "binary_entropy",
]

# Eigenvalues of omega at or below this fraction of probability mass count as
# kernel; rho leaking more than this onto the kernel is a support violation.
SUPPORT_OVERLAP_TOL = 1e-9


@dataclass(frozen=True)
class EntropyValue:
    """Nonnegative entropy in nats; ``math.inf`` marks a support violation."""

    nats: float

    def __post_init__(self):
        if not (self.nats >= 0.0):  # also rejects NaN
            raise InputError(f"entropy must be nonnegative, got {self.nats}")

    @property
    def infinite(self) -> bool:
        return math.isinf(self.nats)

    def to_json(self) -> dict:
        if self.infinite:
            return {"infinite": True}
        return {"nats": self.nats}


INFINITE = EntropyValue(math.inf)


def _clamp(value, slack: float = 1e-9) -> np.ndarray:
    """Round tiny negatives (eigensolver noise) up to zero, elementwise."""
    value = np.asarray(value, dtype=float)
    if value.min() < -slack:
        raise InputError(f"entropy came out {value.min()}, below the numerical slack {-slack}")
    return np.maximum(value, 0.0)  # also turns -0.0 into 0.0


def _clamped(value: float) -> EntropyValue:
    return EntropyValue(float(_clamp(value)))


def spectrum_entropy(lam: np.ndarray) -> np.ndarray:
    """-sum p ln p over the last axis of ``lam`` (..., d), with 0 ln 0 = 0.

    Entries in [-PSD_TOL, 0) count as zero and a lower entry raises; a result
    below zero by rounding is clamped to zero.
    """
    if lam.min() < -PSD_TOL:
        raise InputError(f"negative probability {lam.min()} in entropy evaluation")
    p = np.maximum(lam, 0.0)
    return _clamp(-(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1))


def von_neumann_entropy(rho: DensityOperator) -> EntropyValue:
    """S(rho) = -tr(rho ln rho) in nats, with 0 ln 0 = 0."""
    return EntropyValue(float(spectrum_entropy(rho.eigenvalues)))


def cross_term_eig(rho: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """-tr(rho ln omega) from omega's eigensystem, batched over leading axes.

    ``rho`` is (..., d, d), ``w`` (..., d) holds the eigenvalues and ``u``
    (..., d, d) the eigenvectors as columns; the leading axes broadcast.
    Eigenvalues at or below EIG_FLOOR are omega's kernel; where rho puts more
    than SUPPORT_OVERLAP_TOL of its mass there, the value is inf.
    """
    mass = np.maximum(np.einsum("...ik,...ij,...jk->...k", u.conj(), rho, u).real, 0.0)
    kernel = w <= EIG_FLOOR
    value = -(mass * np.log(np.where(kernel, 1.0, w))).sum(axis=-1)
    return np.where((mass * kernel).sum(axis=-1) > SUPPORT_OVERLAP_TOL, math.inf, value)


def relative_entropy(rho: DensityOperator, omega: DensityOperator) -> EntropyValue:
    """Quantum relative entropy S(rho || omega) = -tr(rho ln omega) - S(rho)."""
    if rho.dim != omega.dim:
        raise InputError(f"dimension mismatch: {rho.dim} vs {omega.dim}")
    value = float(cross_term_eig(rho.matrix, omega.eigenvalues, omega.eigenvectors))
    if math.isinf(value):
        return INFINITE
    return _clamped(value - von_neumann_entropy(rho).nats)


def mutual_information(rho: DensityOperator, cut: tuple) -> EntropyValue:
    """I(S:A) = S(rho_S) + S(rho_A) - S(rho) across a two-block partition of the labels."""
    left, right = (set(cut[0]), set(cut[1]))
    labels = set(rho.space.labels)
    if left | right != labels or left & right or not left or not right:
        raise InputError(
            f"cut ({sorted(left)}, {sorted(right)}) does not partition labels {sorted(labels)}"
        )
    s_left = von_neumann_entropy(rho.reduced(left)).nats
    s_right = von_neumann_entropy(rho.reduced(right)).nats
    s_joint = von_neumann_entropy(rho).nats
    return _clamped(s_left + s_right - s_joint)


def shannon_entropy(p) -> EntropyValue:
    """-sum p_i ln p_i for a probability vector (sum within 1e-9 of 1)."""
    arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.size == 0:
        raise InputError("empty probability vector")
    if not abs(arr.sum() - 1.0) <= 1e-9:  # also rejects NaN
        raise InputError(f"probabilities sum to {arr.sum()}, not 1")
    return EntropyValue(float(spectrum_entropy(arr)))


def binary_entropy(x: float) -> EntropyValue:
    if not (-1e-12 <= x <= 1.0 + 1e-12):
        raise InputError(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return shannon_entropy([x, 1.0 - x])
