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
from .linalg import EIG_FLOOR, PSD_TOL, DensityOperator, hermitian_eig

__all__ = [
    "LN2",
    "EntropyValue",
    "von_neumann_entropy",
    "relative_entropy",
    "cross_term",
    "cross_term_eig",
    "mutual_information",
    "shannon_entropy",
    "binary_entropy",
]

LN2 = math.log(2.0)

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

    @property
    def bits(self) -> float:
        return self.nats / LN2

    def value_in(self, unit: str) -> float:
        if unit == "nats":
            return self.nats
        if unit == "bits":
            return self.bits
        raise InputError(f"unknown entropy unit {unit!r}")

    def to_json(self) -> dict:
        if self.infinite:
            return {"infinite": True}
        return {"nats": self.nats}

    @staticmethod
    def from_json(obj: dict) -> "EntropyValue":
        if obj.get("infinite"):
            return EntropyValue(math.inf)
        return EntropyValue(float(obj["nats"]))


INFINITE = EntropyValue(math.inf)


def _clamped(value: float, slack: float = 1e-9) -> EntropyValue:
    """Round tiny negatives (eigensolver noise) up to zero."""
    if value < -slack:
        raise InputError(f"entropy came out {value}, below the numerical slack {-slack}")
    return EntropyValue(value if value > 0.0 else 0.0)


def _entropy_of_eigenvalues(lam: np.ndarray) -> float:
    lam = np.where((lam < 0.0) & (lam >= -PSD_TOL), 0.0, lam)
    if lam.min() < 0.0:
        raise InputError(f"negative probability {lam.min()} in entropy evaluation")
    pos = lam[lam > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def von_neumann_entropy(rho: DensityOperator) -> EntropyValue:
    """S(rho) = -tr(rho ln rho) in nats, with 0 ln 0 = 0."""
    lam, _ = hermitian_eig(rho.matrix)
    return _clamped(_entropy_of_eigenvalues(lam))


def cross_term_eig(rho: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """-tr(rho ln omega) from omega's eigensystem, batched over leading axes.

    ``w`` (..., d) holds the eigenvalues and ``u`` (..., d, d) the
    eigenvectors as columns. Eigenvalues at or below EIG_FLOOR are omega's
    kernel; where rho puts more than SUPPORT_OVERLAP_TOL of its mass there,
    the value is inf.
    """
    mass = np.clip(np.real(np.einsum("...ik,ij,...jk->...k", u.conj(), rho, u)), 0.0, None)
    kernel = w <= EIG_FLOOR
    value = -(mass * np.log(np.where(kernel, 1.0, w))).sum(axis=-1)
    return np.where((mass * kernel).sum(axis=-1) > SUPPORT_OVERLAP_TOL, math.inf, value)


def _cross_term_nats(rho: DensityOperator, omega: DensityOperator) -> float:
    """-tr(rho ln omega); math.inf when rho leaks outside omega's support."""
    if rho.dim != omega.dim:
        raise InputError(f"dimension mismatch: {rho.dim} vs {omega.dim}")
    return float(cross_term_eig(rho.matrix, *hermitian_eig(omega.matrix)))


def cross_term(rho: DensityOperator, omega: DensityOperator) -> EntropyValue:
    """Erasure cost term -tr(rho ln omega) in nats."""
    value = _cross_term_nats(rho, omega)
    return INFINITE if math.isinf(value) else _clamped(value)


def relative_entropy(rho: DensityOperator, omega: DensityOperator) -> EntropyValue:
    """Quantum relative entropy S(rho || omega) = -tr(rho ln omega) - S(rho)."""
    value = _cross_term_nats(rho, omega)
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
    return _clamped(_entropy_of_eigenvalues(arr))


def binary_entropy(x: float) -> EntropyValue:
    if not (-1e-12 <= x <= 1.0 + 1e-12):
        raise InputError(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return shannon_entropy([x, 1.0 - x])
