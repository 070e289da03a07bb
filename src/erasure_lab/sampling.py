"""Seeded random generators for states and Hamiltonians.

Used by the self-test command and the test suite; all functions take an
explicit ``numpy.random.Generator`` so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .linalg import DensityOperator, TensorSpace

__all__ = [
    "rng",
    "random_ket",
    "random_density",
    "random_hermitian",
]


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_ket(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(gen: np.random.Generator, dim: int, rank: int | None = None,
                   space: TensorSpace | None = None) -> DensityOperator:
    """Wishart-style random state: G G^dag normalized, G of shape (dim, rank)."""
    rank = dim if rank is None else rank
    g = gen.normal(size=(dim, rank)) + 1j * gen.normal(size=(dim, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator.from_matrix(m, space)


def random_hermitian(gen: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2.0
