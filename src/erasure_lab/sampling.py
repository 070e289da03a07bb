"""Seeded random generators for states and Hamiltonians.

Used by the self-test command and the test suite; all functions take an
explicit ``numpy.random.Generator`` so runs are reproducible. The matrix
formulas (``wishart_state``, ``hermitian_part``) act on stacks (..., n, m) of
Gaussian matrices, so a batch drawn with one ``complex_gaussian`` call gives
the same matrices as drawing them one by one.
"""

from __future__ import annotations

import numpy as np

from .linalg import DensityOperator, TensorSpace

__all__ = [
    "rng",
    "random_ket",
    "random_density",
    "random_hermitian",
    "complex_gaussian",
    "wishart_state",
    "hermitian_part",
]


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_ket(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return v / np.linalg.norm(v)


def complex_gaussian(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussian matrices of shape (..., n, m), each drawn as its real
    then its imaginary part, in the order of the leading axes."""
    x = gen.normal(size=(*shape[:-2], 2, *shape[-2:]))
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def wishart_state(g: np.ndarray) -> np.ndarray:
    """G G^dag normalized to unit trace, for each G of a stack (..., dim, rank)."""
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def hermitian_part(g: np.ndarray) -> np.ndarray:
    """(G + G^dag) / 2 for each G of a stack (..., dim, dim)."""
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def random_density(gen: np.random.Generator, dim: int, rank: int | None = None,
                   space: TensorSpace | None = None) -> DensityOperator:
    """Wishart-style random state: G G^dag normalized, G of shape (dim, rank)."""
    rank = dim if rank is None else rank
    return DensityOperator.from_matrix(wishart_state(complex_gaussian(gen, (dim, rank))), space)


def random_hermitian(gen: np.random.Generator, dim: int) -> np.ndarray:
    return hermitian_part(complex_gaussian(gen, (dim, dim)))
