"""Builders that only the tests use: random unitaries and separable
mixtures, the density operator or ket that a mixture or Schmidt form stands
for, and matrices and states drawn by hypothesis."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from erasure_lab.entanglement import SchmidtForm, SeparableMixture
from erasure_lab.linalg import DensityOperator, TensorSpace
from erasure_lab.sampling import random_ket


def random_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix with R's phases removed."""
    g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_product_terms(gen: np.random.Generator, dim_a: int, dim_b: int,
                         n_terms: int) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Weights and product kets for a random separable mixture."""
    w = gen.dirichlet(np.ones(n_terms))
    return [(float(w[i]), random_ket(gen, dim_a), random_ket(gen, dim_b))
            for i in range(n_terms)]


def assemble(mixture: SeparableMixture, space: TensorSpace | None = None) -> DensityOperator:
    """The mixture as a density operator, on A (x) B unless a space is given."""
    if space is None:
        space = TensorSpace.bipartite(*mixture.dims)
    return DensityOperator(space, mixture.matrix())


def reconstruct(form: SchmidtForm) -> np.ndarray:
    """The ket sum_k c_k left_k (x) right_k."""
    out = np.zeros(form.left.shape[0] * form.right.shape[0], dtype=complex)
    for k in range(form.rank):
        out += form.coefficients[k] * np.kron(form.left[:, k], form.right[:, k])
    return out


def draw_matrix(data, d: int) -> np.ndarray:
    """A d x d complex matrix with real and imaginary parts in [-1, 1]."""
    floats = st.floats(-1.0, 1.0)
    g = np.reshape(data.draw(st.lists(floats, min_size=2 * d * d, max_size=2 * d * d)), (2, d, d))
    return g[0] + 1j * g[1]


def draw_state(data, d: int, space: TensorSpace | None = None,
               identity_weight: float = 0.0) -> DensityOperator:
    """G G^dag + identity_weight I, normalised; identity_weight > 0 keeps it full rank."""
    g = draw_matrix(data, d)
    m = g @ g.conj().T + identity_weight * np.eye(d)
    assume(np.trace(m).real > 1e-3)
    return DensityOperator.from_matrix(m / np.trace(m).real, space)
