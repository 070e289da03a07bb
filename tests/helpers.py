"""Builders that only the tests use: random separable mixtures, and the
density operator or ket that a mixture or Schmidt form stands for."""

import numpy as np

from erasure_lab.entanglement import SchmidtForm, SeparableMixture
from erasure_lab.linalg import DensityOperator, TensorSpace
from erasure_lab.sampling import random_ket


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
