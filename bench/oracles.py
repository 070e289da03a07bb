"""Reference computations that share no code with ``erasure_lab``.

Every function here is written from the textbook formula with plain numpy,
so a fault in the package's solvers or eigen kernel cannot hide in its own
check. Entropies are in nats.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
_SIGMA_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -tr(rho ln rho) from numpy's eigvalsh."""
    lam = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log(lam)))


def shannon(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def binary_entropy(x: float) -> float:
    return shannon([x, 1.0 - x])


def partial_traces(rho: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(rho_A, rho_B) of a state on A (x) B, first factor most significant."""
    d_a, d_b = dims
    t = rho.reshape(d_a, d_b, d_a, d_b)
    return np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)


def partial_transpose(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    d_a, d_b = dims
    return rho.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)


def min_pt_eigenvalue(rho: np.ndarray, dims: tuple[int, int]) -> float:
    """Smallest eigenvalue of the partial transpose; >= 0 means PPT."""
    pt = partial_transpose(rho, dims)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0])


def concurrence(rho: np.ndarray) -> float:
    """Wootters' concurrence from the eigenvalues of rho (Y(x)Y) rho^* (Y(x)Y).

    They are taken as the eigenvalues of the similar Hermitian matrix
    sqrt(rho) (Y(x)Y) rho^* (Y(x)Y) sqrt(rho); their square roots in
    descending order give C = max(0, l1 - l2 - l3 - l4). An eigenvalue at
    rounding level eps becomes sqrt(eps) ~ 1.5e-8 under the root, which
    bounds this oracle's accuracy on rank-deficient states.
    """
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = root @ _SIGMA_YY @ rho.conj() @ _SIGMA_YY @ root
    lam = np.sqrt(np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2.0), 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def wootters_eof(rho: np.ndarray) -> float:
    """Two-qubit entanglement of formation h((1 + sqrt(1 - C^2)) / 2)."""
    c = min(concurrence(rho), 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def bell_diagonal_ere(weights) -> float:
    """E_RE of a Bell-diagonal state (Vedral & Plenio 1998): ln 2 - h(l_max)
    when the largest Bell weight is at least 1/2, and 0 otherwise."""
    top = float(np.max(weights))
    return LN2 - binary_entropy(top) if top >= 0.5 else 0.0


def ere_lower_bound(rho: np.ndarray, dims: tuple[int, int]) -> float:
    """E_RE >= max(S_A, S_B) - S(rho) (Plenio, Virmani & Papadopoulos 2000)."""
    rho_a, rho_b = partial_traces(rho, dims)
    return max(entropy(rho_a), entropy(rho_b)) - entropy(rho)


def gibbs_cross_entropy(rho: np.ndarray, hamiltonian: np.ndarray, beta: float) -> tuple[float, float]:
    """(-tr rho ln omega, S(omega)) for omega = exp(-beta H) / Z.

    ln omega = V diag(-beta e - ln Z) V^dag from numpy's eigh of H.
    """
    e, v = np.linalg.eigh(hamiltonian)
    log_z = float(np.log(np.sum(np.exp(-beta * (e - e.min())))) - beta * e.min())
    log_q = -beta * e - log_z
    populations = np.real(np.einsum("ik,ij,jk->k", v.conj(), rho, v))
    return float(-populations @ log_q), float(-np.exp(log_q) @ log_q)


def mixture_matrix(terms) -> np.ndarray:
    """sum_i p_i |a_i b_i><a_i b_i| for (p, a, b) triples."""
    out = 0
    for p, ket_a, ket_b in terms:
        ket = np.kron(ket_a, ket_b)
        out = out + p * np.outer(ket, ket.conj())
    return out


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma); inf when rho has weight outside sigma's support."""
    w, v = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    populations = np.real(np.einsum("ik,ij,jk->k", v.conj(), rho, v))
    kernel = w <= 1e-13
    if populations[kernel].sum() > 1e-9:
        return math.inf
    return float(-populations[~kernel] @ np.log(w[~kernel])) - entropy(rho)


def decomposition_matrix(branches) -> np.ndarray:
    """sum_i p_i |psi_i><psi_i| for (p, psi) pairs."""
    return sum(p * np.outer(psi, psi.conj()) for p, psi in branches)


def branch_entanglement(branches, dims: tuple[int, int]) -> float:
    """sum_i p_i E(psi_i), each E from the SVD of the coefficient matrix."""
    total = 0.0
    for p, psi in branches:
        sv = np.linalg.svd(np.asarray(psi).reshape(dims), compute_uv=False)
        q = sv**2 / np.sum(sv**2)
        total += p * shannon(q)
    return total


def schmidt_probabilities(psi: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    sv = np.linalg.svd(np.asarray(psi).reshape(dims), compute_uv=False)
    return sv**2 / np.sum(sv**2)
