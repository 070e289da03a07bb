"""Gibbs states, free energies, reservoir-based erasure accounting and a
collision-model approach to equilibrium.

Units: k_B = 1 and one fixed energy unit, so temperature enters only as
1/beta and every identity below is dimensionless and exactly testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyValue, von_neumann_entropy
from .errors import InputError
from .linalg import DensityOperator, TensorSpace, hermitian_eig

__all__ = [
    "HamiltonianSpec",
    "ErasureReport",
    "CollisionTrace",
    "gibbs_log_weights",
    "gibbs_state",
    "free_energies",
    "free_energy",
    "erasure_terms",
    "erasure_entropy",
    "collision_step",
    "thermalize",
    "trace_distance",
]

LANDAUER_SLACK = 1e-9


def gibbs_log_weights(energies: np.ndarray, beta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln Z, q, ln q) for energies (..., d) at inverse temperatures beta (...).

    q_j = e^(-beta e_j) / Z are the Gibbs weights; the log-sum-exp shift keeps
    large beta values stable, and ln q_j = -beta e_j - ln Z stays exact where
    q_j underflows.
    """
    beta = np.asarray(beta, dtype=float)[..., None]
    e_min = energies.min(axis=-1, keepdims=True)
    boltzmann = np.exp(-beta * (energies - e_min))
    total = boltzmann.sum(axis=-1, keepdims=True)
    log_partition = np.log(total) - beta * e_min
    return log_partition[..., 0], boltzmann / total, -beta * energies - log_partition


class HamiltonianSpec:
    """Hermitian Hamiltonian plus inverse temperature beta.

    Derived quantities (temperature, log partition function, Gibbs weights
    and their logarithms) are computed once at construction by
    ``gibbs_log_weights``.
    """

    def __init__(self, matrix, beta: float):
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.ndim != 2:
            raise InputError(f"expected a square matrix, got shape {self.matrix.shape}")
        energies, frame = hermitian_eig(self.matrix)  # checks Hermiticity
        if not beta > 0.0:
            raise InputError(f"beta must be positive, got {beta}")
        self.beta = float(beta)
        self.energies = energies  # descending
        self.frame = frame
        log_partition, self.gibbs_weights, self.gibbs_log_weights = gibbs_log_weights(energies, beta)
        self.log_partition = float(log_partition)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta



def gibbs_state(h: HamiltonianSpec, space: TensorSpace | None = None) -> DensityOperator:
    """Thermal equilibrium state e^(-beta H)/Z; always full rank."""
    m = (h.frame * h.gibbs_weights) @ h.frame.conj().T
    m = (m + m.conj().T) / 2.0
    return DensityOperator.from_matrix(m, space)


def free_energies(rho: np.ndarray, h: np.ndarray, temperature, entropy) -> np.ndarray:
    """F = tr(rho H) - T S over stacks (..., d, d) of states and Hamiltonians."""
    return np.real(np.einsum("...ij,...ji->...", rho, h)) - temperature * entropy


def free_energy(rho: DensityOperator, h: HamiltonianSpec) -> float:
    """F(rho) = tr(rho H) - T S(rho), in energy units."""
    if rho.dim != h.dim:
        raise InputError(f"dimension mismatch: state {rho.dim} vs Hamiltonian {h.dim}")
    return float(free_energies(rho.matrix, h.matrix, h.temperature, von_neumann_entropy(rho).nats))


@dataclass(frozen=True)
class ErasureReport:
    """Entropy balance of resetting an apparatus into a thermal reservoir.

    delta_total = delta_app + delta_res holds by construction, and
    landauer_satisfied records delta_total >= info_gain - 1e-9.
    """

    delta_app: EntropyValue
    delta_res: float
    delta_total: float
    info_gain: EntropyValue
    landauer_satisfied: bool

    def to_json(self) -> dict:
        return {
            "delta_app": self.delta_app.to_json(),
            "delta_res": self.delta_res,
            "delta_total": self.delta_total,
            "info_gain": self.info_gain.to_json(),
            "landauer_satisfied": self.landauer_satisfied,
        }


def erasure_terms(rho: np.ndarray, frame: np.ndarray, q: np.ndarray, log_q: np.ndarray,
                  info_gain) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(S(omega), tr((omega - rho) ln omega), -tr(rho ln omega), Landauer holds)
    over stacks: states rho (..., d, d), reservoir eigenvectors ``frame``
    (..., d, d) as columns, Gibbs weights q and log-weights ln q (..., d), and
    info_gain (...) in nats. Every sum runs in the reservoir eigenbasis."""
    overlaps = np.real(np.einsum("...ik,...ij,...jk->...k", frame.conj(), rho, frame))
    overlaps = np.clip(overlaps, 0.0, None)
    delta_app = -np.sum(q * log_q, axis=-1)
    delta_res = np.sum((q - overlaps) * log_q, axis=-1)
    delta_total = -np.sum(overlaps * log_q, axis=-1)
    return delta_app, delta_res, delta_total, delta_total >= info_gain - LANDAUER_SLACK


def erasure_entropy(apparatus: DensityOperator, reservoir: HamiltonianSpec,
                    info_gain: EntropyValue) -> ErasureReport:
    """Total erasure cost -tr(rho ln omega) split into apparatus and reservoir parts.

    All three pieces are evaluated in the reservoir eigenbasis from the exact
    Gibbs log-weights ln q_j = -beta e_j - ln Z, so the decomposition identity
    holds to rounding error.
    """
    if apparatus.dim != reservoir.dim:
        raise InputError(f"dimension mismatch: {apparatus.dim} vs {reservoir.dim}")
    delta_app, delta_res, delta_total, satisfied = erasure_terms(
        apparatus.matrix, reservoir.frame, reservoir.gibbs_weights, reservoir.gibbs_log_weights,
        info_gain.nats)
    return ErasureReport(
        # max keeps its first argument on a tie, so a pure Gibbs state's -0.0 reads +0.0
        delta_app=EntropyValue(max(0.0, float(delta_app))),
        delta_res=float(delta_res),
        delta_total=float(delta_total),
        info_gain=info_gain,
        landauer_satisfied=bool(satisfied),
    )


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) sum |eigenvalues of (a - b)|."""
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")
    lam, _ = hermitian_eig(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(lam)))


def collision_step(apparatus: DensityOperator, reservoir_state: DensityOperator,
                   swap_fraction: float) -> DensityOperator:
    """One partial-swap collision with a fresh reservoir copy.

    The joint unitary is cos(theta) I + i sin(theta) SWAP with
    theta = (pi/2) * swap_fraction; tracing out the reservoir copy leaves
    cos^2(theta) rho + sin^2(theta) sigma + i sin(theta) cos(theta) [sigma, rho],
    so swap_fraction = 1 returns the reservoir state exactly.
    """
    if apparatus.dim != reservoir_state.dim:
        raise InputError(f"dimension mismatch: {apparatus.dim} vs {reservoir_state.dim}")
    if not 0.0 < swap_fraction <= 1.0:
        raise InputError(f"swap_fraction must lie in (0, 1], got {swap_fraction}")
    theta = 0.5 * math.pi * swap_fraction
    c, s = math.cos(theta), math.sin(theta)
    rho, sigma = apparatus.matrix, reservoir_state.matrix
    out = c * c * rho + s * s * sigma + 1j * s * c * (sigma @ rho - rho @ sigma)
    out = (out + out.conj().T) / 2.0
    return DensityOperator.from_matrix(out, apparatus.space)


@dataclass(frozen=True)
class CollisionStep:
    index: int
    state: DensityOperator
    distance: float
    relative_entropy_nats: float


@dataclass(frozen=True)
class CollisionTrace:
    """Per-collision record of the apparatus approaching the reservoir state."""

    steps: tuple[CollisionStep, ...]
    converged: bool

    @property
    def final_distance(self) -> float:
        return self.steps[-1].distance


def thermalize(apparatus: DensityOperator, reservoir: HamiltonianSpec,
               swap_fraction: float, max_steps: int, tol: float) -> CollisionTrace:
    """Iterate collision_step against the reservoir Gibbs state.

    Stops when the trace distance to the Gibbs state drops to ``tol`` or after
    ``max_steps`` collisions; non-convergence is reported in the trace, not
    raised.
    """
    if not tol > 0.0:  # also rejects NaN
        raise InputError(f"tol must be positive, got {tol}")
    if max_steps < 0:
        raise InputError(f"max_steps must be nonnegative, got {max_steps}")
    from .entropy import relative_entropy

    omega = gibbs_state(reservoir, apparatus.space)
    state = apparatus
    steps = []

    def record(i: int, s: DensityOperator) -> float:
        dist = trace_distance(s, omega)
        rel = relative_entropy(s, omega).nats
        steps.append(CollisionStep(i, s, dist, rel))
        return dist

    dist = record(0, state)
    for i in range(1, max_steps + 1):
        if dist <= tol:
            break
        state = collision_step(state, omega, swap_fraction)
        dist = record(i, state)
    return CollisionTrace(tuple(steps), converged=dist <= tol)
