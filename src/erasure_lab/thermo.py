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
    "gibbs_state",
    "free_energy",
    "erasure_entropy",
    "collision_step",
    "thermalize",
    "trace_distance",
]

LANDAUER_SLACK = 1e-9


class HamiltonianSpec:
    """Hermitian Hamiltonian plus inverse temperature beta.

    Derived quantities (temperature, log partition function, Gibbs weights)
    are computed once at construction; the log-sum-exp shift keeps large beta
    values stable.
    """

    def __init__(self, matrix, beta: float):
        energies, frame = hermitian_eig(matrix)  # checks Hermiticity
        self.matrix = np.asarray(matrix, dtype=complex)
        if not beta > 0.0:
            raise InputError(f"beta must be positive, got {beta}")
        self.beta = float(beta)
        self.energies = energies  # descending
        self.frame = frame
        boltzmann = np.exp(-self.beta * (energies - energies.min()))
        self.log_partition = float(np.log(np.sum(boltzmann)) - self.beta * energies.min())
        self.gibbs_weights = boltzmann / np.sum(boltzmann)

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


def free_energy(rho: DensityOperator, h: HamiltonianSpec) -> float:
    """F(rho) = tr(rho H) - T S(rho), in energy units."""
    if rho.dim != h.dim:
        raise InputError(f"dimension mismatch: state {rho.dim} vs Hamiltonian {h.dim}")
    u = float(np.real(np.trace(rho.matrix @ h.matrix)))
    return u - h.temperature * von_neumann_entropy(rho).nats


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


def erasure_entropy(apparatus: DensityOperator, reservoir: HamiltonianSpec,
                    info_gain: EntropyValue) -> ErasureReport:
    """Total erasure cost -tr(rho ln omega) split into apparatus and reservoir parts.

    All three pieces are evaluated in the reservoir eigenbasis from the exact
    Gibbs log-weights ln q_j = -beta e_j - ln Z, so the decomposition identity
    holds to rounding error.
    """
    if apparatus.dim != reservoir.dim:
        raise InputError(f"dimension mismatch: {apparatus.dim} vs {reservoir.dim}")
    q = reservoir.gibbs_weights
    log_q = -reservoir.beta * reservoir.energies - reservoir.log_partition
    frame = reservoir.frame
    overlaps = np.real(np.einsum("ik,ij,jk->k", frame.conj(), apparatus.matrix, frame))
    overlaps = np.clip(overlaps, 0.0, None)

    delta_app = float(-np.sum(q * log_q))          # S(omega)
    delta_res = float(np.sum((q - overlaps) * log_q))   # tr((omega - rho) ln omega)
    delta_total = float(-np.sum(overlaps * log_q))      # -tr(rho ln omega)
    satisfied = delta_total >= info_gain.nats - LANDAUER_SLACK
    return ErasureReport(
        # max keeps its first argument on a tie, so a pure Gibbs state's -0.0 reads +0.0
        delta_app=EntropyValue(max(0.0, delta_app)),
        delta_res=delta_res,
        delta_total=delta_total,
        info_gain=info_gain,
        landauer_satisfied=satisfied,
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
