"""Built-in invariant suite behind the ``selftest`` CLI command.

Each family exercises one of the package's numerical identities on seeded
random inputs; the report is a deterministic function of the seed. The
Landauer and free-energy families draw their pairs one at a time and check
them as one stack per dimension, through the kernels that ``erasure`` and
``free_energy`` run on a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import demon, entanglement, linalg, sampling, thermo
# relative_entropy and von_neumann_entropy are not called here; the benchmark
# tracer patches them by name.
from .entropy import cross_term_eig, relative_entropy, spectrum_entropy, von_neumann_entropy  # noqa: F401
from .linalg import DensityOperator, TensorSpace

__all__ = ["FamilyResult", "run_selftest"]

# random inputs per Landauer and free-energy family
_CASES = 200


@dataclass(frozen=True)
class FamilyResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class _PairValues:
    """Values of random (state, Hamiltonian) pairs, one entry per pair in draw order."""

    entropy: np.ndarray             # S(rho)
    erasure_cost: np.ndarray        # -tr(rho ln omega), erasure's delta_total
    landauer_satisfied: np.ndarray
    free_energy: np.ndarray         # F(rho)
    gibbs_free_energy: np.ndarray   # F(omega) = -T ln Z
    relative_entropy: np.ndarray    # S(rho || omega) from omega's eigensystem
    temperature: np.ndarray


def _pair_values(gen: np.random.Generator, cases: int) -> _PairValues:
    """Draw ``cases`` pairs of a random state and a random Hamiltonian at a
    random beta, one pair after another, and evaluate them as one stack per
    dimension (2 or 3).

    S(rho || omega) comes from omega's exact eigensystem (H's frame and the
    Gibbs weights), as ``relative_entropy`` computes it: ln omega needs
    weights as small as 1e-9 to full relative precision, which diagonalising
    the dense Gibbs matrix loses.
    """
    draws = []
    for _ in range(cases):
        d = int(gen.integers(2, 4))
        # the state's Gaussian matrix, then the Hamiltonian's
        draws.append((d, sampling.complex_gaussian(gen, (2, d, d)), float(gen.uniform(0.2, 3.0))))
    out: dict[str, np.ndarray] = {}
    for d in (2, 3):
        at = [k for k, draw in enumerate(draws) if draw[0] == d]
        if not at:
            continue
        g = np.array([draws[k][1] for k in at])
        beta = np.array([draws[k][2] for k in at])
        rho, h = sampling.wishart_state(g[:, 0]), sampling.hermitian_part(g[:, 1])
        lam, _ = linalg.density_eig(rho)
        s = spectrum_entropy(lam)
        energies, frame = linalg.hermitian_eig(h)
        log_z, q, log_q = thermo.gibbs_log_weights(energies, beta)
        _, _, cost, satisfied = thermo.erasure_terms(rho, frame, q, log_q, s)
        temperature = 1.0 / beta
        for name, value in (("entropy", s), ("erasure_cost", cost), ("landauer_satisfied", satisfied),
                            ("free_energy", thermo.free_energies(rho, h, temperature, s)),
                            ("gibbs_free_energy", -temperature * log_z),
                            ("relative_entropy", cross_term_eig(rho, q, frame) - s),
                            ("temperature", temperature)):
            out.setdefault(name, np.empty(cases, dtype=value.dtype))[at] = value
    return _PairValues(**out)


def _landauer_family(gen: np.random.Generator, cases: int) -> FamilyResult:
    pairs = _pair_values(gen, cases)
    violated = np.flatnonzero(~pairs.landauer_satisfied)
    if violated.size:
        k = violated[0]
        return FamilyResult("landauer-erasure", False,
                            f"pair {k}: bound violated by "
                            f"{pairs.entropy[k] - pairs.erasure_cost[k]:.3e}")
    worst = np.min(pairs.erasure_cost - pairs.entropy)
    return FamilyResult("landauer-erasure", True,
                        f"{cases} randomized pairs, min slack {worst:.3e}")


def _free_energy_family(gen: np.random.Generator, cases: int) -> FamilyResult:
    pairs = _pair_values(gen, cases)
    lhs = pairs.free_energy - pairs.gibbs_free_energy
    rhs = pairs.temperature * pairs.relative_entropy
    worst = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0))
    passed = worst <= 1e-9
    return FamilyResult("free-energy-identity", bool(passed),
                        f"max relative error {worst:.3e} over {cases} pairs")


def _ledger_family(gen: np.random.Generator) -> FamilyResult:
    for p in (0.0, 0.25, 0.5, 0.9):
        problems = demon.classical_cycle(p).check_cycle()
        if problems:
            return FamilyResult("ledger-closure", False, f"classical p={p}: {problems[0]}")
    ket = sampling.random_ket(gen, 2)
    result = demon.qec_cycle(demon.three_qubit_bit_flip_scenario(ket))
    problems = result.ledger.check_cycle()
    if problems:
        return FamilyResult("ledger-closure", False, f"qec: {problems[0]}")
    if abs(result.gc_entropy - result.info_gain) > 1e-9:
        return FamilyResult("ledger-closure", False,
                            f"gc entropy {result.gc_entropy:.6f} != info gain {result.info_gain:.6f}")
    if result.recovery_fidelity < 1.0 - 1e-9:
        return FamilyResult("ledger-closure", False,
                            f"recovery fidelity {result.recovery_fidelity:.12f} below 1")
    return FamilyResult("ledger-closure", True,
                        "classical cycles and the bit-flip cycle close; erasure saturates")


def _pure_collapse_family(gen: np.random.Generator, cases: int) -> FamilyResult:
    opts = entanglement.SolverOptions(gap_tol=1e-3, max_iter=4000,
                                      seed=int(gen.integers(0, 2**31)))
    space = TensorSpace.bipartite(2, 2)
    worst = 0.0
    for _ in range(cases):
        psi = sampling.random_ket(gen, 4)
        result = entanglement.relative_entropy_of_entanglement(
            DensityOperator.from_ket(psi, space), opts)
        target = entanglement.entropy_of_entanglement(psi, (2, 2)).nats
        worst = max(worst, abs(result.value - target))
    passed = worst <= 1e-3
    return FamilyResult("pure-state-collapse", passed,
                        f"max |E_RE - reduced entropy| = {worst:.3e} over {cases} states")


def _thermalization_family(gen: np.random.Generator) -> FamilyResult:
    ham = thermo.HamiltonianSpec(np.diag([0.0, 1.0]), beta=1.0)
    start = DensityOperator.from_ket(sampling.random_ket(gen, 2))
    trace = thermo.thermalize(start, ham, swap_fraction=0.5, max_steps=200, tol=1e-6)
    rel = [s.relative_entropy_nats for s in trace.steps]
    monotone = all(rel[i + 1] <= rel[i] + 1e-9 for i in range(len(rel) - 1))
    passed = trace.converged and monotone
    return FamilyResult(
        "thermalization",
        passed,
        f"{len(trace.steps) - 1} collisions, final distance {trace.final_distance:.3e}, "
        f"relative entropy monotone: {monotone}",
    )


def run_selftest(seed: int) -> list[FamilyResult]:
    """Run every invariant family in a fixed order from one seeded generator.

    The Landauer and free-energy families draw their pairs in per-pair order
    and check them as stacks, so the report does not depend on how the
    pairs are batched.
    """
    gen = sampling.rng(seed)
    return [
        _landauer_family(gen, _CASES),
        _free_energy_family(gen, _CASES),
        _ledger_family(gen),
        _pure_collapse_family(gen, 3),
        _thermalization_family(gen),
    ]
