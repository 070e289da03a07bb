"""Built-in invariant suite behind the ``selftest`` CLI command.

Each family exercises one of the package's numerical identities on seeded
random inputs; the report is a deterministic function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import demon, entanglement, sampling, thermo
# relative_entropy is not called here; the benchmark tracer patches it by name.
from .entropy import cross_term_eig, relative_entropy, von_neumann_entropy  # noqa: F401
from .linalg import DensityOperator, TensorSpace

__all__ = ["FamilyResult", "run_selftest"]

# random inputs per Landauer and free-energy family
_CASES = 200


@dataclass(frozen=True)
class FamilyResult:
    name: str
    passed: bool
    detail: str


def _landauer_family(gen: np.random.Generator, cases: int) -> FamilyResult:
    worst = math.inf
    for _ in range(cases):
        d = int(gen.integers(2, 4))
        rho = sampling.random_density(gen, d)
        ham = thermo.HamiltonianSpec(sampling.random_hermitian(gen, d),
                                     beta=float(gen.uniform(0.2, 3.0)))
        info = von_neumann_entropy(rho)
        report = thermo.erasure_entropy(rho, ham, info)
        worst = min(worst, report.delta_total - info.nats)
        if not report.landauer_satisfied:
            return FamilyResult("landauer-erasure", False,
                                f"bound violated by {info.nats - report.delta_total:.3e}")
    return FamilyResult("landauer-erasure", True,
                        f"{cases} randomized pairs, min slack {worst:.3e}")


def _relative_entropy_to_gibbs(rho: DensityOperator, ham: thermo.HamiltonianSpec) -> float:
    """S(rho || omega) for omega = e^(-beta H)/Z, from omega's exact eigensystem
    (H's frame and the Gibbs weights) and rho's kept spectrum, as
    ``relative_entropy`` computes it: ln omega needs weights as small as 1e-9 to
    full relative precision, which diagonalising the dense Gibbs matrix loses."""
    cross = float(cross_term_eig(rho.matrix, ham.gibbs_weights, ham.frame))
    return cross - von_neumann_entropy(rho).nats


def _free_energy_family(gen: np.random.Generator, cases: int) -> FamilyResult:
    worst = 0.0
    for _ in range(cases):
        d = int(gen.integers(2, 4))
        rho = sampling.random_density(gen, d)
        ham = thermo.HamiltonianSpec(sampling.random_hermitian(gen, d),
                                     beta=float(gen.uniform(0.2, 3.0)))
        omega = thermo.gibbs_state(ham)
        lhs = thermo.free_energy(rho, ham) - thermo.free_energy(omega, ham)
        rhs = ham.temperature * _relative_entropy_to_gibbs(rho, ham)
        err = abs(lhs - rhs) / max(abs(rhs), 1.0)
        worst = max(worst, err)
    passed = worst <= 1e-9
    return FamilyResult("free-energy-identity", passed,
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
    """Run every invariant family in a fixed order from one seeded generator."""
    gen = sampling.rng(seed)
    return [
        _landauer_family(gen, _CASES),
        _free_energy_family(gen, _CASES),
        _ledger_family(gen),
        _pure_collapse_family(gen, 3),
        _thermalization_family(gen),
    ]
