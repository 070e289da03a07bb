"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion together with its runtime.
"""

import math
import time

import numpy as np
import pytest

from erasure_lab.demon import classical_cycle, qec_cycle, recovery_fidelity_vs_overlap, three_qubit_bit_flip_scenario
from erasure_lab.entanglement import (
    SolverOptions,
    entanglement_of_creation,
    entropy_of_entanglement,
    purification_bound,
    relative_entropy_of_entanglement,
    schumacher_rate,
    single_shot_probability,
    SeparableMixture,
)
from erasure_lab.entropy import binary_entropy, relative_entropy, von_neumann_entropy
from erasure_lab.linalg import DensityOperator, TensorSpace
from erasure_lab.sampling import random_density, random_hermitian, random_ket, rng
from erasure_lab.thermo import HamiltonianSpec, erasure_entropy, free_energy, gibbs_state, thermalize
from helpers import assemble, random_product_terms

LN2 = math.log(2)
SPACE22 = TensorSpace.bipartite(2, 2)


def h_bin(p):
    return binary_entropy(p).nats


def report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    within = elapsed < budget
    print(f"{'PASS' if within else 'FAIL'} criterion {number} ({label}): "
          f"{elapsed:.2f}s (budget {budget:.0f}s)")
    assert within, f"criterion {number} exceeded its runtime budget"


def test_criterion_01_landauer_inequality():
    started = time.perf_counter()
    gen = rng(101)
    for i in range(1000):
        d = 2 if i % 2 == 0 else 3
        rho = random_density(gen, d)
        ham = HamiltonianSpec(random_hermitian(gen, d), beta=float(gen.uniform(0.2, 3.0)))
        result = erasure_entropy(rho, ham, von_neumann_entropy(rho))
        assert result.delta_total - von_neumann_entropy(rho).nats >= -1e-9
        if i % 10 == 0:  # equality when the apparatus already sits in the Gibbs state
            omega = gibbs_state(ham)
            at_equilibrium = erasure_entropy(omega, ham, von_neumann_entropy(omega))
            assert abs(at_equilibrium.delta_total - von_neumann_entropy(omega).nats) <= 1e-8
    report(1, "Landauer inequality, 1000 randomized pairs", started, 10.0)


def test_criterion_02_free_energy_identity():
    started = time.perf_counter()
    gen = rng(102)
    for i in range(1000):
        d = 2 if i % 2 == 0 else 3
        rho = random_density(gen, d)
        ham = HamiltonianSpec(random_hermitian(gen, d), beta=float(gen.uniform(0.2, 3.0)))
        omega = gibbs_state(ham)
        lhs = free_energy(rho, ham) - free_energy(omega, ham)
        rhs = ham.temperature * relative_entropy(rho, omega).nats
        assert abs(lhs - rhs) / max(abs(rhs), 1.0) <= 1e-9
    report(2, "free-energy identity, 1000 randomized pairs", started, 10.0)


def test_criterion_03_classical_demon_ledger():
    started = time.perf_counter()
    ledger = classical_cycle(0.5)
    nonzero = [
        ledger.steps[1].ds_system,
        ledger.steps[2].ds_apparatus,
        ledger.steps[2].info_gain,
        -ledger.steps[3].ds_system,
        -ledger.steps[4].ds_apparatus,
        ledger.steps[4].ds_garbage,
        -ledger.steps[4].df,
    ]
    for value in nonzero:
        assert abs(value - LN2) <= 1e-12
    totals = ledger.totals()
    assert totals["dS_system"] == 0.0
    assert totals["dS_apparatus"] == 0.0
    assert totals["dS_garbage"] == totals["info_gain"]
    report(3, "classical cycle at p=1/2", started, 5.0)


def test_criterion_04_quantum_ec_saturation():
    started = time.perf_counter()
    ket = np.array([1.0, 1.0]) / math.sqrt(2)
    result = qec_cycle(three_qubit_bit_flip_scenario(ket))
    assert result.recovery_fidelity >= 1.0 - 1e-9
    assert abs(result.gc_entropy - math.log(4)) <= 1e-9
    assert abs(result.info_gain - math.log(4)) <= 1e-9
    report(4, "bit-flip cycle saturates erasure", started, 5.0)


def test_criterion_05_imperfect_observation():
    started = time.perf_counter()
    ket = np.array([1.0, 1.0]) / math.sqrt(2)
    template = three_qubit_bit_flip_scenario(ket, weights=(0.5, 0.5))
    overlaps = [round(0.1 * k, 1) for k in range(11)]
    rows = recovery_fidelity_vs_overlap(template, overlaps)
    for row in rows:
        assert abs(row.erasure_entropy - h_bin((1 + row.overlap) / 2)) <= 1e-9
    fidelities = [row.fidelity for row in rows]
    assert all(fidelities[k + 1] < fidelities[k] for k in range(len(rows) - 1))
    report(5, "imperfect observation sweep", started, 10.0)


def test_criterion_06_pure_state_collapse():
    started = time.perf_counter()
    gen = rng(106)
    opts = SolverOptions(gap_tol=1e-3, max_iter=4000, seed=106)
    for _ in range(50):
        psi = random_ket(gen, 4)
        value = relative_entropy_of_entanglement(
            DensityOperator.from_ket(psi, SPACE22), opts).value
        assert abs(value - entropy_of_entanglement(psi, (2, 2)).nats) <= 1e-3
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 2**-0.5
    bell_value = relative_entropy_of_entanglement(
        DensityOperator.from_ket(bell, SPACE22), opts).value
    assert abs(bell_value - LN2) <= 1e-3
    report(6, "pure-state relative-entropy collapse, 50 states", started, 60.0)


def test_criterion_07_separable_zero():
    started = time.perf_counter()
    gen = rng(107)
    for _ in range(20):
        mixture = SeparableMixture(tuple(random_product_terms(gen, 2, 2, int(gen.integers(2, 8)))))
        value = relative_entropy_of_entanglement(assemble(mixture)).value
        assert value <= 1e-4
    report(7, "separable states give zero, 20 states", started, 60.0)


def test_criterion_08_single_shot_gap():
    started = time.perf_counter()
    for b_sq in [round(0.05 * k, 2) for k in range(1, 10)]:
        psi = np.zeros(4, dtype=complex)
        psi[0] = math.sqrt(1 - b_sq)
        psi[3] = math.sqrt(b_sq)
        ere = relative_entropy_of_entanglement(DensityOperator.from_ket(psi, SPACE22))
        bound = purification_bound(2, ere)
        single = single_shot_probability(psi)
        assert single < bound
    # both sides reach 1 at the maximally entangled point
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 2**-0.5
    ere = relative_entropy_of_entanglement(DensityOperator.from_ket(psi, SPACE22))
    assert abs(single_shot_probability(psi) - 1.0) <= 1e-6
    assert abs(purification_bound(2, ere) - 1.0) <= 1e-6
    report(8, "single-shot probability below the entropic bound", started, 5.0)


def test_criterion_09_measure_ordering():
    started = time.perf_counter()
    gen = rng(109)
    opts = SolverOptions(gap_tol=1e-3, max_iter=4000, seed=109)
    for _ in range(20):
        rho = random_density(gen, 4, space=SPACE22)
        e_c = entanglement_of_creation(rho, opts).value
        e_re = relative_entropy_of_entanglement(rho, opts).value
        assert e_c + 1e-3 >= e_re
    for _ in range(3):  # pure states: both collapse to the reduced entropy
        psi = random_ket(gen, 4)
        rho = DensityOperator.from_ket(psi, SPACE22)
        target = entropy_of_entanglement(psi, (2, 2)).nats
        assert abs(entanglement_of_creation(rho, opts).value - target) <= 1e-3
        assert abs(relative_entropy_of_entanglement(rho, opts).value - target) <= 1e-3
    report(9, "creation measure dominates relative entropy, 20 states", started, 120.0)


def test_criterion_10_thermalization():
    started = time.perf_counter()
    ham = HamiltonianSpec(np.diag([0.0, 1.0]), beta=1.0)
    ket = np.array([1.0, 1.0]) / math.sqrt(2)
    trace = thermalize(DensityOperator.from_ket(ket), ham,
                       swap_fraction=0.5, max_steps=200, tol=1e-6)
    assert trace.converged
    assert trace.final_distance <= 1e-6
    rel = [s.relative_entropy_nats for s in trace.steps]
    assert all(rel[k + 1] <= rel[k] + 1e-9 for k in range(len(rel) - 1))
    report(10, "collision model thermalizes monotonically", started, 5.0)


def test_criterion_11_schumacher_rate():
    started = time.perf_counter()
    gen = rng(111)
    pure = DensityOperator.from_ket(random_ket(gen, 2))
    assert abs(schumacher_rate(pure, 2) - 0.0) <= 1e-9
    mixed = DensityOperator.from_matrix(np.eye(2) / 2)
    assert abs(schumacher_rate(mixed, 2) - 1.0) <= 1e-9
    biased = DensityOperator.from_matrix(np.diag([0.25, 0.75]))
    assert abs(schumacher_rate(biased, 2) - h_bin(0.25) / LN2) <= 1e-9
    report(11, "compression rate identities", started, 5.0)
