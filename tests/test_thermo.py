import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasure_lab.entropy import EntropyValue, relative_entropy, von_neumann_entropy
from erasure_lab.errors import InputError
from erasure_lab.linalg import DensityOperator
from erasure_lab.thermo import (
    HamiltonianSpec,
    collision_step,
    erasure_entropy,
    free_energy,
    gibbs_state,
    thermalize,
    trace_distance,
)
from helpers import draw_matrix, draw_state

RNG = np.random.default_rng(2024)


def random_state(n, rng=RNG):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real)


def random_hamiltonian(n, rng=RNG, beta=None):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    beta = float(rng.uniform(0.2, 3.0)) if beta is None else beta
    return HamiltonianSpec((g + g.conj().T) / 2, beta)


def oracle_partial_swap(rho, omega, fraction):
    """Direct 4x4 construction of the channel, independent of the module."""
    d = rho.shape[0]
    swap = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    theta = math.pi / 2 * fraction
    u = math.cos(theta) * np.eye(d * d) + 1j * math.sin(theta) * swap
    joint = u @ np.kron(rho, omega) @ u.conj().T
    out = np.zeros((d, d), dtype=complex)
    for k in range(d):
        sel = np.arange(d) * d + k
        out += joint[np.ix_(sel, sel)]
    return out


class TestHamiltonianSpec:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(InputError):
            HamiltonianSpec(np.diag([0.0, 1.0]), beta=0.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            HamiltonianSpec(np.array([[0.0, 1.0], [0.0, 0.0]]), beta=1.0)

    def test_partition_function(self):
        h = HamiltonianSpec(np.diag([0.0, 1.0]), beta=1.0)
        assert h.log_partition == pytest.approx(math.log(1 + math.exp(-1.0)), rel=1e-12)
        assert h.temperature == 1.0

    def test_large_beta_is_stable(self):
        h = HamiltonianSpec(np.diag([0.0, 1.0]), beta=1e3)
        assert math.isfinite(h.log_partition)


class TestGibbsState:
    def test_infinite_temperature_limit(self):
        h = HamiltonianSpec(np.diag([0.0, 1.0, 2.0]), beta=1e-9)
        omega = gibbs_state(h)
        assert np.max(np.abs(omega.matrix - np.eye(3) / 3)) < 1e-6

    def test_qubit_weights(self):
        h = HamiltonianSpec(np.diag([0.0, 1.0]), beta=1.0)
        omega = gibbs_state(h)
        z = 1 + math.exp(-1.0)
        assert np.max(np.abs(omega.matrix - np.diag([1 / z, math.exp(-1.0) / z]))) < 1e-12

    def test_ground_state_limit(self):
        h = HamiltonianSpec(np.diag([0.0, 1.0]), beta=1e3)
        omega = gibbs_state(h)
        assert np.max(np.abs(omega.matrix - np.diag([1.0, 0.0]))) < 1e-6

    def test_commutes_with_hamiltonian(self):
        h = random_hamiltonian(4)
        omega = gibbs_state(h)
        comm = omega.matrix @ h.matrix - h.matrix @ omega.matrix
        assert np.max(np.abs(comm)) < 1e-9

    def test_full_rank(self):
        h = random_hamiltonian(3, beta=2.0)
        lam = np.linalg.eigvalsh(gibbs_state(h).matrix)
        assert lam.min() > 0.0


class TestFreeEnergy:
    def test_gibbs_free_energy_is_log_partition(self):
        for _ in range(10):
            h = random_hamiltonian(int(RNG.integers(2, 5)))
            omega = gibbs_state(h)
            assert free_energy(omega, h) == pytest.approx(
                -h.temperature * h.log_partition, abs=1e-9)

    def test_identity_with_relative_entropy(self):
        for _ in range(30):
            d = int(RNG.integers(2, 5))
            h = random_hamiltonian(d)
            rho = random_state(d)
            omega = gibbs_state(h)
            lhs = free_energy(rho, h) - free_energy(omega, h)
            rhs = h.temperature * relative_entropy(rho, omega).nats
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_pure_ground_state(self):
        h = HamiltonianSpec(np.diag([0.0, 1.0]), beta=1.0)
        ground = DensityOperator.from_matrix(np.diag([1.0, 0.0]))
        assert free_energy(ground, h) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            free_energy(random_state(3), random_hamiltonian(2))


class TestErasureEntropy:
    def test_least_wasteful_at_gibbs_state(self):
        h = random_hamiltonian(3)
        omega = gibbs_state(h)
        info = von_neumann_entropy(omega)
        report = erasure_entropy(omega, h, info)
        assert report.delta_total == pytest.approx(info.nats, abs=1e-12)
        assert report.landauer_satisfied

    def test_excess_is_relative_entropy(self):
        for _ in range(25):
            d = int(RNG.integers(2, 4))
            h = random_hamiltonian(d)
            rho = random_state(d)
            report = erasure_entropy(rho, h, von_neumann_entropy(rho))
            excess = report.delta_total - von_neumann_entropy(rho).nats
            assert excess == pytest.approx(
                relative_entropy(rho, gibbs_state(h)).nats, abs=1e-9)

    def test_split_adds_up(self):
        h = random_hamiltonian(3)
        rho = random_state(3)
        report = erasure_entropy(rho, h, von_neumann_entropy(rho))
        assert report.delta_total == pytest.approx(
            report.delta_app.nats + report.delta_res, abs=1e-9)

    def test_maximally_mixed_qubit(self):
        h = HamiltonianSpec(np.zeros((2, 2)), beta=1.0)  # Gibbs state is I/2
        rho = DensityOperator.from_matrix(np.eye(2) / 2)
        report = erasure_entropy(rho, h, EntropyValue(math.log(2)))
        assert report.delta_total == pytest.approx(math.log(2), abs=1e-12)
        assert report.landauer_satisfied

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            erasure_entropy(random_state(2), random_hamiltonian(3), EntropyValue(0.0))

    def test_json_fields(self):
        h = random_hamiltonian(2)
        report = erasure_entropy(random_state(2), h, EntropyValue(0.1))
        blob = report.to_json()
        assert set(blob) == {"delta_app", "delta_res", "delta_total",
                             "info_gain", "landauer_satisfied"}


class TestCollisionStep:
    def test_full_swap_returns_reservoir(self):
        rho, omega = random_state(2), random_state(2)
        out = collision_step(rho, omega, 1.0)
        assert np.max(np.abs(out.matrix - omega.matrix)) < 1e-10

    def test_fixed_point(self):
        omega = random_state(3)
        out = collision_step(omega, omega, 0.7)
        assert np.max(np.abs(out.matrix - omega.matrix)) < 1e-10

    def test_matches_explicit_conjugation(self):
        rho, omega = random_state(2), random_state(2)
        out = collision_step(rho, omega, 0.3)
        oracle = oracle_partial_swap(rho.matrix, omega.matrix, 0.3)
        assert np.max(np.abs(out.matrix - oracle)) < 1e-12

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.85, 1.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_closed_form_matches_unitary_form(self, d, fraction):
        gen = np.random.default_rng([d, int(100 * fraction)])
        for _ in range(5):
            rho, omega = random_state(d, gen), random_state(d, gen)
            out = collision_step(rho, omega, fraction)
            oracle = oracle_partial_swap(rho.matrix, omega.matrix, fraction)
            assert np.max(np.abs(out.matrix - oracle)) < 1e-12

    def test_contracts_toward_reservoir(self):
        for _ in range(10):
            rho, omega = random_state(2), random_state(2)
            out = collision_step(rho, omega, 0.3)
            before = trace_distance(rho, omega)
            after = trace_distance(out, omega)
            assert after < before

    def test_output_is_valid_state(self):
        out = collision_step(random_state(3), random_state(3), 0.4)
        assert isinstance(out, DensityOperator)  # construction re-validates

    def test_invalid_fraction(self):
        rho = random_state(2)
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(InputError):
                collision_step(rho, rho, bad)


class TestThermalize:
    def test_starting_at_equilibrium(self):
        h = random_hamiltonian(2, beta=1.0)
        trace = thermalize(gibbs_state(h), h, 0.5, max_steps=50, tol=1e-6)
        assert trace.converged
        assert len(trace.steps) == 1  # only the initial record

    def test_pure_state_converges(self):
        h = HamiltonianSpec(np.diag([0.0, 1.0]), beta=1.0)
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        trace = thermalize(DensityOperator.from_ket(ket), h, 0.5, max_steps=200, tol=1e-6)
        assert trace.converged
        assert trace.final_distance <= 1e-6
        assert trace_distance(trace.steps[-1].state, gibbs_state(h)) <= 1e-6

    def test_relative_entropy_monotone(self):
        for _ in range(5):
            d = int(RNG.integers(2, 4))
            h = random_hamiltonian(d)
            trace = thermalize(random_state(d), h, 0.35, max_steps=100, tol=1e-8)
            rel = [s.relative_entropy_nats for s in trace.steps]
            assert all(rel[i + 1] <= rel[i] + 1e-9 for i in range(len(rel) - 1))

    def test_non_convergence_reported_not_raised(self):
        h = HamiltonianSpec(np.diag([0.0, 1.0]), beta=1.0)
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        trace = thermalize(DensityOperator.from_ket(ket), h, 0.5, max_steps=2, tol=1e-12)
        assert not trace.converged

    def test_invalid_tolerance(self):
        h = random_hamiltonian(2)
        with pytest.raises(InputError):
            thermalize(random_state(2), h, 0.5, max_steps=10, tol=0.0)

    def test_nan_tolerance_rejected(self):
        h = random_hamiltonian(2)
        with pytest.raises(InputError):
            thermalize(random_state(2), h, 0.5, max_steps=10, tol=math.nan)


# ---------------------------------------------------------------------------
# Properties over states and Hamiltonians drawn by hypothesis (the ranges of
# the selftest's Landauer and free-energy families)
# ---------------------------------------------------------------------------

def _draw_hamiltonian(data, d):
    h = draw_matrix(data, d)
    return HamiltonianSpec((h + h.conj().T) / 2, beta=data.draw(st.floats(0.2, 3.0)))


@pytest.mark.parametrize("d", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_erasure_cost_is_at_least_the_erased_entropy(d, data):
    """Landauer: -tr(rho ln omega) >= S(rho), whatever the reservoir."""
    rho, ham = draw_state(data, d), _draw_hamiltonian(data, d)
    info = von_neumann_entropy(rho)
    report = erasure_entropy(rho, ham, info)
    assert report.delta_total >= info.nats - 1e-9
    assert report.landauer_satisfied


@pytest.mark.parametrize("d", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_free_energy_excess_is_relative_entropy(d, data):
    """F(rho) - F(omega) = T S(rho || omega) for the Gibbs state omega of H."""
    rho, ham = draw_state(data, d), _draw_hamiltonian(data, d)
    lhs = free_energy(rho, ham) - free_energy(gibbs_state(ham), ham)
    # S(rho || omega) in H's eigenbasis, where omega is diag(Gibbs weights)
    # exactly; diagonalising the dense Gibbs matrix again loses the relative
    # precision of its smallest weights (see the selftest's free-energy family).
    rho_h = DensityOperator.from_matrix(ham.frame.conj().T @ rho.matrix @ ham.frame)
    omega_h = DensityOperator.from_matrix(np.diag(ham.gibbs_weights))
    rhs = ham.temperature * relative_entropy(rho_h, omega_h).nats
    assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gibbs_free_energy_is_minus_t_log_partition(d, data):
    """F(omega) = -T ln Z, the value the selftest's free-energy family takes
    for F(omega), up to beta = 1e3; relative to max(|F|, 1) as that family
    measures its error."""
    h = draw_matrix(data, d)
    ham = HamiltonianSpec((h + h.conj().T) / 2, beta=data.draw(st.floats(0.2, 1e3)))
    expected = -ham.temperature * ham.log_partition
    assert abs(free_energy(gibbs_state(ham), ham) - expected) <= 1e-12 * max(abs(expected), 1.0)


def test_hamiltonian_rejects_a_stack():
    with pytest.raises(InputError, match="square matrix"):
        HamiltonianSpec(np.array([np.eye(2)] * 2), beta=1.0)
