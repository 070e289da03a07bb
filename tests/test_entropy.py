import math

import numpy as np
import pytest

from erasure_lab.entropy import (
    EntropyValue,
    binary_entropy,
    cross_term,
    mutual_information,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from erasure_lab.errors import InputError
from erasure_lab.linalg import DensityOperator, TensorSpace, hermitian_eig

RNG = np.random.default_rng(77)
LN2 = math.log(2)


def random_state(n, rng=RNG):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real)


def random_ket(n, rng=RNG):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


class TestEntropyValue:
    def test_bits_conversion_exact(self):
        e = EntropyValue(LN2)
        assert abs(e.bits - 1.0) < 1e-12
        assert e.value_in("nats") == LN2

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            EntropyValue(-0.1)

    def test_infinity_marker_round_trip(self):
        e = EntropyValue(math.inf)
        assert e.infinite
        assert e.to_json() == {"infinite": True}
        assert EntropyValue.from_json({"infinite": True}).infinite

    def test_json_round_trip(self):
        e = EntropyValue(0.25)
        assert EntropyValue.from_json(e.to_json()).nats == 0.25


class TestVonNeumann:
    def test_pure_state_zero(self):
        rho = DensityOperator.from_ket(random_ket(4))
        assert von_neumann_entropy(rho).nats < 1e-10

    def test_maximally_mixed_qubit(self):
        rho = DensityOperator.from_matrix(np.eye(2) / 2)
        s = von_neumann_entropy(rho)
        assert abs(s.nats - LN2) < 1e-12
        assert abs(s.bits - 1.0) < 1e-12

    def test_two_level_mixture(self):
        rho = DensityOperator.from_matrix(np.diag([0.25, 0.75]))
        expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert abs(von_neumann_entropy(rho).nats - expected) < 1e-12

    def test_bounded_by_log_dim(self):
        for _ in range(20):
            d = int(RNG.integers(2, 6))
            rho = random_state(d)
            assert von_neumann_entropy(rho).nats <= math.log(d) + 1e-9

    def test_unitary_invariance(self):
        rho = random_state(4)
        _, frame = hermitian_eig((lambda g: (g + g.conj().T) / 2)(
            RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))))
        rotated = DensityOperator.from_matrix(frame @ rho.matrix @ frame.conj().T)
        assert abs(von_neumann_entropy(rotated).nats - von_neumann_entropy(rho).nats) < 1e-9


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        rho = random_state(3)
        assert relative_entropy(rho, rho).nats < 1e-8

    def test_commuting_pair_matches_kl(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.4, 0.4, 0.2])
        rho = DensityOperator.from_matrix(np.diag(p))
        omega = DensityOperator.from_matrix(np.diag(q))
        kl = float(np.sum(p * np.log(p / q)))
        assert abs(relative_entropy(rho, omega).nats - kl) < 1e-10

    def test_pure_versus_maximally_mixed(self):
        for d in (2, 3, 4):
            rho = DensityOperator.from_ket(random_ket(d))
            omega = DensityOperator.from_matrix(np.eye(d) / d)
            assert abs(relative_entropy(rho, omega).nats - math.log(d)) < 1e-9

    def test_support_violation_is_infinite(self):
        rho = DensityOperator.from_matrix(np.diag([0.5, 0.5]))
        omega = DensityOperator.from_matrix(np.diag([1.0, 0.0]))
        assert relative_entropy(rho, omega).infinite

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            relative_entropy(random_state(2), random_state(3))

    def test_klein_inequality_randomized(self):
        for _ in range(50):
            d = int(RNG.integers(2, 5))
            rho, omega = random_state(d), random_state(d)
            value = relative_entropy(rho, omega).nats
            assert value >= 0.0
            if value <= 1e-8:
                assert np.max(np.abs(rho.matrix - omega.matrix)) <= 1e-9

    def test_decomposition_identity(self):
        for _ in range(25):
            d = int(RNG.integers(2, 5))
            rho, omega = random_state(d), random_state(d)
            lhs = relative_entropy(rho, omega).nats
            rhs = cross_term(rho, omega).nats - von_neumann_entropy(rho).nats
            assert abs(lhs - rhs) < 1e-9


class TestCrossTerm:
    def test_equal_states_give_entropy(self):
        rho = random_state(3)
        assert abs(cross_term(rho, rho).nats - von_neumann_entropy(rho).nats) < 1e-9

    def test_pure_state_quadratic_form(self):
        ket = random_ket(3)
        rho = DensityOperator.from_ket(ket)
        omega = random_state(3)
        w, u = np.linalg.eigh(omega.matrix)
        log_omega = (u * np.log(w)) @ u.conj().T
        expected = float(np.real(-ket.conj() @ log_omega @ ket))
        assert abs(cross_term(rho, omega).nats - expected) < 1e-9

    def test_dominates_entropy(self):
        for _ in range(50):
            d = int(RNG.integers(2, 5))
            rho, omega = random_state(d), random_state(d)
            assert cross_term(rho, omega).nats >= von_neumann_entropy(rho).nats - 1e-9


class TestMutualInformation:
    def test_product_state_zero(self):
        space = TensorSpace.bipartite(2, 3)
        joint = DensityOperator(space, np.kron(random_state(2).matrix, random_state(3).matrix))
        assert mutual_information(joint, ({"A"}, {"B"})).nats < 1e-9

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 2**-0.5
        rho = DensityOperator.from_ket(bell, TensorSpace.bipartite(2, 2))
        assert abs(mutual_information(rho, ({"A"}, {"B"})).nats - 2 * LN2) < 1e-9

    def test_classical_correlation(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.5
        rho = DensityOperator(TensorSpace.bipartite(2, 2), m)
        assert abs(mutual_information(rho, ({"A"}, {"B"})).nats - LN2) < 1e-9

    def test_non_partition_rejected(self):
        rho = DensityOperator(TensorSpace.bipartite(2, 2), np.eye(4) / 4)
        with pytest.raises(InputError):
            mutual_information(rho, ({"A"}, {"A", "B"}))
        with pytest.raises(InputError):
            mutual_information(rho, ({"A"}, set()))


class TestClassicalEntropies:
    def test_binary_half(self):
        assert abs(binary_entropy(0.5).nats - LN2) < 1e-12

    def test_binary_endpoints(self):
        assert binary_entropy(0.0).nats == 0.0
        assert binary_entropy(1.0).nats == 0.0

    def test_shannon_matches_binary(self):
        assert shannon_entropy([0.25, 0.75]).nats == pytest.approx(binary_entropy(0.25).nats)

    def test_invalid_probability_vectors(self):
        with pytest.raises(InputError):
            shannon_entropy([0.5, 0.4])
        with pytest.raises(InputError):
            shannon_entropy([1.5, -0.5])
        with pytest.raises(InputError):
            shannon_entropy([math.nan, 1.0])
        with pytest.raises(InputError):
            binary_entropy(1.2)
