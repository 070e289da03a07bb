import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from erasure_lab import entanglement
from erasure_lab.entanglement import (
    SeparableMixture,
    SolverOptions,
    entanglement_of_creation,
    entropy_of_entanglement,
    purification_bound,
    purification_report,
    relative_entropy_of_entanglement,
    schmidt_decompose,
    schumacher_rate,
    single_shot_probability,
)
from erasure_lab.entropy import relative_entropy, von_neumann_entropy
from erasure_lab.errors import InputError
from erasure_lab.linalg import DensityOperator, TensorSpace
from erasure_lab.sampling import random_density, random_ket, rng
from helpers import assemble, draw_matrix, random_product_terms, random_unitary, reconstruct

LN2 = math.log(2)
SPACE22 = TensorSpace.bipartite(2, 2)
# Rounding allowance where a closed-form E_RE, the exact value it is checked
# against and its certifying gap differ by rounding only (1e-15 to 1e-14).
CLOSED_FORM_ROUNDING = 1e-13
RNG = rng(501)


def h_bin(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def bell_ket():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 2**-0.5
    return v


def two_qubit_pure(b_sq):
    v = np.zeros(4, dtype=complex)
    v[0] = math.sqrt(1 - b_sq)
    v[3] = math.sqrt(b_sq)
    return v


YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def concurrence_oracle(matrix):
    """Wootters' concurrence, the standalone oracle: with rho = V V^dag, the
    lambda_i are the singular values of V^T (sigma_y (x) sigma_y) V.

    The square roots of the eigenvalues of rho rho~, the textbook route, turn
    rounding-level eigenvalues into lambda_i of about 1e-8 on states of rank
    2 or 3; the singular values stay at rounding level.
    """
    w, u = np.linalg.eigh(matrix)
    v = u * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(v.T @ YY @ v, compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def mpmath_concurrence(matrix):
    """Wootters' concurrence from the eigenvalues of rho rho~ at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m, y = mpmath.matrix(matrix.tolist()), mpmath.matrix(YY.tolist())
        eig = mpmath.eig(m * y * m.conjugate() * y, left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in eig), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


def wootters_eof_nats(matrix):
    """Closed-form two-qubit entanglement of formation, the standalone oracle."""
    c = concurrence_oracle(matrix)
    return h_bin((1 + math.sqrt(1 - c * c)) / 2)


BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)


def bell_diagonal(weights):
    return sum(w * np.outer(b, b) for w, b in zip(weights, BELL_BASIS))


# the magic basis Phi+, i Phi-, i Psi+, Psi- as columns: real unit combinations
# of its columns are the maximally entangled kets up to phase
MAGIC_BASIS = BELL_BASIS.T * np.array([1.0, 1j, 1j, 1.0])


def entangled_fraction(matrix):
    """max <Phi|rho|Phi> over maximally entangled Phi (Bennett et al. 1996)."""
    return float(np.linalg.eigvalsh((MAGIC_BASIS.conj().T @ matrix @ MAGIC_BASIS).real)[-1])


def min_pt_eigenvalue(matrix, dims=(2, 2)):
    d_a, d_b = dims
    pt = matrix.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)
    return float(np.linalg.eigvalsh(pt)[0])


def werner(p):
    return p * np.outer(bell_ket(), bell_ket().conj()) + (1 - p) * np.eye(4) / 4


def bell_diagonal_ere(weights):
    """Vedral & Plenio: ln 2 - h(lambda_max) when lambda_max >= 1/2, else 0."""
    top = max(weights)
    return LN2 - h_bin(top) if top >= 0.5 else 0.0


def embed_two_qubit(matrix, d_b=3):
    """Carry a two-qubit state into 2 x d_b through the local isometry |j> -> |j> on B."""
    iso = np.kron(np.eye(2), np.eye(d_b)[:, :2])
    return DensityOperator.from_matrix(iso @ matrix @ iso.T, TensorSpace.bipartite(2, d_b))


def noisy_ket(b_sq, noise):
    """(1 - noise)|psi><psi| + noise I/4 for psi = sqrt(1 - b_sq)|00> + sqrt(b_sq)|11>:
    entangled for small noise, and not Bell-diagonal in any local frame."""
    psi = two_qubit_pure(b_sq).real
    return (1.0 - noise) * np.outer(psi, psi) + noise * np.eye(4) / 4.0


def local_frame(matrix, gen):
    """The two-qubit state (U_A x U_B) rho (U_A x U_B)^dag for Haar-random U_A, U_B."""
    u = np.kron(random_unitary(gen, 2), random_unitary(gen, 2))
    return DensityOperator.from_matrix(u @ matrix @ u.conj().T, SPACE22)


def random_two_qubit_mixed(gen, rank=4):
    g = gen.normal(size=(4, rank)) + 1j * gen.normal(size=(4, rank))
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real, SPACE22)


class TestSchmidt:
    def test_product_state(self):
        psi = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        form = schmidt_decompose(psi, (2, 2))
        assert form.rank == 1
        assert form.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_bell_state(self):
        form = schmidt_decompose(bell_ket(), (2, 2))
        assert np.allclose(form.coefficients, [2**-0.5, 2**-0.5], atol=1e-12)

    def test_random_qutrit_reconstruction(self):
        psi = random_ket(RNG, 9)
        form = schmidt_decompose(psi, (3, 3))
        assert np.max(np.abs(reconstruct(form) - psi)) < 1e-9
        assert form.rank <= 3
        assert np.all(np.diff(form.coefficients) <= 1e-15)
        assert np.sum(form.coefficients**2) == pytest.approx(1.0, abs=1e-9)

    def test_rectangular_factors(self):
        psi = random_ket(RNG, 6)
        form = schmidt_decompose(psi, (2, 3))
        assert form.rank <= 2
        assert np.max(np.abs(reconstruct(form) - psi)) < 1e-9

    def test_non_unit_vector_rejected(self):
        with pytest.raises(InputError):
            schmidt_decompose(np.ones(4), (2, 2))

    def test_rectangular_product_has_rank_one(self):
        gen = rng(17)
        for _ in range(20):
            psi = np.kron(random_ket(gen, 2), random_ket(gen, 3))
            form = schmidt_decompose(psi, (2, 3))
            assert form.rank == 1
            assert np.max(np.abs(reconstruct(form) - psi)) < 1e-12

    def test_small_schmidt_weight_is_kept(self):
        gen = rng(19)
        weight = 1e-7
        for _ in range(20):
            u, v = random_unitary(gen, 2), random_unitary(gen, 3)
            psi = (math.sqrt(1 - weight) * np.kron(u[:, 0], v[:, 0])
                   + math.sqrt(weight) * np.kron(u[:, 1], v[:, 1]))
            form = schmidt_decompose(psi, (2, 3))
            assert form.rank == 2
            assert np.allclose(form.coefficients**2, [1 - weight, weight], rtol=1e-9, atol=0)


class TestEntropyOfEntanglement:
    def test_product_state_zero(self):
        psi = np.kron(random_ket(RNG, 2), random_ket(RNG, 3))
        assert entropy_of_entanglement(psi, (2, 3)).nats < 1e-10

    def test_schmidt_pair(self):
        assert entropy_of_entanglement(two_qubit_pure(0.25), (2, 2)).nats == pytest.approx(
            h_bin(0.25), abs=1e-12)

    def test_maximally_entangled(self):
        for n in (2, 3):
            psi = np.zeros(n * n, dtype=complex)
            for i in range(n):
                psi[i * n + i] = n**-0.5
            assert entropy_of_entanglement(psi, (n, n)).nats == pytest.approx(
                math.log(n), abs=1e-12)

    def test_both_marginals_agree(self):
        psi = random_ket(RNG, 6)
        rho = DensityOperator.from_ket(psi, TensorSpace.bipartite(2, 3))
        from erasure_lab.entropy import von_neumann_entropy
        s_a = von_neumann_entropy(rho.reduced({"A"})).nats
        s_b = von_neumann_entropy(rho.reduced({"B"})).nats
        assert abs(s_a - s_b) < 1e-9
        assert entropy_of_entanglement(psi, (2, 3)).nats == pytest.approx(s_a, abs=1e-9)


class TestClosestProductState:
    """The Frank-Wolfe linear oracle, ``_product_maximize``."""

    def objective(self, g, a, b):
        ket = np.kron(a, b)
        return float(np.real(ket.conj() @ g @ ket))

    def closest(self, g, dims=(2, 2)):
        a, b, _ = entanglement._product_maximize(np.asarray(g, dtype=complex), dims, rng(0))
        return a, b

    def test_basis_projector(self):
        g = np.zeros((4, 4), dtype=complex)
        g[1, 1] = 1.0  # |0>|1>
        a, b = self.closest(g)
        assert self.objective(g, a, b) == pytest.approx(1.0, abs=1e-9)
        assert abs(a[0]) == pytest.approx(1.0, abs=1e-6)
        assert abs(b[1]) == pytest.approx(1.0, abs=1e-6)

    def test_identity(self):
        a, b = self.closest(np.eye(4))
        assert self.objective(np.eye(4), a, b) == pytest.approx(1.0, abs=1e-9)

    def test_bell_projector_caps_at_half(self):
        g = np.outer(bell_ket(), bell_ket().conj())
        a, b = self.closest(g)
        value = self.objective(g, a, b)
        assert value == pytest.approx(0.5, abs=1e-9)
        # brute force over a parametrized product grid never beats the oracle
        thetas = np.linspace(0, math.pi / 2, 25)
        phis = np.linspace(0, 2 * math.pi, 25, endpoint=False)
        t, p = (x.reshape(-1) for x in np.meshgrid(thetas, phis, indexing="ij"))
        grid = np.stack([np.cos(t), np.sin(t) * np.exp(1j * p)], axis=1)  # 625 kets
        kets = (grid[:, None, :, None] * grid[None, :, None, :]).reshape(-1, 4)
        best = np.max(np.real(np.einsum("ni,ij,nj->n", kets.conj(), g, kets)))
        assert best <= value + 1e-6

    def test_ket_projector_on_two_by_four(self):
        # max over product kets of |<a b|psi>|^2 is psi's largest squared
        # Schmidt coefficient; the 2-dimensional blocks go through eigh
        gen = rng(23)
        for _ in range(5):
            psi = random_ket(gen, 8)
            g = np.outer(psi, psi.conj())
            a, b, value = entanglement._product_maximize(g, (2, 4), gen)
            top = schmidt_decompose(psi, (2, 4)).coefficients[0] ** 2
            assert value == pytest.approx(top, abs=1e-12)
            assert self.objective(g, a, b) == pytest.approx(top, abs=1e-12)


class TestRelativeEntropyOfEntanglement:
    def test_separable_inputs_near_zero(self):
        gen = rng(11)
        for _ in range(3):
            mixture = SeparableMixture(tuple(random_product_terms(gen, 2, 2, 5)))
            result = relative_entropy_of_entanglement(assemble(mixture))
            assert result.value <= 1e-4

    def test_bell_state(self):
        rho = DensityOperator.from_ket(bell_ket(), SPACE22)
        result = relative_entropy_of_entanglement(rho, SolverOptions(gap_tol=1e-3, max_iter=4000))
        assert result.value == pytest.approx(LN2, abs=1e-3)
        assert result.status == "converged"

    def test_pure_state_collapse(self):
        rho = DensityOperator.from_ket(two_qubit_pure(0.25), SPACE22)
        result = relative_entropy_of_entanglement(rho, SolverOptions(gap_tol=1e-3, max_iter=4000))
        assert result.value == pytest.approx(h_bin(0.25), abs=1e-3)

    def test_objective_monotone_and_nonnegative(self):
        gen = rng(5)
        rho = random_two_qubit_mixed(gen)
        result = relative_entropy_of_entanglement(rho, SolverOptions(max_iter=300))
        objectives = [obj for _, obj, _ in result.convergence]
        assert all(objectives[i + 1] <= objectives[i] + 1e-9 for i in range(len(objectives) - 1))
        assert result.value >= 0.0
        gaps = [gap for _, _, gap in result.convergence]
        assert all(g >= -1e-9 for g in gaps)

    def test_converged_gap_below_tolerance(self):
        rho = DensityOperator.from_ket(two_qubit_pure(0.1), SPACE22)
        opts = SolverOptions(gap_tol=1e-3, max_iter=4000)
        result = relative_entropy_of_entanglement(rho, opts)
        assert result.status == "converged"
        assert result.convergence[-1][2] <= opts.gap_tol

    def test_argmin_is_valid_mixture(self):
        gen = rng(6)
        rho = random_two_qubit_mixed(gen)
        result = relative_entropy_of_entanglement(rho, SolverOptions(max_iter=400))
        assembled = assemble(result.argmin)
        # the minimizing mixture reproduces the solver's objective value
        check = relative_entropy(rho, assembled).nats
        assert check == pytest.approx(result.value, abs=1e-6)

    def test_deterministic_under_seed(self):
        rho = DensityOperator.from_ket(two_qubit_pure(0.3), SPACE22)
        opts = SolverOptions(gap_tol=1e-3, max_iter=500, seed=9)
        r1 = relative_entropy_of_entanglement(rho, opts)
        r2 = relative_entropy_of_entanglement(rho, opts)
        assert r1.value == r2.value
        assert r1.convergence == r2.convergence

    def test_local_unitary_invariance(self):
        gen = rng(13)
        rho = DensityOperator.from_ket(two_qubit_pure(0.2), SPACE22)
        u = np.kron(random_unitary(gen, 2), random_unitary(gen, 2))
        rotated = DensityOperator(SPACE22, u @ rho.matrix @ u.conj().T)
        opts = SolverOptions(gap_tol=1e-3, max_iter=4000)
        v1 = relative_entropy_of_entanglement(rho, opts).value
        v2 = relative_entropy_of_entanglement(rotated, opts).value
        assert abs(v1 - v2) <= 2e-3

    @pytest.mark.parametrize("weights", [
        (0.25, 0.25, 0.25, 0.25),
        (0.5, 0.5, 0.0, 0.0),
        (0.4, 0.3, 0.3, 0.0),
        (0.5, 0.25, 0.25, 0.0),
        (0.6, 0.4, 0.0, 0.0),
        (0.8, 0.2, 0.0, 0.0),
        (0.85, 0.05, 0.05, 0.05),
        (0.7, 0.1, 0.1, 0.1),
        (1.0, 0.0, 0.0, 0.0),
    ])
    def test_bell_diagonal_closed_form(self, weights):
        rho = DensityOperator.from_matrix(bell_diagonal(weights), SPACE22)
        result = relative_entropy_of_entanglement(rho)
        exact = bell_diagonal_ere(weights)
        assert result.status == "converged"
        assert result.value == pytest.approx(exact, abs=1e-6)
        assert -1e-12 <= result.value - exact <= result.convergence[-1][2]

    @pytest.mark.parametrize("q", [0.0, 0.2, 1.0 / 3.0, 0.6, 0.9])
    def test_werner_family_closed_form(self, q):
        bp = np.outer(bell_ket(), bell_ket().conj())
        rho = DensityOperator.from_matrix(q * bp + (1 - q) * np.eye(4) / 4, SPACE22)
        exact = bell_diagonal_ere(((1 + 3 * q) / 4,) + ((1 - q) / 4,) * 3)
        assert relative_entropy_of_entanglement(rho).value == pytest.approx(exact, abs=1e-6)

    def test_pure_states_certified_against_entropy_of_entanglement(self):
        gen = rng(14)
        for _ in range(5):
            psi = random_ket(gen, 4)
            rho = DensityOperator.from_ket(psi, SPACE22)
            result = relative_entropy_of_entanglement(rho)
            exact = entropy_of_entanglement(psi, (2, 2)).nats
            assert result.value == pytest.approx(exact, abs=1e-6)
            # both sides are at rounding level for a pure state
            assert -1e-12 <= result.value - exact <= result.convergence[-1][2] + CLOSED_FORM_ROUNDING
            check = relative_entropy(rho, assemble(result.argmin)).nats
            assert check == pytest.approx(result.value, abs=1e-9)
            assert len(result.argmin.terms) <= 4

    def test_iteration_cap_counts_centring_steps(self):
        # an entangled state that no closed form certifies: pure, separable and
        # Bell-diagonal states are exact without the barrier
        rho = DensityOperator.from_matrix(noisy_ket(0.2, 0.1), SPACE22)
        result = relative_entropy_of_entanglement(rho, SolverOptions(max_iter=3, gap_tol=1e-12))
        assert result.status == "iteration-cap"
        assert len(result.convergence) == 4
        assert result.argmin is not None

    def test_dimension_cap(self):
        rho = DensityOperator(TensorSpace.bipartite(5, 2), np.eye(10) / 10)
        with pytest.raises(InputError):
            relative_entropy_of_entanglement(rho)

    def test_requires_bipartite_space(self):
        rho = DensityOperator.from_matrix(np.eye(4) / 4)
        with pytest.raises(InputError):
            relative_entropy_of_entanglement(rho)

    def test_convergence_csv_format(self):
        rho = DensityOperator.from_ket(bell_ket(), SPACE22)
        result = relative_entropy_of_entanglement(rho, SolverOptions(gap_tol=1e-2, max_iter=100))
        lines = result.convergence_csv().strip().split("\n")
        assert lines[0] == "iteration,objective,gap"
        assert len(lines) == len(result.convergence) + 1


class TestEntanglementOfCreation:
    def test_pure_state_shortcut(self):
        psi = two_qubit_pure(0.3)
        rho = DensityOperator.from_ket(psi, SPACE22)
        result = entanglement_of_creation(rho)
        assert result.value == pytest.approx(h_bin(0.3), abs=1e-9)
        assert len(result.decomposition) == 1

    def test_separable_mixture_near_zero(self):
        gen = rng(21)
        mixture = SeparableMixture(tuple(random_product_terms(gen, 2, 2, 5)))
        result = entanglement_of_creation(assemble(mixture))
        assert result.value == 0.0

    def test_werner_family_matches_concurrence_oracle(self):
        bp = np.outer(bell_ket(), bell_ket().conj())
        for q in (0.2, 0.5, 0.8):
            m = q * bp + (1 - q) * np.eye(4) / 4
            rho = DensityOperator.from_matrix(m, SPACE22)
            result = entanglement_of_creation(rho)
            assert result.value == pytest.approx(wootters_eof_nats(m), abs=1e-3)

    def test_random_mixed_states_match_oracle(self):
        gen = rng(22)
        for _ in range(3):
            rho = random_two_qubit_mixed(gen)
            result = entanglement_of_creation(rho)
            assert result.value == pytest.approx(wootters_eof_nats(rho.matrix), abs=1e-3)

    def test_two_qubit_status_certified_by_concurrence(self):
        gen = rng(25)
        opts = SolverOptions(gap_tol=1e-3)
        for _ in range(3):
            rho = random_two_qubit_mixed(gen)
            result = entanglement_of_creation(rho, opts)
            assert result.status == "converged"
            assert result.gap == pytest.approx(result.value - wootters_eof_nats(rho.matrix), abs=1e-9)
            assert result.gap <= opts.gap_tol
            assert len(result.decomposition) == 4  # one branch per Wootters ket

    def test_heavy_tailed_descent_state_is_exact(self):
        # the 17th state of this stream took the old 2x2 descent 4.6 s and
        # ended "step-cap" 1.5e-5 above Wootters' value
        gen = rng(77)
        for _ in range(17):
            rho = random_two_qubit_mixed(gen)
        result = entanglement_of_creation(rho)
        assert result.status == "converged"
        assert result.value == pytest.approx(wootters_eof_nats(rho.matrix), abs=1e-8)

    def test_decomposition_reassembles_state(self):
        gen = rng(23)
        rho = random_two_qubit_mixed(gen)
        result = entanglement_of_creation(rho)
        rebuilt = sum(p * np.outer(psi, psi.conj()) for p, psi in result.decomposition)
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-8

    @pytest.mark.parametrize("shape", [(4, 4), (9, 6), (16, 9)])
    def test_branches_match_the_row_loop(self, shape):
        gen = rng(26)
        y = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        y[1] = 0.0
        y[2] *= 1e-8  # weight about 1e-15, under the 1e-12 floor
        for floor in (0.0, 1e-12):
            expected = []
            for row in y:
                p = float(np.sum(np.abs(row) ** 2))
                if p > floor:
                    expected.append((p, row / math.sqrt(p)))
            total = sum(p for p, _ in expected)
            branches = entanglement._branches(y, floor)
            assert len(branches) == len(expected) == shape[0] - 1 - (floor > 0.0)
            for (p, psi), (q, phi) in zip(branches, expected):
                assert type(p) is float and p == pytest.approx(q / total, rel=1e-15, abs=0.0)
                assert np.array_equal(psi, phi)

    def test_ordering_against_relative_entropy(self):
        gen = rng(24)
        for _ in range(3):
            rho = random_two_qubit_mixed(gen)
            e_c = entanglement_of_creation(rho).value
            e_re = relative_entropy_of_entanglement(
                rho, SolverOptions(gap_tol=1e-3, max_iter=4000)).value
            assert e_c + 1e-3 >= e_re


def _wootters_cases():
    gen = rng(27)
    cases = [pytest.param(random_two_qubit_mixed(gen, r).matrix, id=f"rank{r}-{i}")
             for r in (2, 3, 4) for i in range(4)]
    for weights in ((0.7, 0.1, 0.1, 0.1), (0.5, 0.5, 0.0, 0.0), (0.4, 0.3, 0.2, 0.1),
                    (0.9, 0.0, 0.1, 0.0)):
        cases.append(pytest.param(bell_diagonal(weights).astype(complex), id=f"bell{weights}"))
    bp = np.outer(bell_ket(), bell_ket().conj())
    for q in (0.0, 1.0 / 3.0, 0.5, 1.0):
        cases.append(pytest.param(q * bp + (1 - q) * np.eye(4) / 4, id=f"werner{q:.3f}"))
    return cases


class TestWoottersDecomposition:
    """The two-qubit E_C decomposition is Wootters' construction: it
    reassembles rho, every branch carries the state's concurrence, and the
    average branch entanglement is the closed form."""

    @pytest.mark.parametrize("matrix", _wootters_cases())
    def test_decomposition(self, matrix):
        result = entanglement_of_creation(DensityOperator.from_matrix(matrix, SPACE22))
        assert result.status == "converged"
        assert result.gap == 0.0
        rebuilt = sum(p * np.outer(psi, psi.conj()) for p, psi in result.decomposition)
        assert np.max(np.abs(rebuilt - matrix)) <= 1e-12
        _, c = entanglement._wootters_kets(*np.linalg.eigh(matrix))
        assert c == pytest.approx(concurrence_oracle(matrix), abs=1e-7)  # the oracle's noise
        for p, psi in result.decomposition:
            if p > 1e-6:
                assert abs(psi @ YY @ psi) == pytest.approx(c, abs=1e-9)
        assert result.value == pytest.approx(wootters_eof_nats(matrix), abs=1e-8)

    def test_concurrence_oracle_matches_mpmath(self):
        # the eigenvalues of rho rho~ in double precision put E_C 2.4e-8 and
        # 1.6e-8 off on two of these rank-2 states
        gen = rng(84)
        for _ in range(24):
            for rank in (2, 3):
                matrix = random_two_qubit_mixed(gen, rank).matrix
                c = mpmath_concurrence(matrix)
                assert concurrence_oracle(matrix) == pytest.approx(c, abs=1e-12)
                assert wootters_eof_nats(matrix) == pytest.approx(
                    h_bin((1 + math.sqrt(1 - c * c)) / 2), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(rank=st.integers(1, 4),
       entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
def test_two_qubit_measures_are_ordered(rank, entries):
    """E_C >= E_RE - gap_tol and E_RE >= max(S_A, S_B) - S(rho) on random states."""
    g = np.reshape(entries, (2, 4, 4))[:, :, :rank]
    m = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    assume(np.trace(m).real > 1e-3)
    rho = DensityOperator.from_matrix(m / np.trace(m).real, SPACE22)
    opts = SolverOptions()
    e_re = relative_entropy_of_entanglement(rho, opts).value
    e_c = entanglement_of_creation(rho, opts).value
    s_a = von_neumann_entropy(rho.reduced(["A"])).nats
    s_b = von_neumann_entropy(rho.reduced(["B"])).nats
    assert e_c >= e_re - opts.gap_tol
    assert e_re >= max(s_a, s_b) - von_neumann_entropy(rho).nats - 1e-9


class TestBeyondTwoQubits:
    """2x3 and 3x2 run the PPT barrier, larger factors Frank-Wolfe, and E_C
    the uncertified descent on both; a two-qubit state carried in by a local
    isometry keeps both measures, so the two-qubit closed forms are exact
    oracles there."""

    WEIGHTS = (0.8, 0.0, 0.2, 0.0)  # rank two, entangled

    def test_barrier_brackets_the_closed_form(self):
        rho = embed_two_qubit(bell_diagonal(self.WEIGHTS))
        opts = SolverOptions(gap_tol=1e-3)
        result = relative_entropy_of_entanglement(rho, opts)
        exact = bell_diagonal_ere(self.WEIGHTS)
        final_gap = result.convergence[-1][2]
        assert result.status == "converged"
        assert 0.0 <= final_gap <= opts.gap_tol
        assert exact - 1e-8 <= result.value <= exact + final_gap

    def test_descent_matches_wootters(self):
        matrix = bell_diagonal(self.WEIGHTS)
        result = entanglement_of_creation(embed_two_qubit(matrix))
        assert result.value == pytest.approx(wootters_eof_nats(matrix), abs=1e-3)
        assert result.gap is None

    def test_stall_guard_reports_stalled(self, monkeypatch):
        # Frank-Wolfe runs only beyond 2x3, so the state is carried into 2x4
        monkeypatch.setattr(entanglement, "_STALL_TOL", 1.0)
        monkeypatch.setattr(entanglement, "_STALL_ITERATIONS", 2)
        rho = embed_two_qubit(bell_diagonal(self.WEIGHTS), 4)
        opts = SolverOptions(gap_tol=1e-6)
        result = relative_entropy_of_entanglement(rho, opts)
        assert result.status == "stalled"
        assert len(result.convergence) == 3

    def test_frank_wolfe_converges_at_the_maximally_mixed_start(self):
        # I/9 is Frank-Wolfe's starting point and separable: the gap is 0 at once
        rho = DensityOperator(TensorSpace.bipartite(3, 3), np.eye(9) / 9)
        result = relative_entropy_of_entanglement(rho)
        assert result.status == "converged"
        assert result.convergence == ((0, 0.0, 0.0),)
        assert result.value == 0.0

    def test_frank_wolfe_iteration_cap(self):
        rho = random_density(rng(3), 9, space=TensorSpace.bipartite(3, 3))
        result = relative_entropy_of_entanglement(rho, SolverOptions(max_iter=3))
        assert result.status == "iteration-cap"
        assert len(result.convergence) == 4


RANK_TWO_BELL_WEIGHTS = [
    (0.8, 0.0, 0.2, 0.0),
    (0.6, 0.4, 0.0, 0.0),
    (0.9, 0.0, 0.0, 0.1),
    (0.55, 0.0, 0.45, 0.0),
    (0.0, 0.3, 0.0, 0.7),
]


def embedded_rank_two_bell_diagonal(weights):
    """The Bell-diagonal state carried into 2x3, as it is and in one local frame."""
    gen = rng(63)
    u = np.kron(random_unitary(gen, 2), random_unitary(gen, 3))
    m = embed_two_qubit(bell_diagonal(weights)).matrix
    space = TensorSpace.bipartite(2, 3)
    return DensityOperator.from_matrix(m, space), DensityOperator.from_matrix(u @ m @ u.conj().T, space)


def _assert_certified(result, exact, gap_tol):
    final_gap = result.convergence[-1][2]
    assert result.status == "converged"
    assert 0.0 <= final_gap <= gap_tol
    assert abs(result.value - exact) <= 1e-8
    assert -1e-12 <= result.value - exact <= final_gap


class TestTwoByThreeBarrier:
    """On 2x3 every PPT state is separable, so the barrier's value is E_RE
    with a certified gap; these are the states Frank-Wolfe took seconds on."""

    OPTS = SolverOptions(gap_tol=1e-5)

    @pytest.mark.parametrize("weights", [
        (0.8, 0.1, 0.05, 0.05),  # Frank-Wolfe: 1,527 iterations, 41 s
        (0.8, 0.0, 0.2, 0.0),    # rank two
        (0.6, 0.2, 0.1, 0.1),
        (0.95, 0.05, 0.0, 0.0),
    ])
    def test_embedded_bell_diagonal(self, weights):
        rho = embed_two_qubit(bell_diagonal(weights))
        result = relative_entropy_of_entanglement(rho, self.OPTS)
        _assert_certified(result, LN2 - h_bin(max(weights)), self.OPTS.gap_tol)
        assert result.argmin is None

    @pytest.mark.parametrize("weight", [0.08, 0.45])  # 0.45 took Frank-Wolfe 22 s
    def test_pure_kets(self, weight):
        gen = rng(61)
        for _ in range(2):
            u, v = random_unitary(gen, 2), random_unitary(gen, 3)
            psi = (math.sqrt(1 - weight) * np.kron(u[:, 0], v[:, 0])
                   + math.sqrt(weight) * np.kron(u[:, 1], v[:, 1]))
            rho = DensityOperator.from_ket(psi, TensorSpace.bipartite(2, 3))
            result = relative_entropy_of_entanglement(rho, self.OPTS)
            _assert_certified(result, entropy_of_entanglement(psi, (2, 3)).nats, self.OPTS.gap_tol)

    def test_three_by_two_matches_the_swapped_state(self):
        gen = rng(62)
        g = gen.normal(size=(6, 2)) + 1j * gen.normal(size=(6, 2))
        m = g @ g.conj().T / np.trace(g @ g.conj().T).real
        swapped = m.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2).reshape(6, 6)
        r23 = relative_entropy_of_entanglement(
            DensityOperator.from_matrix(m, TensorSpace.bipartite(2, 3)), self.OPTS)
        r32 = relative_entropy_of_entanglement(
            DensityOperator.from_matrix(swapped, TensorSpace.bipartite(3, 2)), self.OPTS)
        assert r23.status == r32.status == "converged"
        assert r32.value == pytest.approx(r23.value, abs=1e-10)

    @pytest.mark.parametrize("weights", RANK_TWO_BELL_WEIGHTS)
    def test_embedded_rank_two_bell_diagonal_at_small_gap_tol(self, weights):
        # the path runs to t = 1e11 here, where Newton steps lose precision
        # and the last centring step may fail; the run must still be certified
        opts = SolverOptions(gap_tol=1e-7)
        exact = LN2 - h_bin(max(weights))
        for rho in embedded_rank_two_bell_diagonal(weights):
            result = relative_entropy_of_entanglement(rho, opts)
            final_gap = result.convergence[-1][2]
            assert result.status == "converged"
            assert 0.0 <= final_gap <= opts.gap_tol
            assert -1e-12 <= result.value - exact <= final_gap

    @pytest.mark.parametrize("d", [4, 6])
    def test_traceless_basis(self, d):
        basis = entanglement._traceless_basis(d)
        assert basis.shape == (d * d - 1, d, d)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.max(np.abs(gram - np.eye(d * d - 1))) <= 1e-15
        assert np.max(np.abs(np.trace(basis, axis1=1, axis2=2))) <= 1e-15
        assert np.array_equal(basis, basis.conj().swapaxes(1, 2))


class _CountingLinalg:
    """numpy.linalg with a call counter per function name."""

    def __init__(self):
        self.calls = {}

    def __getattr__(self, name):
        fn = getattr(np.linalg, name)
        if isinstance(fn, type):  # LinAlgError
            return fn

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted


class _NumpyWithCountingLinalg:
    def __init__(self, linalg):
        self.linalg = linalg

    def __getattr__(self, name):
        return getattr(np, name)


def _two_by_three_ket():
    ket = np.zeros(6)
    ket[0], ket[4] = math.sqrt(0.92), math.sqrt(0.08)
    return DensityOperator.from_ket(ket, TensorSpace.bipartite(2, 3))


class TestBarrierWork:
    """Work per barrier solve, counted through the module's np.linalg: one
    eigen call per objective evaluation (an eigvalsh of omega^{T_B} until
    both blocks shared one eigh) and one solve per Newton system. Before the centring steps were warm-started and the
    Newton system split by t, these states took 110 / 93 / 92 evaluations
    and 68 / 57 / 57 solves; each count must stay within two thirds of that.
    Starting the path at t = 100 instead of 1 took them from 42 / 33 / 40
    evaluations and 38 / 32 / 37 solves to 35 / 26 / 34 and 31 / 23 / 30.
    Centring loosely while nu/t cannot certify took the solves to 24 / 20 /
    23 and the evaluations to 30 / 31 / 28; the eigvalsh count adds one per
    loose row, for its dual bound, so it reads 34 / 35 / 31.
    Diagonalising omega and omega^{T_B} in one stacked eigh per evaluation,
    reading the Newton system's and the dual bound's eigensystems and
    inverses from that call, and starting the path from rho mixed toward I/d
    took these three to 36 / 40 / 30 eigh + eigvalsh calls and 21 / 19 / 21
    solves, and the ten uncertified Wishart states below from 56.0 eigh,
    34.7 eigvalsh, 8.0 inv and 22.4 solves per call to 29.0 eigh, 5.0
    eigvalsh, no inv and 19.9 solves.
    The barrier is called directly, since relative_entropy_of_entanglement
    takes pure states to the closed form."""

    @pytest.mark.parametrize("make_rho, opts, evaluations, solves", [
        (lambda: DensityOperator.from_ket(two_qubit_pure(0.25), SPACE22), SolverOptions(), 110, 68),
        (lambda: DensityOperator.from_matrix(bell_diagonal((0.8, 0.1, 0.05, 0.05)), SPACE22),
         SolverOptions(), 93, 57),
        (_two_by_three_ket, SolverOptions(gap_tol=1e-3), 92, 57),
    ], ids=["pure-0.25", "bell-diagonal", "2x3-ket"])
    def test_counts_within_two_thirds_of_before(self, monkeypatch, make_rho, opts,
                                                evaluations, solves):
        rho = make_rho()
        linalg = _CountingLinalg()
        monkeypatch.setattr(entanglement, "np", _NumpyWithCountingLinalg(linalg))
        result = entanglement._ppt_barrier(rho.matrix, von_neumann_entropy(rho).nats,
                                           rho.space.dims, opts)
        assert result.status == "converged"
        assert linalg.calls.get("eigh", 0) + linalg.calls.get("eigvalsh", 0) <= 2 * evaluations / 3
        assert linalg.calls["solve"] <= 2 * solves / 3

    @pytest.mark.parametrize("make_rho", [
        lambda: DensityOperator.from_matrix(bell_diagonal((0.8, 0.1, 0.05, 0.05)), SPACE22),
        lambda: local_frame(bell_diagonal((0.1, 0.6, 0.2, 0.1)), rng(67)),
        lambda: local_frame(bell_diagonal((0.0, 0.3, 0.0, 0.7)), rng(67)),
        lambda: DensityOperator.from_matrix(werner(0.2), SPACE22),
        lambda: assemble(SeparableMixture(tuple(random_product_terms(rng(68), 2, 3, 4)))),
    ], ids=["bell-diagonal", "bell-diagonal-in-a-frame", "rank-two-bell-diagonal-in-a-frame",
            "werner-0.2", "2x3-separable"])
    def test_closed_forms_make_no_newton_solve(self, monkeypatch, make_rho):
        rho = make_rho()
        linalg = _CountingLinalg()
        monkeypatch.setattr(entanglement, "np", _NumpyWithCountingLinalg(linalg))
        result = relative_entropy_of_entanglement(rho)
        assert result.status == "converged"
        assert len(result.convergence) == 1
        assert linalg.calls.get("solve", 0) == 0


    def test_uncertified_wishart_states_average_at_most_20_solves(self, monkeypatch):
        # centred fully at every t these ten took 31.5 solves per call on
        # average, 22.4 with the loose steps and 19.9 started from rho mixed
        # toward I/d; each makes one eigh per evaluation and no inv
        gen, states = rng(70), []
        while len(states) < 10:
            rho = random_two_qubit_mixed(gen, 2 + len(states) % 3)
            s_rho = von_neumann_entropy(rho).nats
            certified = entanglement._entangled_fraction_ere(rho.matrix, s_rho)
            if min_pt_eigenvalue(rho.matrix) >= 0.0 or (
                    certified is not None and certified.convergence[-1][2] <= SolverOptions().gap_tol):
                continue
            states.append((rho.matrix, s_rho))
        linalg = _CountingLinalg()
        monkeypatch.setattr(entanglement, "np", _NumpyWithCountingLinalg(linalg))
        for matrix, s_rho in states:
            result = entanglement._ppt_barrier(matrix, s_rho, (2, 2), SolverOptions())
            assert result.status == "converged"
        assert linalg.calls["solve"] / len(states) <= 20
        assert (linalg.calls["eigh"] + linalg.calls["eigvalsh"]) / len(states) <= 35
        assert "inv" not in linalg.calls

    @pytest.mark.parametrize("weights", RANK_TWO_BELL_WEIGHTS)
    def test_small_gap_tol_stops_at_the_rounding_floor(self, monkeypatch, weights):
        # at gap_tol 1e-7 the decrement of the t = 1e11 centring step stalls
        # at 1e-11 - 1e-10; when all _NEWTON_STEPS full steps ran before that
        # step failed, these solves took 55 - 92 Newton solves
        opts = SolverOptions(gap_tol=1e-7)
        exact = LN2 - h_bin(max(weights))
        for rho in embedded_rank_two_bell_diagonal(weights):
            linalg = _CountingLinalg()
            monkeypatch.setattr(entanglement, "np", _NumpyWithCountingLinalg(linalg))
            result = relative_entropy_of_entanglement(rho, opts)
            monkeypatch.undo()
            assert result.status == "converged"
            assert -1e-12 <= result.value - exact <= result.convergence[-1][2]
            assert linalg.calls["solve"] <= 60


def _direct_barrier(rho, opts):
    return entanglement._ppt_barrier(rho.matrix, von_neumann_entropy(rho).nats, rho.space.dims, opts)


def _row_nu_over_t(rho, it):
    """nu / t at trace row it: nu = 2d, t = _BARRIER_START * _BARRIER_GROWTH^it."""
    t = entanglement._BARRIER_START * entanglement._BARRIER_GROWTH**it
    return 2.0 * rho.matrix.shape[0] / t


def _bell_diagonal_in_a_frame(seed):
    """An entangled Bell-diagonal state (lambda_max > 1/2) in a random local frame,
    with its exact E_RE."""
    gen = rng(seed)
    weights = gen.dirichlet(np.ones(4))
    while weights.max() <= 0.5:
        weights = gen.dirichlet(np.ones(4))
    return local_frame(bell_diagonal(weights), gen), bell_diagonal_ere(weights)


def _assert_rows_honest(result, rho, exact, gap_tol):
    """Every row's gap bounds its objective's excess over E_RE, and only a row
    whose nu/t is within gap_tol may certify the run."""
    for _, value, gap in result.convergence:
        assert value - exact <= gap + 1e-12
    if result.status == "converged":
        assert _row_nu_over_t(rho, result.convergence[-1][0]) <= gap_tol


class TestBarrierRows:
    """Rows on which nu/t > gap_tol are centred only to _LOOSE_DECREMENT and
    carry the dual gap f - LB, LB = f + 1 + lambda_min(G - Z_1 - Z_2^{T_B});
    certifying rows are centred fully and carry nu/t. On Bell-diagonal
    states, in any local frame or carried into 2x3, E_RE is exact, so each
    row's bound is checked against it."""

    @pytest.mark.parametrize("gap_tol", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("seed", range(71, 75))
    def test_rows_bound_the_excess_in_local_frames(self, seed, gap_tol):
        rho, exact = _bell_diagonal_in_a_frame(seed)
        opts = SolverOptions(gap_tol=gap_tol)
        result = _direct_barrier(rho, opts)
        assert result.status == "converged"
        assert _row_nu_over_t(rho, 0) > gap_tol  # the first row is a loose one
        _assert_rows_honest(result, rho, exact, gap_tol)

    @pytest.mark.parametrize("weights", [(0.8, 0.1, 0.05, 0.05), (0.6, 0.2, 0.1, 0.1)]
                             + RANK_TWO_BELL_WEIGHTS)
    def test_rows_bound_the_excess_on_embedded_states(self, weights):
        opts = SolverOptions(gap_tol=1e-5)
        exact = bell_diagonal_ere(weights)
        for rho in embedded_rank_two_bell_diagonal(weights):
            result = _direct_barrier(rho, opts)
            assert result.status == "converged"
            _assert_rows_honest(result, rho, exact, opts.gap_tol)

    @pytest.mark.parametrize("seed", range(71, 75))
    def test_dual_bound_at_a_full_centre_is_nu_over_t(self, monkeypatch, seed):
        # centred fully, LB = f - nu/t; the rows at t <= 1e4 are loose at
        # gap_tol 1e-7 and so carry the dual gap
        monkeypatch.setattr(entanglement, "_LOOSE_DECREMENT", entanglement._NEWTON_DECREMENT_TOL)
        rho, _ = _bell_diagonal_in_a_frame(seed)
        result = _direct_barrier(rho, SolverOptions(gap_tol=1e-7))
        assert result.status == "converged"
        rows = [(it, gap) for it, _, gap in result.convergence if it <= 2]
        assert len(rows) == 3
        for it, gap in rows:
            assert gap == pytest.approx(_row_nu_over_t(rho, it), rel=1e-3)

    @pytest.mark.parametrize("gap_tol", [1e-3, 1e-5, 1e-7])
    def test_loose_centring_keeps_the_final_point(self, monkeypatch, gap_tol):
        # the certifying steps centre fully from wherever the loose ones left
        # the path, so only the loose rows move
        rho = random_two_qubit_mixed(rng(76), 3)
        opts = SolverOptions(gap_tol=gap_tol)
        loose = _direct_barrier(rho, opts)
        monkeypatch.setattr(entanglement, "_LOOSE_DECREMENT", entanglement._NEWTON_DECREMENT_TOL)
        full = _direct_barrier(rho, opts)
        assert loose.status == full.status == "converged"
        assert len(loose.convergence) == len(full.convergence)
        assert loose.convergence[-1][2] == full.convergence[-1][2]
        assert abs(loose.value - full.value) <= 1e-13

    def test_iteration_cap_on_a_loose_row(self):
        rho, exact = _bell_diagonal_in_a_frame(71)
        opts = SolverOptions(max_iter=1, gap_tol=1e-12)
        result = _direct_barrier(rho, opts)
        assert result.status == "iteration-cap"
        assert len(result.convergence) == 2
        assert all(_row_nu_over_t(rho, it) > opts.gap_tol for it, _, _ in result.convergence)
        _assert_rows_honest(result, rho, exact, opts.gap_tol)
        assert result.value - exact <= result.convergence[-1][2] + 1e-12


def _start_cases():
    """Wishart states on 2x2, 2x3 and 3x2 of every rank, one entangled and one
    PPT where 200 draws hold one, and a product ket of each shape."""
    cases = []
    for dims in ((2, 2), (2, 3), (3, 2)):
        d, space = dims[0] * dims[1], TensorSpace.bipartite(*dims)
        gen = rng(80 + d + dims[0])
        for rank in range(1, d + 1):
            found = {}
            for _ in range(200):
                g = gen.normal(size=(d, rank)) + 1j * gen.normal(size=(d, rank))
                m = g @ g.conj().T
                m /= np.trace(m).real
                found.setdefault("ppt" if min_pt_eigenvalue(m, dims) >= 0.0 else "entangled", m)
                if len(found) == 2:
                    break
            cases += [(f"{dims[0]}x{dims[1]}-rank{rank}-{kind}", DensityOperator.from_matrix(m, space))
                      for kind, m in found.items()]
        ket = np.kron(random_ket(gen, dims[0]), random_ket(gen, dims[1]))
        cases.append((f"{dims[0]}x{dims[1]}-product-ket", DensityOperator.from_ket(ket, space)))
    return cases


START_CASES = _start_cases()


class TestBarrierStart:
    """The path starts from rho mixed toward I/d. Each centring step's
    minimizer is unique and the certifying steps centre fully, so a path
    started at I/d (x = 0) gives the same certifying rows; only the loose
    rows' entries move."""

    @pytest.mark.parametrize("rho", [rho for _, rho in START_CASES],
                             ids=[name for name, _ in START_CASES])
    def test_start_is_rho_mixed_toward_the_centre_inside_both_cones(self, rho):
        d = rho.dim
        x = entanglement._barrier_start(rho.matrix, rho.space.dims)
        omega = np.eye(d) / d + np.tensordot(x, entanglement._traceless_basis(d), 1)
        assert np.linalg.eigvalsh(omega)[0] > 0.0
        assert min_pt_eigenvalue(omega, rho.space.dims) > 0.0
        shift = rho.matrix - np.eye(d) / d
        kept = np.vdot(shift, omega - np.eye(d) / d).real / np.vdot(shift, shift).real
        assert 0.0 < kept < 1.0
        assert np.allclose(omega, np.eye(d) / d + kept * shift, atol=1e-12)

    @pytest.mark.parametrize("gap_tol", [1e-3, 1e-5, 1e-7])
    def test_start_moves_only_the_loose_rows(self, monkeypatch, gap_tol):
        opts = SolverOptions(gap_tol=gap_tol)
        for name, rho in START_CASES:
            warm = _direct_barrier(rho, opts)
            with monkeypatch.context() as patch:
                patch.setattr(entanglement, "_barrier_start",
                              lambda rho, dims: np.zeros(rho.shape[0] ** 2 - 1))
                cold = _direct_barrier(rho, opts)
            assert warm.status == cold.status == "converged", name
            # a decrement of 1e-12 leaves a centre's objective within
            # 1e-6 sqrt(nu) / t of the exact centre's, plus rounding
            for (it, f_warm, gap_warm), (_, f_cold, gap_cold) in zip(warm.convergence, cold.convergence):
                if _row_nu_over_t(rho, it) <= gap_tol:
                    assert gap_warm == gap_cold and abs(f_warm - f_cold) <= 1e-6 * gap_warm + 1e-14, name
            if gap_tol < 1e-5:
                # the last steps, at t = 1e10 and beyond, centre to the 1e-12
                # decrement or not by rounding: the row count of one unchanged
                # path moves under local unitaries too, so only the bound holds
                bound = max(warm.convergence[-1][2], cold.convergence[-1][2])
                assert abs(warm.value - cold.value) <= bound, name
                continue
            assert len(warm.convergence) == len(cold.convergence), name
            assert warm.convergence[-1][2] == cold.convergence[-1][2], name
            assert abs(warm.value - cold.value) <= 1e-12, name


def _unitary_from(entries, d):
    """The unitary factor of a QR decomposition, for any d x d complex matrix."""
    m = np.reshape(entries, (2, d, d))
    return np.linalg.qr(m[0] + 1j * m[1])[0]


@pytest.mark.parametrize("d_b", [2, 3])
@settings(max_examples=20, deadline=None)
@given(rank=st.integers(1, 6), data=st.data())
def test_relative_entropy_is_local_unitary_invariant(d_b, rank, data):
    """E_RE(rho) = E_RE((U_A x U_B) rho (U_A x U_B)^dag) to within the
    larger certified gap; the local frame moves where each centring step's
    extrapolated start lands."""
    d = 2 * d_b
    floats = st.floats(-1.0, 1.0)
    g = np.reshape(data.draw(st.lists(floats, min_size=2 * d * d, max_size=2 * d * d)), (2, d, d))
    g = (g[0] + 1j * g[1])[:, :min(rank, d)]
    m = g @ g.conj().T
    assume(np.trace(m).real > 1e-3)
    u_a = _unitary_from(data.draw(st.lists(floats, min_size=8, max_size=8)), 2)
    u_b = _unitary_from(data.draw(st.lists(floats, min_size=2 * d_b * d_b, max_size=2 * d_b * d_b)), d_b)
    u = np.kron(u_a, u_b)
    space = TensorSpace.bipartite(2, d_b)
    rho = DensityOperator.from_matrix(m / np.trace(m).real, space)
    rotated = DensityOperator.from_matrix(u @ rho.matrix @ u.conj().T, space)
    r1 = relative_entropy_of_entanglement(rho)
    r2 = relative_entropy_of_entanglement(rotated)
    assert r1.status == r2.status == "converged"
    gap = max(r1.convergence[-1][2], r2.convergence[-1][2])
    assert abs(r1.value - r2.value) <= gap + 1e-12


@pytest.mark.parametrize("d_a", [2, 3, 4])
@pytest.mark.parametrize("d_b", [2, 3, 4])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pure_states_are_exact_on_every_shape(d_a, d_b, data):
    """A ket's E_RE is its entropy of entanglement, attained at the
    Schmidt-diagonal product mixture and certified by S(rho_A) - S(rho),
    with no solver run; the barrier stays the reference where it runs."""
    d = d_a * d_b
    entries = np.reshape(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d, max_size=2 * d)), (2, d))
    psi = entries[0] + 1j * entries[1]
    assume(np.linalg.norm(psi) > 1e-3)
    psi /= np.linalg.norm(psi)
    rho = DensityOperator.from_ket(psi, TensorSpace.bipartite(d_a, d_b))
    result = relative_entropy_of_entanglement(rho)
    final_gap = result.convergence[-1][2]
    assert result.status == "converged"
    assert len(result.convergence) == 1
    assert 0.0 <= final_gap <= 1e-12
    assert all(ka.size == d_a and kb.size == d_b for _, ka, kb in result.argmin.terms)
    assert relative_entropy(rho, assemble(result.argmin)).nats == pytest.approx(result.value, abs=1e-10)
    assert result.value == pytest.approx(entropy_of_entanglement(psi, (d_a, d_b)).nats, abs=1e-10)
    if (d_a, d_b) in ((2, 2), (2, 3), (3, 2)):
        barrier = entanglement._ppt_barrier(rho.matrix, von_neumann_entropy(rho).nats,
                                            (d_a, d_b), SolverOptions())
        assert abs(result.value - barrier.value) <= barrier.convergence[-1][2] + 1e-12


class TestPureStateEdges:
    def test_product_ket(self):
        psi = np.kron(random_ket(RNG, 2), random_ket(RNG, 3))
        result = relative_entropy_of_entanglement(DensityOperator.from_ket(psi, TensorSpace.bipartite(2, 3)))
        assert result.status == "converged"
        assert result.value == 0.0
        assert len(result.argmin.terms) == 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_entangled_ket(self, d):
        # d equal Schmidt weights: the reduced state is I/d, fully degenerate
        psi = np.eye(d).reshape(-1) / math.sqrt(d)
        result = relative_entropy_of_entanglement(DensityOperator.from_ket(psi, TensorSpace.bipartite(d, d)))
        assert result.status == "converged"
        assert result.value == pytest.approx(math.log(d), abs=1e-12)
        assert result.convergence[-1][2] <= 1e-12
        assert [p for p, _, _ in result.argmin.terms] == pytest.approx([1.0 / d] * d, abs=1e-15)

    def test_near_pure_state_falls_through_to_the_barrier(self):
        # rank one to EIG_FLOOR and entangled by a Schmidt weight of 1e-13, but
        # its entropic gap is 2.4e-11: exact at the default gap_tol, handed to
        # the barrier untouched at 1e-12 (neither PPT nor certified by its
        # entangled fraction)
        m = noisy_ket(1e-13, 3.6e-12)
        rho = DensityOperator.from_matrix(m, SPACE22)
        assert np.count_nonzero(np.linalg.eigvalsh(m) > 1e-12) == 1
        exact = relative_entropy_of_entanglement(rho)
        assert len(exact.convergence) == 1 and 1e-12 < exact.convergence[-1][2] <= 1e-5
        opts = SolverOptions(gap_tol=1e-12)
        result = relative_entropy_of_entanglement(rho, opts)
        barrier = entanglement._ppt_barrier(m, von_neumann_entropy(rho).nats, (2, 2), opts)
        assert len(result.convergence) > 1
        assert result.convergence == barrier.convergence
        assert result.value == barrier.value


def _product_of_mixed_qubits():
    gen = rng(64)
    return np.kron(random_density(gen, 2).matrix, random_density(gen, 2).matrix)


class TestSeparableStates:
    """On 2x2, 2x3 and 3x2 a PPT state is separable (Peres; Horodecki), so its
    E_RE is exactly 0 and no solver runs; on 2x2 Wootters' product kets of the
    state itself are the argmin."""

    @pytest.mark.parametrize("matrix", [
        werner(0.0), werner(0.2), werner(1.0 / 3.0), np.diag([0.5, 0.0, 0.0, 0.5]),
        _product_of_mixed_qubits(),
    ], ids=["werner-0", "werner-0.2", "werner-1/3", "rank-2-classical", "product"])
    def test_two_qubit_ppt_states_are_exactly_zero(self, matrix):
        rho = DensityOperator.from_matrix(matrix, SPACE22)
        result = relative_entropy_of_entanglement(rho)
        assert result.value == 0.0
        assert result.convergence == ((0, 0.0, 0.0),)
        assert result.status == "converged"
        assert np.max(np.abs(result.argmin.matrix() - matrix)) <= 1e-10
        assert relative_entropy(rho, assemble(result.argmin)).nats <= 1e-12

    def test_parallel_product_kets_make_one_term(self):
        # Wootters' four kets of (|00><00| + |11><11|)/2 are two repeated pairs
        matrix = np.diag([0.5, 0.0, 0.0, 0.5])
        result = relative_entropy_of_entanglement(DensityOperator.from_matrix(matrix, SPACE22))
        assert len(result.argmin.terms) == 2
        assert [w for w, _, _ in result.argmin.terms] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.max(np.abs(result.argmin.matrix() - matrix)) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_merged_terms_reassemble_rank_two_states(self, seed):
        # the rounding of rho's zero eigenvalues puts the repeated kets up to
        # 1e-7 apart and in any phase; the phase-aligned mean keeps the matrix
        gen = rng(seed)
        u = np.kron(random_unitary(gen, 2), random_unitary(gen, 2))
        k1, k2 = (np.kron(random_unitary(gen, 2)[:, 0], random_unitary(gen, 2)[:, 0])
                  for _ in range(2))
        p = gen.uniform(0.1, 0.9)
        rotated_classical = u @ np.diag([p, 0.0, 0.0, 1.0 - p]) @ u.conj().T
        two_products = p * np.outer(k1, k1.conj()) + (1.0 - p) * np.outer(k2, k2.conj())
        for matrix in (rotated_classical, two_products):
            result = relative_entropy_of_entanglement(DensityOperator.from_matrix(matrix, SPACE22))
            assert result.value == 0.0
            assert len(result.argmin.terms) == 2
            assert np.max(np.abs(result.argmin.matrix() - matrix)) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_separable_two_by_three_states_are_exactly_zero(self, dims):
        # four product terms span 4 of 6 dimensions: eigvalsh puts the two
        # zero eigenvalues of the partial transpose at about -5e-17
        mixture = SeparableMixture(tuple(random_product_terms(rng(65), *dims, 4)))
        result = relative_entropy_of_entanglement(assemble(mixture))
        assert result.value == 0.0
        assert result.convergence == ((0, 0.0, 0.0),)
        assert result.status == "converged"
        assert result.argmin is None

    def test_werner_state_just_past_the_threshold_is_not_ppt(self):
        rho = DensityOperator.from_matrix(werner(0.34), SPACE22)
        result = relative_entropy_of_entanglement(rho)
        assert result.value == pytest.approx(LN2 - h_bin(0.505), abs=1e-12)
        assert result.value > 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bell_diagonal_states_in_local_frames_are_exact(seed):
    """Bell-diagonal with lambda_max > 1/2 in a random local frame: the
    entangled-fraction rule certifies E_RE = ln 2 - h(lambda_max) with no
    solver run (Vedral & Plenio 1998)."""
    gen = np.random.default_rng(seed)
    weights = gen.dirichlet(np.ones(4))
    assume(weights.max() > 0.5)
    u = np.kron(random_unitary(gen, 2), random_unitary(gen, 2))
    rho = DensityOperator.from_matrix(u @ bell_diagonal(weights) @ u.conj().T, SPACE22)
    result = relative_entropy_of_entanglement(rho)
    gap = result.convergence[-1][2]
    assert result.status == "converged"
    assert len(result.convergence) == 1
    assert gap <= 1e-12  # sigma* is the exact minimizer here
    assert -1e-12 <= result.value - bell_diagonal_ere(weights) <= gap + CLOSED_FORM_ROUNDING
    assert relative_entropy(rho, assemble(result.argmin)).nats == pytest.approx(result.value, abs=1e-12)


@pytest.mark.parametrize("weights", RANK_TWO_BELL_WEIGHTS + [(0.6, 0.3, 0.1, 0.0)])
def test_rank_deficient_bell_diagonal_states_in_local_frames_are_exact(weights):
    # sigma* then has exact zero eigenvalues, which eigvalsh puts at +-5e-16
    gen = rng(69)
    exact = bell_diagonal_ere(weights)
    for _ in range(20):
        result = relative_entropy_of_entanglement(local_frame(bell_diagonal(weights), gen))
        assert len(result.convergence) == 1
        assert result.convergence[-1][2] <= 1e-12
        assert -1e-12 <= result.value - exact <= result.convergence[-1][2] + CLOSED_FORM_ROUNDING


@settings(max_examples=20, deadline=None)
@given(rank=st.integers(2, 4), data=st.data())
def test_entangled_fraction_bound_is_below_the_barrier(rank, data):
    """ln 2 - h(F) bounds E_RE from below on every entangled two-qubit state
    with F > 1/2, so it never exceeds the barrier's value, an upper bound."""
    g = draw_matrix(data, 4)[:, :rank]
    m = g @ g.conj().T
    assume(np.trace(m).real > 1e-3)
    m = m / np.trace(m).real
    f = entangled_fraction(m)
    assume(min_pt_eigenvalue(m) < 0.0 and f > 0.5)
    rho = DensityOperator.from_matrix(m, SPACE22)
    barrier = entanglement._ppt_barrier(rho.matrix, von_neumann_entropy(rho).nats, (2, 2),
                                        SolverOptions())
    assert LN2 - h_bin(f) <= barrier.value + 1e-12


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_uncertified_states_match_a_direct_barrier_call(rank):
    """Entangled states that are not Bell-diagonal pass both closed-form
    rules untouched: value, trace, status and argmin are the barrier's, bit
    for bit."""
    gen = rng(66)
    checked = 0
    while checked < 4:
        rho = random_two_qubit_mixed(gen, rank)
        if min_pt_eigenvalue(rho.matrix) >= 0.0:
            continue
        result = relative_entropy_of_entanglement(rho)
        barrier = entanglement._ppt_barrier(rho.matrix, von_neumann_entropy(rho).nats, (2, 2),
                                            SolverOptions())
        assert len(result.convergence) > 1
        assert (result.value, result.convergence, result.status) == (
            barrier.value, barrier.convergence, barrier.status)
        assert len(result.argmin.terms) == len(barrier.argmin.terms)
        for (p, ka, kb), (q, la, lb) in zip(result.argmin.terms, barrier.argmin.terms):
            assert p == q and np.array_equal(ka, la) and np.array_equal(kb, lb)
        checked += 1


class TestPurificationOps:
    def test_bell_bound_is_one(self):
        ere = relative_entropy_of_entanglement(DensityOperator.from_ket(bell_ket(), SPACE22))
        assert purification_bound(2, ere) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_bound(self):
        ere = relative_entropy_of_entanglement(DensityOperator.from_ket(two_qubit_pure(0.25), SPACE22))
        assert purification_bound(2, ere) == pytest.approx(h_bin(0.25) / LN2, abs=1e-12)

    def test_separable_bound_near_zero(self):
        gen = rng(31)
        mixture = SeparableMixture(tuple(random_product_terms(gen, 2, 2, 5)))
        rho = assemble(mixture)
        ere = relative_entropy_of_entanglement(rho)
        assert purification_bound(2, ere) <= 1e-4

    def test_invalid_target(self):
        ere = relative_entropy_of_entanglement(DensityOperator.from_ket(bell_ket(), SPACE22))
        with pytest.raises(InputError):
            purification_bound(1, ere)

    def test_single_shot_values(self):
        assert single_shot_probability(two_qubit_pure(0.25)) == pytest.approx(0.5, abs=1e-12)
        assert single_shot_probability(two_qubit_pure(0.5)) == pytest.approx(1.0, abs=1e-12)
        assert single_shot_probability(np.kron([1.0, 0.0], [1.0, 0.0])) == 0.0

    def test_single_shot_below_entropic_bound(self):
        for b_sq in (0.1, 0.25, 0.4):
            assert single_shot_probability(two_qubit_pure(b_sq)) < h_bin(b_sq) / LN2

    def test_single_shot_rejects_high_rank(self):
        psi = np.zeros(9, dtype=complex)
        for i in range(3):
            psi[i * 3 + i] = 3**-0.5
        with pytest.raises(InputError):
            single_shot_probability(psi, (3, 3))

    def test_schumacher_rate_values(self):
        pure = DensityOperator.from_ket(random_ket(RNG, 2))
        assert schumacher_rate(pure, 2) == pytest.approx(0.0, abs=1e-12)
        mixed = DensityOperator.from_matrix(np.eye(3) / 3)
        assert schumacher_rate(mixed, 3) == pytest.approx(1.0, abs=1e-12)
        biased = DensityOperator.from_matrix(np.diag([0.25, 0.75]))
        assert schumacher_rate(biased, 2) == pytest.approx(h_bin(0.25) / LN2, abs=1e-12)
        with pytest.raises(InputError):
            schumacher_rate(pure, 1)

    def test_report_for_pure_state(self):
        psi = two_qubit_pure(0.25)
        rho = DensityOperator.from_ket(psi, SPACE22)
        report = purification_report(rho, 2, relative_entropy_of_entanglement(rho))
        assert report.single_shot == pytest.approx(0.5, abs=1e-9)
        assert report.single_shot <= report.ensemble_bound + 1e-9
        blob = report.to_json()
        assert blob["N"] == 2

    def test_report_for_mixed_state_has_no_single_shot(self):
        gen = rng(32)
        rho = random_two_qubit_mixed(gen)
        report = purification_report(rho, 2, relative_entropy_of_entanglement(rho))
        assert report.single_shot is None

    def test_state_is_diagonalised_once(self, monkeypatch):
        """Construction diagonalises rho; S, E_RE, E_C and the report read
        the spectrum it kept. Solver calls on other matrices are not counted."""
        matrix = random_two_qubit_mixed(rng(34)).matrix
        on_rho = []
        for name in ("eigh", "eigvalsh"):
            def counted(m, *args, _solver=getattr(np.linalg, name), **kwargs):
                a = np.asarray(m)
                on_rho.append(a.shape == matrix.shape and np.allclose(a, matrix, rtol=0, atol=1e-12))
                return _solver(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        rho = DensityOperator(SPACE22, matrix)
        von_neumann_entropy(rho)
        ere = relative_entropy_of_entanglement(rho)
        entanglement_of_creation(rho)
        report = purification_report(rho, 2, ere)
        monkeypatch.undo()
        assert ere.value > 1e-3  # entangled: no solver iterate approaches rho
        assert sum(on_rho) == 1
        assert report.schumacher == schumacher_rate(rho, 2)

    def test_bound_chain_on_sampled_pure_states(self):
        gen = rng(33)
        opts = SolverOptions(gap_tol=1e-3, max_iter=4000)
        for _ in range(3):
            psi = random_ket(gen, 4)
            rho = DensityOperator.from_ket(psi, SPACE22)
            ere = relative_entropy_of_entanglement(rho, opts)
            assert single_shot_probability(psi) <= purification_bound(2, ere) + 1e-3


class TestSeparableMixture:
    def test_weights_must_sum_to_one(self):
        ka = np.array([1.0, 0.0])
        with pytest.raises(InputError):
            SeparableMixture(((0.5, ka, ka),))

    def test_nan_weight_rejected(self):
        ka = np.array([1.0, 0.0])
        with pytest.raises(InputError):
            SeparableMixture(((math.nan, ka, ka), (1.0, ka, ka)))

    def test_kets_must_be_unit(self):
        ka = np.array([1.0, 1.0])
        with pytest.raises(InputError):
            SeparableMixture(((1.0, ka, ka),))

    def test_assembles_to_valid_state(self):
        gen = rng(41)
        mixture = SeparableMixture(tuple(random_product_terms(gen, 2, 3, 4)))
        state = assemble(mixture)
        assert state.space.dims == (2, 3)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_matrix_is_the_sum_of_outer_products(self, dims):
        gen = rng(77)
        for n_terms in (1, 4, 9):
            mixture = SeparableMixture(tuple(random_product_terms(gen, *dims, n_terms)))
            expected = sum(w * np.outer(np.kron(ka, kb), np.kron(ka, kb).conj())
                           for w, ka, kb in mixture.terms)
            assert np.max(np.abs(mixture.matrix() - expected)) <= 1e-15

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_maximally_mixed_assembly(self, dims):
        mixture = SeparableMixture.maximally_mixed(dims)
        d = dims[0] * dims[1]
        assert mixture.dims == dims and len(mixture.terms) == d
        assert np.max(np.abs(mixture.matrix() - np.eye(d) / d)) < 1e-12

    @pytest.mark.parametrize("terms", [
        (),
        ((0.5, [1.0, 0.0], [1.0, 0.0]), (0.5, [1.0, 0.0, 0.0], [1.0, 0.0])),  # ragged on A
        ((0.5, [1.0, 0.0], [1.0, 0.0]), (0.5, [0.0, 1.0], [0.0, 0.0, 1.0])),  # ragged on B
        ((1.0, [math.nan, 0.0], [1.0, 0.0]),),
    ], ids=["empty", "ragged-a", "ragged-b", "nan-ket"])
    def test_malformed_terms_rejected(self, terms):
        with pytest.raises(InputError):
            SeparableMixture(terms)

    def test_stacks_are_read_only(self):
        mixture = SeparableMixture(tuple(random_product_terms(rng(43), 2, 3, 4)))
        for stack in (mixture.weights, mixture.kets_a, mixture.kets_b):
            with pytest.raises(ValueError):
                stack[0] = 0.0
        _, ka, kb = mixture.terms[0]
        assert not ka.flags.writeable and not kb.flags.writeable

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_terms_view_the_stacks(self, dims):
        mixture = SeparableMixture(tuple(random_product_terms(rng(44), *dims, 5)))
        assert mixture.weights.shape == (5,)
        assert mixture.kets_a.shape == (5, dims[0]) and mixture.kets_b.shape == (5, dims[1])
        assert mixture.dims == dims
        assert len(mixture.terms) == 5
        for (p, ka, kb), (w, la, lb) in zip(mixture.terms,
                                            zip(mixture.weights, mixture.kets_a, mixture.kets_b)):
            assert type(p) is float and p == w
            assert np.array_equal(ka, la) and np.array_equal(kb, lb)


class TestPrunedMixture:
    """Frank-Wolfe's final active set: weights <= 1e-12 go, and the term cap
    applies only when the tail it would cut weighs at most 1e-9."""

    @staticmethod
    def active_set(tail_weight: float):
        gen = rng(45)
        tail = np.full(20, tail_weight)
        dust = np.full(3, 1e-13)
        head = gen.dirichlet(np.ones(4)) * (1.0 - tail.sum() - dust.sum())
        weights = gen.permutation(np.concatenate([head, tail, dust]))
        kets = [np.array([random_ket(gen, d) for _ in weights]) for d in (2, 3)]
        return weights, kets[0], kets[1]

    def test_light_tail_is_cut_to_the_cap(self):
        weights, kets_a, kets_b = self.active_set(1e-11)  # tail 2e-10
        mixture = entanglement._pruned_mixture(weights, kets_a, kets_b, cap=4)
        heaviest = np.argsort(weights)[::-1][:4]
        assert len(mixture.terms) == 4
        expected = weights[heaviest] / weights[heaviest].sum()
        assert np.max(np.abs(mixture.weights - expected)) <= 1e-15
        assert np.array_equal(mixture.kets_a, kets_a[heaviest])
        assert np.array_equal(mixture.kets_b, kets_b[heaviest])

    def test_heavy_tail_is_kept_whole(self):
        weights, kets_a, kets_b = self.active_set(1e-10)  # tail 2e-9
        mixture = entanglement._pruned_mixture(weights, kets_a, kets_b, cap=4)
        kept = weights > 1e-12
        whole = SeparableMixture(tuple(zip(weights[kept] / weights[kept].sum(),
                                           kets_a[kept], kets_b[kept])))
        assert len(mixture.terms) == 24  # the three weights of 1e-13 are dropped
        assert np.all(np.diff(mixture.weights) <= 0.0)
        assert abs(mixture.weights.sum() - 1.0) <= 1e-15
        assert np.max(np.abs(mixture.matrix() - whole.matrix())) <= 1e-15
