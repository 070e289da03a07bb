import numpy as np
import pytest

from erasure_lab.errors import InputError
from erasure_lab.linalg import (
    DensityOperator,
    TensorSpace,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    tensor_product,
    vector_from_json,
    vector_to_json,
)

RNG = np.random.default_rng(1234)


def random_hermitian(n, rng=RNG):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def random_state_matrix(n, rng=RNG):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def brute_force_partial_trace(matrix, dims, keep_indices):
    """Index-summation oracle, independent of the einsum implementation."""
    k = len(dims)
    traced = [i for i in range(k) if i not in keep_indices]
    d_keep = int(np.prod([dims[i] for i in keep_indices])) if keep_indices else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)
    t = matrix.reshape(tuple(dims) * 2)
    for row in np.ndindex(*[dims[i] for i in keep_indices]):
        for col in np.ndindex(*[dims[i] for i in keep_indices]):
            total = 0.0
            for tr in np.ndindex(*[dims[i] for i in traced]):
                idx_row = [0] * k
                idx_col = [0] * k
                for pos, i in enumerate(keep_indices):
                    idx_row[i] = row[pos]
                    idx_col[i] = col[pos]
                for pos, i in enumerate(traced):
                    idx_row[i] = tr[pos]
                    idx_col[i] = tr[pos]
                total += t[tuple(idx_row) + tuple(idx_col)]
            r = np.ravel_multi_index(row, [dims[i] for i in keep_indices]) if keep_indices else 0
            c = np.ravel_multi_index(col, [dims[i] for i in keep_indices]) if keep_indices else 0
            out[r, c] = total
    return out


class TestTensorProduct:
    def test_basis_projectors(self):
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        out = tensor_product(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # binary 01 with the first factor most significant
        assert np.array_equal(out, expected)

    def test_identity_halves(self):
        out = tensor_product(np.eye(2) / 2, np.eye(2) / 2)
        assert np.allclose(out, np.eye(4) / 4)

    def test_trace_multiplicativity(self):
        a = random_hermitian(3)
        b = random_hermitian(4)
        assert np.trace(tensor_product(a, b)) == pytest.approx(np.trace(a) * np.trace(b))

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            tensor_product(np.ones((2, 3)), np.eye(2))


class TestPartialTrace:
    def test_bell_state_marginal(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 2**-0.5
        rho = DensityOperator.from_ket(bell, TensorSpace.bipartite(2, 2))
        reduced = partial_trace(rho, {"A"})
        assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12

    def test_product_state_marginal(self):
        rho = random_state_matrix(2)
        sigma = random_state_matrix(3)
        space = TensorSpace.of(("A", 2), ("B", 3))
        joint = DensityOperator(space, np.kron(rho, sigma))
        assert np.max(np.abs(partial_trace(joint, {"A"}).matrix - rho)) < 1e-12

    def test_sequential_equals_one_shot(self):
        space = TensorSpace.of(("A", 2), ("B", 3), ("C", 2))
        rho = DensityOperator(space, random_state_matrix(12))
        seq = partial_trace(partial_trace(rho, {"B", "C"}), {"C"})
        oracle = brute_force_partial_trace(rho.matrix, (2, 3, 2), [2])
        assert np.max(np.abs(seq.matrix - oracle)) < 1e-12
        one_shot = partial_trace(rho, {"C"})
        assert np.max(np.abs(one_shot.matrix - oracle)) < 1e-12

    def test_matches_brute_force_on_random_state(self):
        space = TensorSpace.of(("A", 2), ("B", 2), ("C", 3))
        rho = DensityOperator(space, random_state_matrix(12))
        got = partial_trace(rho, {"A", "C"}).matrix
        oracle = brute_force_partial_trace(rho.matrix, (2, 2, 3), [0, 2])
        assert np.max(np.abs(got - oracle)) < 1e-12

    def test_trace_preserved(self):
        space = TensorSpace.of(("A", 3), ("B", 3))
        rho = DensityOperator(space, random_state_matrix(9))
        assert abs(np.trace(partial_trace(rho, {"B"}).matrix) - 1.0) < 1e-12

    def test_tracing_everything_gives_scalar_one(self):
        space = TensorSpace.of(("A", 2), ("B", 3))
        rho = DensityOperator(space, random_state_matrix(6))
        out = partial_trace(rho, set())
        assert out.matrix.shape == (1, 1)
        assert abs(out.matrix[0, 0] - 1.0) < 1e-12

    def test_unknown_label_rejected(self):
        rho = DensityOperator(TensorSpace.bipartite(2, 2), random_state_matrix(4))
        with pytest.raises(InputError):
            partial_trace(rho, {"Z"})


class TestHermitianEig:
    def test_pauli_x_spectrum(self):
        lam, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(lam, [1.0, -1.0])

    def test_diagonal_matrix(self):
        lam, _ = hermitian_eig(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(lam, [3.0, 2.0, -1.0])

    def test_random_reconstruction(self):
        m = random_hermitian(8)
        lam, v = hermitian_eig(m)
        assert np.max(np.abs((v * lam) @ v.conj().T - m)) < 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-9

    def test_matches_lapack(self):
        m = random_hermitian(6)
        lam, _ = hermitian_eig(m)
        assert np.allclose(lam, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-10)

    def test_descending_order(self):
        lam, _ = hermitian_eig(random_hermitian(7))
        assert np.all(np.diff(lam) <= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InputError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @staticmethod
    def assert_decomposes(m, lam, v):
        d = m.shape[0]
        assert lam.shape == (d,) and v.shape == (d, d)
        assert np.all(np.diff(lam) <= 0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-12
        assert np.max(np.abs((v * lam) @ v.conj().T - m)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 32])
    def test_random_spectra(self, d):
        gen = np.random.default_rng(d)
        m = random_hermitian(d, gen)
        self.assert_decomposes(m, *hermitian_eig(m))

    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
    def test_degenerate_spectrum(self, d):
        gen = np.random.default_rng(100 + d)
        u, _ = np.linalg.qr(random_hermitian(d, gen))
        spectrum = np.repeat([1.5, -0.25], [d - d // 2, d // 2])
        m = (u * spectrum) @ u.conj().T
        lam, v = hermitian_eig(m)
        self.assert_decomposes(m, lam, v)
        assert np.max(np.abs(lam - np.sort(spectrum)[::-1])) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 32])
    def test_rank_one_projector(self, d):
        gen = np.random.default_rng(200 + d)
        ket = gen.normal(size=d) + 1j * gen.normal(size=d)
        ket /= np.linalg.norm(ket)
        m = np.outer(ket, ket.conj())
        lam, v = hermitian_eig(m)
        self.assert_decomposes(m, lam, v)
        assert abs(lam[0] - 1.0) < 1e-12 and np.all(np.abs(lam[1:]) < 1e-12)
        assert abs(abs(np.vdot(v[:, 0], ket)) - 1.0) < 1e-12

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            hermitian_eig(np.array([[np.nan, 0], [0, 1]], dtype=complex))


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            DensityOperator.from_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(InputError):
            DensityOperator.from_matrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InputError):
            DensityOperator.from_matrix(np.diag([1.5, -0.5]))

    def test_rejects_nan_entry(self):
        with pytest.raises(InputError):
            DensityOperator.from_matrix(np.array([[np.nan, 0.0], [0.0, 0.5]]))

    def test_rejects_space_mismatch(self):
        with pytest.raises(InputError):
            DensityOperator(TensorSpace.bipartite(2, 2), np.eye(2) / 2)

    def test_eigenvalues_form_distribution(self):
        rho = DensityOperator.from_matrix(random_state_matrix(6))
        lam, _ = hermitian_eig(rho.matrix)
        assert lam[-1] >= -1e-10
        assert abs(lam.sum() - 1.0) < 1e-10

    def test_from_ket_requires_unit_norm(self):
        with pytest.raises(InputError):
            DensityOperator.from_ket(np.array([1.0, 1.0]))

    def test_json_round_trip(self):
        space = TensorSpace.of(("A", 2), ("B", 2))
        rho = DensityOperator(space, random_state_matrix(4))
        back = DensityOperator.from_json(rho.to_json())
        assert back.space == rho.space
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15


class TestTensorSpace:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            TensorSpace.of(("A", 2), ("A", 3))

    def test_dims_and_lookup(self):
        space = TensorSpace.of(("S", 4), ("A", 2))
        assert space.dim == 8
        assert space.dim_of("A") == 2
        with pytest.raises(InputError):
            space.dim_of("Z")

    def test_subspace_preserves_order(self):
        space = TensorSpace.of(("A", 2), ("B", 3), ("C", 4))
        assert space.subspace({"C", "A"}).labels == ("A", "C")


class TestJsonLiterals:
    def test_matrix_round_trip(self):
        m = random_hermitian(3)
        back = matrix_from_json(matrix_to_json(m))
        assert np.max(np.abs(back - m)) < 1e-15

    def test_im_optional(self):
        m = matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]]})
        assert np.array_equal(m, np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            matrix_from_json({"dim": 2, "re": [[1, 0, 0], [0, 1, 0]]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(InputError):
            matrix_from_json({"dim": 2, "re": [[1, 0], [0, bad]]})
        with pytest.raises(InputError):
            matrix_from_json({"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, bad], [0, 0]]})
        with pytest.raises(InputError):
            vector_from_json({"re": [1.0, bad]})

    def test_vector_round_trip(self):
        v = RNG.normal(size=5) + 1j * RNG.normal(size=5)
        back = vector_from_json(vector_to_json(v))
        assert np.max(np.abs(back - v)) < 1e-15
