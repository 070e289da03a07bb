import numpy as np
import pytest

from erasure_lab.entropy import von_neumann_entropy
from erasure_lab.errors import InputError
from erasure_lab.linalg import (
    DensityOperator,
    TensorSpace,
    density_eig,
    hermitian_eig,
    matrix_from_json,
    partial_trace,
    vector_from_json,
)
from erasure_lab.sampling import random_density
from erasure_lab.thermo import HamiltonianSpec, gibbs_state

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


class TestStacks:
    """hermitian_eig and DensityOperator's checks run on stacks (..., d, d):
    the selftest validates its random states that way."""

    def test_stack_matches_one_matrix_at_a_time(self):
        stack = np.array([random_state_matrix(3) for _ in range(5)])
        lam, vecs = density_eig(stack)
        for m, lam_k, vecs_k in zip(stack, lam, vecs):
            rho = DensityOperator.from_matrix(m)
            assert np.array_equal(lam_k, rho.eigenvalues)
            assert np.array_equal(vecs_k, rho.eigenvectors)

    @pytest.mark.parametrize("bad, message", [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
        (np.eye(2), "trace must be 1"),
        (np.diag([1.5, -0.5]), "not positive semidefinite"),
    ], ids=["non-hermitian", "trace-2", "negative-eigenvalue"])
    def test_one_bad_member_is_rejected_by_position(self, bad, message):
        stack = np.array([np.eye(2) / 2] * 4, dtype=complex)
        stack[2] = bad
        with pytest.raises(InputError, match=rf"{message}.*\(stack member \[2\]\)"):
            density_eig(stack)
        with pytest.raises(InputError, match=message):
            DensityOperator.from_matrix(bad)

    def test_density_operator_rejects_a_stack(self):
        with pytest.raises(InputError, match="square matrix"):
            DensityOperator.from_matrix(np.array([np.eye(2) / 2] * 2))


def cold_gibbs_state():
    """beta = 1e3 on a spread-out spectrum: the excited weights underflow to 0."""
    ham = HamiltonianSpec(3.0 * random_hermitian(4, np.random.default_rng(77)), beta=1e3)
    assert (ham.gibbs_weights == 0.0).any()
    return gibbs_state(ham)


EDGE_STATES = {
    "rank-1": lambda: random_density(np.random.default_rng(1), 4, rank=1),
    "rank-2": lambda: random_density(np.random.default_rng(2), 4, rank=2),
    "mixed-2": lambda: DensityOperator.from_matrix(np.eye(2) / 2),
    "mixed-4": lambda: DensityOperator.from_matrix(np.eye(4) / 4),
    "mixed-8": lambda: DensityOperator.from_matrix(np.eye(8) / 8),
    "gibbs-beta-1e3": cold_gibbs_state,
}


@pytest.mark.parametrize("make", EDGE_STATES.values(), ids=EDGE_STATES.keys())
class TestStoredSpectrum:
    """The spectrum a state keeps from validation, on rank-deficient,
    fully degenerate and underflowing spectra."""

    def test_spectrum_reconstructs_matrix(self, make):
        rho = make()
        lam, v = rho.eigenvalues, rho.eigenvectors
        assert np.all(np.diff(lam) <= 0.0)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(rho.dim), atol=1e-12)
        np.testing.assert_allclose((v * lam) @ v.conj().T, rho.matrix, atol=1e-12)

    def test_entropy_matches_fresh_eigvalsh(self, make):
        rho = make()
        lam = np.linalg.eigvalsh(rho.matrix)
        pos = lam[lam > 0.0]
        assert von_neumann_entropy(rho).nats == pytest.approx(-np.sum(pos * np.log(pos)), abs=1e-12)

    @pytest.mark.parametrize("name", ["matrix", "eigenvalues", "eigenvectors"])
    def test_arrays_are_read_only(self, make, name):
        array = getattr(make(), name)
        with pytest.raises(ValueError):
            array[0] = 0.0
        with pytest.raises(ValueError):
            array *= 2.0

    def test_input_array_is_copied(self, make):
        source = np.array(make().matrix)
        rho = DensityOperator.from_matrix(source)
        source[0, 0] += 1.0
        np.testing.assert_array_equal(rho.matrix, make().matrix)


class TestTensorSpace:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            TensorSpace.of(("A", 2), ("A", 3))

    def test_dims_and_lookup(self):
        space = TensorSpace.of(("S", 4), ("A", 2))
        assert space.dim == 8

    def test_subspace_preserves_order(self):
        space = TensorSpace.of(("A", 2), ("B", 3), ("C", 4))
        assert space.subspace({"C", "A"}).labels == ("A", "C")


class TestJsonLiterals:
    def test_matrix_round_trip(self):
        m = random_hermitian(3)
        back = matrix_from_json({"dim": 3, "re": m.real.tolist(), "im": m.imag.tolist()})
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

    @pytest.mark.parametrize("im", [[[0], [0, 0]], "x", [[False, False], [False, True]]],
                             ids=["ragged", "string", "bool"])
    def test_malformed_im_rejected(self, im):
        with pytest.raises(InputError):
            matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]], "im": im})
        with pytest.raises(InputError):
            vector_from_json({"re": [1.0, 0.0], "im": im})

    def test_vector_round_trip(self):
        v = RNG.normal(size=5) + 1j * RNG.normal(size=5)
        back = vector_from_json({"re": v.real.tolist(), "im": v.imag.tolist()})
        assert np.max(np.abs(back - v)) < 1e-15
