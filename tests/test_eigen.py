import numpy as np
import pytest

import balancedtv.eigen as eigen_mod
from balancedtv import (
    DiffusionOperator,
    EigenBasis,
    SparseGraph,
    dense_spectrum,
    smallest_eigenpairs,
)
from conftest import complete_graph, path_graph, random_graph

TWO_NODE = SparseGraph.from_dense([[0.0, 1.0], [1.0, 0.0]])


def star_graph(leaves):
    n = leaves + 1
    dense = np.zeros((n, n))
    dense[0, 1:] = 1.0
    dense[1:, 0] = 1.0
    return SparseGraph.from_dense(dense)


class TestOperator:
    def test_two_node_is_twice_identity(self):
        op = DiffusionOperator(TWO_NODE, 1.0)
        assert np.allclose(op.apply(np.array([1.0, 0.0])), [2.0, 0.0])
        assert np.allclose(op.to_dense(), 2.0 * np.eye(2))

    def test_zero_vector(self):
        op = DiffusionOperator(complete_graph(4), 0.5)
        assert np.all(op.apply(np.zeros(4)) == 0.0)

    def test_ones_vector_maps_to_scaled_degrees(self, rng):
        g = random_graph(rng, 15)
        gamma = 1.7
        op = DiffusionOperator(g, gamma)
        assert np.allclose(op.apply(np.ones(15)), 2.0 * gamma * g.degrees, rtol=1e-12)

    def test_matches_dense_on_random_graphs(self, rng):
        for _ in range(10):
            n = rng.integers(5, 60)
            g = random_graph(rng, n)
            op = DiffusionOperator(g, rng.uniform(0.2, 3.0))
            dense = op.to_dense()
            v = rng.standard_normal(n)
            assert np.allclose(op.apply(v), dense @ v, rtol=1e-10, atol=1e-12)
            # matrix argument too
            u = rng.standard_normal((n, 3))
            assert np.allclose(op.apply(u), dense @ u, rtol=1e-10, atol=1e-12)

    def test_symmetry_and_psd(self, rng):
        g = random_graph(rng, 30)
        op = DiffusionOperator(g, 1.1)
        for _ in range(20):
            v = rng.standard_normal(30)
            w = rng.standard_normal(30)
            assert op.apply(v) @ w == pytest.approx(v @ op.apply(w), abs=1e-10 * (np.linalg.norm(v) * np.linalg.norm(w)))
            assert v @ op.apply(v) >= -1e-10 * (v @ v)

    def test_rank_one_difference_from_laplacian(self, rng):
        g = random_graph(rng, 25)
        op = DiffusionOperator(g, 0.8)
        lap = np.diag(g.degrees) - g.adjacency.toarray()
        diff = op.to_dense() - lap
        singulars = np.linalg.svd(diff, compute_uv=False)
        assert singulars[1] <= 1e-10 * singulars[0]

    def test_dimension_mismatch(self):
        op = DiffusionOperator(TWO_NODE, 1.0)
        with pytest.raises(ValueError):
            op.apply(np.zeros(3))

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            DiffusionOperator(TWO_NODE, 0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            DiffusionOperator(TWO_NODE, gamma)

    @pytest.mark.parametrize("dense", [np.zeros((0, 0)), np.zeros((3, 3))],
                             ids=["empty", "edgeless"])
    def test_rejects_graph_without_edges(self, dense):
        # the operator divides by m, so it shares the energies' 2m = 0 rule
        with pytest.raises(ValueError, match=r"no edges \(2m = 0\)"):
            DiffusionOperator(SparseGraph.from_dense(dense), 1.0)


class TestInfinityNormBound:
    def test_two_node_value(self):
        op = DiffusionOperator(TWO_NODE, 1.0)
        assert op.infinity_norm_bound() == 4.0
        assert np.abs(op.to_dense()).sum(axis=1).max() == 2.0

    def test_star_with_degree_ten(self):
        op = DiffusionOperator(star_graph(10), 1.0)
        assert op.infinity_norm_bound() == 40.0

    def test_dominates_true_norm(self, rng):
        for _ in range(50):
            n = rng.integers(4, 40)
            g = random_graph(rng, n)
            op = DiffusionOperator(g, rng.uniform(0.1, 4.0))
            true_norm = np.abs(op.to_dense()).sum(axis=1).max()
            assert op.infinity_norm_bound() >= true_norm


class TestSmallestEigenpairs:
    def test_two_node_spectrum(self):
        basis = smallest_eigenpairs(DiffusionOperator(TWO_NODE, 1.0), 2)
        assert np.allclose(basis.eigenvalues, [2.0, 2.0])

    def test_path_graph_matches_dense(self):
        op = DiffusionOperator(path_graph(3), 1.0)
        basis = smallest_eigenpairs(op, 3)
        vals, _ = dense_spectrum(op)
        assert np.max(np.abs(basis.eigenvalues - vals)) <= 1e-8
        with pytest.raises(ValueError):
            DiffusionOperator(path_graph(3), 0.0)  # gamma must stay positive

    def test_full_spectrum_trace_identity(self, rng):
        g = random_graph(rng, 20)
        op = DiffusionOperator(g, 1.3)
        basis = smallest_eigenpairs(op, 20)
        trace = np.trace(op.to_dense())
        assert basis.eigenvalues.sum() == pytest.approx(trace, rel=1e-8)

    def test_krylov_path_matches_dense(self, rng, monkeypatch):
        # graphs above the dense solve limit exercise ARPACK
        monkeypatch.setattr(eigen_mod, "DENSE_SOLVE_LIMIT", 64)
        for _ in range(5):
            n = int(rng.integers(80, 150))
            g = random_graph(rng, n, density=0.1)
            op = DiffusionOperator(g, 1.0)
            basis = smallest_eigenpairs(op, 8)
            vals, _ = dense_spectrum(op)
            assert np.max(np.abs(basis.eigenvalues - vals[:8])) <= 1e-8
            basis.validate()

    def test_psd_and_connected_positivity(self, rng):
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(5, 40)), connected=True)
            op = DiffusionOperator(g, rng.uniform(0.3, 2.0))
            vals, _ = dense_spectrum(op)
            assert vals[0] >= -1e-10
            assert vals[0] > 0.0

    def test_determinism(self, rng, monkeypatch):
        monkeypatch.setattr(eigen_mod, "DENSE_SOLVE_LIMIT", 64)
        g = random_graph(rng, 100, density=0.08)
        op = DiffusionOperator(g, 1.0)
        a = smallest_eigenpairs(op, 6)
        b = smallest_eigenpairs(op, 6)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_invalid_n_eig(self):
        op = DiffusionOperator(TWO_NODE, 1.0)
        with pytest.raises(ValueError):
            smallest_eigenpairs(op, 0)
        with pytest.raises(ValueError):
            smallest_eigenpairs(op, 3)

    def test_nonconvergence_reports(self, rng, monkeypatch):
        monkeypatch.setattr(eigen_mod, "DENSE_SOLVE_LIMIT", 64)
        monkeypatch.setattr(eigen_mod, "LANCZOS_TOL", 1e-30)
        monkeypatch.setattr(eigen_mod, "LANCZOS_RESTARTS", 1)
        g = random_graph(rng, 120, density=0.05)
        op = DiffusionOperator(g, 1.0)
        with pytest.raises(RuntimeError, match="restart cycles"):
            smallest_eigenpairs(op, 2)

    def test_clustered_tail_warns(self):
        # two disconnected unit edges: spectrum {0, 2, 2, 2}, so truncating
        # after two pairs splits a coincident cluster
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 1.0
        dense[2, 3] = dense[3, 2] = 1.0
        op = DiffusionOperator(SparseGraph.from_dense(dense), 1.0)
        with pytest.warns(UserWarning, match="coincide"):
            smallest_eigenpairs(op, 2)

    def test_repeated_eigenvalue_found(self):
        # two unit leaves on one hub give the eigenvector e_a - e_b with
        # eigenvalue 1; four such hubs make 1 a 4-fold eigenvalue among the
        # smallest 9, which single-vector Lanczos returns only once
        rng = np.random.default_rng(0)
        core = 120
        block = np.arange(core) < core // 2
        p = np.where(block[:, None] == block[None, :], 0.15, 0.01)
        upper = np.triu(rng.random((core, core)) < p, k=1)
        dense = np.zeros((core + 8, core + 8))
        dense[:core, :core] = upper + upper.T
        for t, hub in enumerate([0, 30, 60, 90]):
            for leaf in (core + 2 * t, core + 2 * t + 1):
                dense[hub, leaf] = dense[leaf, hub] = 1.0
        op = DiffusionOperator(SparseGraph.from_dense(dense), 1.0)
        exact, _ = dense_spectrum(op)
        assert np.sum(np.abs(exact[:9] - 1.0) < 1e-10) == 4
        for n_eig in (8, 10):
            basis = smallest_eigenpairs(op, n_eig)
            assert np.max(np.abs(basis.eigenvalues - exact[:n_eig])) <= 1e-8
        with pytest.warns(UserWarning, match="coincide"):
            smallest_eigenpairs(op, 6)


class TestBasisValidation:
    def test_orthonormality_and_residual_pass(self, rng):
        g = random_graph(rng, 50)
        op = DiffusionOperator(g, 0.9)
        basis = smallest_eigenpairs(op, 10)
        v = basis.eigenvectors
        assert np.abs(v.T @ v - np.eye(10)).max() <= 1e-8
        resid = op.apply(v) - v * basis.eigenvalues
        assert np.linalg.norm(resid, axis=0).max() <= 1e-6

    def test_validate_rejects_garbage(self, rng):
        g = random_graph(rng, 10)
        op = DiffusionOperator(g, 1.0)
        bogus = EigenBasis(
            op,
            eigenvalues=np.array([0.0, 1.0]),
            eigenvectors=rng.standard_normal((10, 2)),
        )
        with pytest.raises(ValueError):
            bogus.validate()

    @pytest.mark.parametrize("field,entry,message", [
        ("eigenvectors", (3, 1), "not orthonormal"),
        ("eigenvalues", 1, "residual nan exceeds"),
    ])
    def test_validate_rejects_nan(self, rng, field, entry, message):
        # each check once read "err > tol", which is False for a NaN err
        op = DiffusionOperator(random_graph(rng, 20), 1.0)
        basis = smallest_eigenpairs(op, 4)
        pairs = {"eigenvalues": basis.eigenvalues.copy(),
                 "eigenvectors": basis.eigenvectors.copy()}
        pairs[field][entry] = np.nan
        with pytest.raises(ValueError, match="eigenpairs must be finite"):
            EigenBasis(op, **pairs)
        getattr(basis, field)[entry] = np.nan  # changed after construction
        with pytest.raises(ValueError, match=message):
            basis.validate()

    @pytest.mark.parametrize("rows", [9, 11])
    def test_rejects_wrong_row_count(self, rng, rows):
        # a basis is one row per node of its operator's graph, so no solve
        # can pair it with another graph
        op = DiffusionOperator(random_graph(rng, 10), 1.0)
        with pytest.raises(ValueError, match=f"{rows} rows for a 10-node operator"):
            EigenBasis(op, np.array([0.0, 1.0]), np.eye(rows, 2))

