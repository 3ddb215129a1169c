import itertools

import numpy as np
import pytest
import scipy.linalg

import balancedtv.mbo as mbo_mod
from balancedtv import (
    DiffusionOperator,
    EigenBasis,
    SparseGraph,
    Supervision,
    diffuse,
    fidelity_step,
    labels_to_matrix,
    mbo_run,
    modularity,
    planted_partition,
    random_start,
    select_timestep,
    smallest_eigenpairs,
    threshold,
)
from balancedtv.mbo import DT_CAP_FACTOR
from conftest import random_graph, random_labels, random_one_hot, two_cliques

TWO_NODE = SparseGraph.from_dense([[0.0, 1.0], [1.0, 0.0]])


def full_basis(graph, gamma):
    return smallest_eigenpairs(DiffusionOperator(graph, gamma), graph.n_nodes)


def exact_flow(op, u, t):
    """Dense matrix-exponential oracle for the diffusion semigroup."""
    return scipy.linalg.expm(-t * op.to_dense()) @ u


class TestSelectTimestep:
    def test_freezing_bound_star(self):
        # k_max = 10, gamma = 1: lower bound log2/40
        dense = np.zeros((11, 11))
        dense[0, 1:] = dense[1:, 0] = 1.0
        g = SparseGraph.from_dense(dense)
        basis = full_basis(g, 1.0)
        dt = select_timestep(basis)
        tau_lo = np.log(2.0) / 40.0
        assert tau_lo == pytest.approx(0.017328679513998632)
        assert dt >= tau_lo

    def test_two_node_geometric_mean(self):
        basis = full_basis(TWO_NODE, 1.0)
        # tau_lo = log2/4 and tau_hi = (1/2) log sqrt(2) coincide here
        assert select_timestep(basis) == pytest.approx(
            0.17328679513998632
        )

    def test_explicit_override(self):
        # an explicit dt is mbo_run's to take; the automatic choice stays put
        basis = full_basis(TWO_NODE, 1.0)
        assert mbo_run(basis, 2, random_start(2, 2, 0), dt=0.123).dt_used == 0.123
        assert mbo_run(basis, 2, random_start(2, 2, 0)).dt_used == select_timestep(basis) != 0.123

    def test_degenerate_lambda_clamps_to_cap(self):
        basis = EigenBasis(
            DiffusionOperator(TWO_NODE, 1.0),
            eigenvalues=np.array([0.0, 1.0]),
            eigenvectors=np.eye(2),
        )
        tau_lo = np.log(2.0) / 4.0
        assert select_timestep(basis) == pytest.approx(
            DT_CAP_FACTOR * tau_lo
        )

    def test_never_below_lower_bound(self, rng):
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(4, 30)))
            gamma = rng.uniform(0.2, 3.0)
            basis = smallest_eigenpairs(DiffusionOperator(g, gamma), 4)
            dt = select_timestep(basis)
            tau_lo = np.log(2.0) / (2.0 * (gamma + 1.0) * g.degrees.max())
            assert tau_lo <= dt <= DT_CAP_FACTOR * tau_lo + 1e-15


class TestDiffuse:
    def test_two_node_closed_form(self, rng):
        basis = full_basis(TWO_NODE, 1.0)  # M = 2I
        u = rng.standard_normal((2, 2))
        for t in (0.05, 0.4, 2.0):
            assert np.allclose(diffuse(basis, u, t), np.exp(-2.0 * t) * u, rtol=1e-12)

    def test_dt_to_zero_is_identity(self, rng):
        g = random_graph(rng, 12)
        basis = full_basis(g, 1.0)
        u = random_one_hot(rng, 12, 3)
        assert np.allclose(diffuse(basis, u, 1e-14), u, atol=1e-12)

    def test_full_basis_matches_exponential_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 40))
            g = random_graph(rng, n)
            gamma = rng.uniform(0.3, 2.0)
            op = DiffusionOperator(g, gamma)
            basis = full_basis(g, gamma)
            u = random_one_hot(rng, n, 3)
            for t in (0.01, 0.3, 1.5):
                assert np.allclose(
                    diffuse(basis, u, t), exact_flow(op, u, t), atol=1e-8
                )

    def test_truncated_basis_is_projection(self, rng):
        g = random_graph(rng, 20)
        op = DiffusionOperator(g, 1.0)
        basis = smallest_eigenpairs(op, 5)
        u = random_one_hot(rng, 20, 2)
        v = basis.eigenvectors
        projected_flow = v @ (v.T @ exact_flow(op, u, 0.7))
        assert np.allclose(diffuse(basis, u, 0.7), projected_flow, atol=1e-8)

    def test_rejects_bad_dt(self, rng):
        basis = full_basis(TWO_NODE, 1.0)
        with pytest.raises(ValueError):
            diffuse(basis, np.eye(2), 0.0)

    def test_rejects_dimension_mismatch(self):
        basis = full_basis(TWO_NODE, 1.0)
        with pytest.raises(ValueError, match="rows"):
            diffuse(basis, np.eye(3), 0.1)
        with pytest.raises(ValueError, match="rows"):  # a vector, not a matrix
            diffuse(basis, np.ones(2), 0.1)


class TestFidelityStep:
    def test_zero_weight_noop(self, rng):
        u = rng.random((6, 2))
        sup = Supervision([0, 3], [1, 0], weight=0.0)
        assert np.array_equal(fidelity_step(u, sup, 0.5), u)

    def test_infinite_strength_pins_targets(self, rng):
        u = rng.random((6, 2))
        sup = Supervision([1, 4], [0, 1], weight=1e6)
        out = fidelity_step(u, sup, 1.0)
        assert np.allclose(out[[1, 4]], sup.targets(2))

    def test_closed_form_residual(self):
        # residual of 1 in a supervised entry decays to e^{-2 lambda dt}
        u = np.array([[2.0, 0.0], [0.3, 0.3]])
        sup = Supervision([0], [0], weight=1.0)
        out = fidelity_step(u, sup, 0.5)
        assert out[0, 0] == pytest.approx(1.0 + np.exp(-1.0))
        assert np.array_equal(out[1], u[1])


class TestThreshold:
    def test_argmax_row(self):
        out = threshold(np.array([[0.2, 0.5, 0.3]]))
        assert np.array_equal(out, [1])

    def test_tie_breaks_to_lowest_index(self):
        out = threshold(np.array([[0.5, 0.5]]))
        assert np.array_equal(out, [0])

    def test_idempotent(self, rng):
        u = rng.random((10, 4))
        once = threshold(u)
        assert np.array_equal(threshold(labels_to_matrix(once, 4)), once)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            threshold(np.array([[np.nan, 1.0]]))


class TestFreezingBounds:
    """One exact-exponential step below the timestep bounds never moves a
    two-community partition."""

    def _frozen(self, op, u0, tau):
        moved = threshold(exact_flow(op, u0, tau))
        return np.array_equal(moved, np.argmax(u0, axis=1))

    def test_degree_bound(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 50))
            g = random_graph(rng, n, density=rng.uniform(0.1, 0.8))
            gamma = rng.uniform(0.2, 3.0)
            op = DiffusionOperator(g, gamma)
            tau = 0.99 * np.log(2.0) / (2.0 * (gamma + 1.0) * g.degrees.max())
            u0 = random_one_hot(rng, n, 2)
            assert self._frozen(op, u0, tau)

    def test_spectral_bound(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 50))
            g = random_graph(rng, n, density=rng.uniform(0.1, 0.8))
            gamma = rng.uniform(0.2, 3.0)
            op = DiffusionOperator(g, gamma)
            rho = np.linalg.eigvalsh(op.to_dense())[-1]
            tau = 0.99 / rho * np.log(1.0 + n ** -0.5)
            u0 = random_one_hot(rng, n, 2)
            assert self._frozen(op, u0, tau)


class TestDecayAndGrowthBounds:
    def test_l2_decay_estimate(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 40))
            g = random_graph(rng, n)
            op = DiffusionOperator(g, rng.uniform(0.3, 2.0))
            lam1 = np.linalg.eigvalsh(op.to_dense())[0]
            u0 = random_one_hot(rng, n, 3)
            for tau in (0.1, 1.0, 10.0):
                lhs = np.linalg.norm(exact_flow(op, u0, tau))
                rhs = np.exp(-tau * lam1) * np.linalg.norm(u0)
                assert lhs <= rhs + 1e-10

    def test_inf_growth_estimate(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 40))
            g = random_graph(rng, n)
            op = DiffusionOperator(g, rng.uniform(0.3, 2.0))
            m_inf = np.abs(op.to_dense()).sum(axis=1).max()
            u0 = random_one_hot(rng, n, 3)
            for tau in (0.1, 1.0, 10.0):
                lhs = np.abs(exact_flow(op, u0, tau) - u0).max()
                with np.errstate(over="ignore"):
                    rhs = np.expm1(tau * m_inf)
                assert lhs <= rhs + 1e-10


class TestMboRun:
    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0])
    def test_rejects_dt_not_positive_and_finite(self, dt):
        # a NaN dt once failed inside the loop with "NaN entry in assignment
        # matrix", and an infinite one put every node into community 0
        graph, _ = planted_partition(60, 3, 8, 1, seed=0)
        basis = smallest_eigenpairs(DiffusionOperator(graph, 1.0), 10)
        message = "dt must be positive and finite"
        with pytest.raises(ValueError, match=message):
            mbo_run(basis, 3, random_start(basis.n_nodes, 3, 0), dt=dt)
        with pytest.raises(ValueError, match=message):
            diffuse(basis, labels_to_matrix(np.zeros(60, dtype=np.int64), 3), dt)
        with pytest.raises(ValueError, match=message):
            fidelity_step(np.zeros((60, 3)), Supervision([0], [1], 1.0), dt)

    def test_frozen_timestep_returns_init(self, rng):
        for _ in range(5):
            n = int(rng.integers(4, 30))
            g = random_graph(rng, n)
            gamma = 1.0
            basis = full_basis(g, gamma)
            tau = 0.9 * np.log(2.0) / (2.0 * (gamma + 1.0) * g.degrees.max())
            init = random_labels(rng, n, 2)
            result = mbo_run(basis, 2, init, dt=tau)
            # one sweep at dt and one refinement sweep, neither moving a label
            assert result.iterations == 2
            assert np.array_equal(result.labels, init)

    def test_separates_disconnected_cliques_at_optimum(self, rng):
        g = two_cliques(5)
        basis = full_basis(g, 1.0)
        # brute force over all 2-labelings (independent energy evaluation)
        W = g.adjacency.toarray()
        k, twom = g.degrees, g.total_weight
        best = -np.inf
        for bits in itertools.product([0, 1], repeat=9):
            lab = np.array((0,) + bits)
            same = lab[:, None] == lab[None, :]
            q = (W[same].sum() - (np.outer(k, k)[same]).sum() / twom) / twom
            best = max(best, q)
        assert best == pytest.approx(0.5)
        result = mbo_run(basis, 2, random_start(basis.n_nodes, 2, 1))
        assert result.modularity == pytest.approx(best)
        assert len(set(result.labels[:5])) == 1
        assert len(set(result.labels[5:])) == 1
        assert result.labels[0] != result.labels[5]

    def test_strong_supervision_carries_targets(self, rng):
        g = random_graph(rng, 20)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 10)
        nodes = np.array([0, 5, 9, 13])
        targets = np.array([1, 0, 1, 0])
        sup = Supervision(nodes, targets, weight=1e4)
        result = mbo_run(basis, 2, random_start(basis.n_nodes, 2, 2, sup), supervision=sup)
        assert np.array_equal(result.labels[nodes], targets)

    @pytest.mark.parametrize("make_init", [
        lambda n: np.arange(n - 1) % 4,
        lambda n: np.arange(n + 1) % 4,
        lambda n: np.eye(4)[np.arange(n) % 4],
        lambda n: (np.arange(n) % 4).astype(np.float64),
        lambda n: np.append(np.arange(n - 1) % 4, 4),
        lambda n: np.append(np.arange(n - 1) % 4, -1),
    ], ids=["short", "long", "one-hot-matrix", "float", "above-nhat", "negative"])
    def test_start_must_be_labels_below_nhat(self, make_init):
        from balancedtv import planted_partition

        g, _ = planted_partition(1000, 6, 10.0, 1.0, seed=0)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 20)
        with pytest.raises(ValueError, match="^start: "):
            mbo_run(basis, 4, make_init(g.n_nodes))

    def test_random_start_is_the_seeded_draw(self, rng):
        sup = Supervision([3, 8], [2, 0], weight=1.0)
        for seed in range(3):
            want = np.random.default_rng(seed).integers(0, 4, size=20)
            assert np.array_equal(random_start(20, 4, seed), want)
            want[[3, 8]] = [2, 0]
            assert np.array_equal(random_start(20, 4, seed, sup), want)
        with pytest.raises(ValueError, match="nhat must be at least 1"):
            random_start(20, 0, 0)
        with pytest.raises(ValueError, match="supervised node id out of range"):
            random_start(8, 4, 0, sup)
        with pytest.raises(ValueError, match="need 3 communities, got 2"):
            random_start(20, 2, 0, sup)

    def test_start_left_unchanged(self, rng):
        # a sweep runs one start at every timestep
        basis = smallest_eigenpairs(DiffusionOperator(random_graph(rng, 20), 1.0), 8)
        start = random_start(20, 3, 4)
        kept = start.copy()
        mbo_run(basis, 3, start)
        assert np.array_equal(start, kept)

    def test_supervision_labels_must_fit_nhat(self, rng):
        g = random_graph(rng, 12)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 5)
        sup = Supervision([0, 5], [0, 2], weight=1.0)
        with pytest.raises(ValueError, match="need 3 communities, got 2"):
            mbo_run(basis, 2, random_start(basis.n_nodes, 2, 0, sup), supervision=sup)
        assert mbo_run(basis, 3, random_start(basis.n_nodes, 3, 0, sup), supervision=sup).nhat == 3

    def test_determinism(self, rng):
        g = random_graph(rng, 30)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 10)
        a = mbo_run(basis, 3, random_start(basis.n_nodes, 3, 11), trace=True)
        b = mbo_run(basis, 3, random_start(basis.n_nodes, 3, 11), trace=True)
        assert np.array_equal(a.labels, b.labels)
        assert a.iterations == b.iterations
        assert a.dt_used == b.dt_used
        assert np.array_equal(a.energy_trace, b.energy_trace)
        assert a.modularity == b.modularity

    def test_result_consistency(self, rng):
        g = random_graph(rng, 25)
        basis = smallest_eigenpairs(DiffusionOperator(g, 0.8), 10)
        result = mbo_run(basis, 2, random_start(basis.n_nodes, 2, 5), trace=True)
        assert np.all(np.isfinite(result.energy_trace))
        assert result.modularity == pytest.approx(
            modularity(g, result.labels, 0.8), rel=1e-12
        )
        assert result.energy_trace.size == result.iterations

    def test_trace_off_changes_nothing_but_the_traces(self, rng):
        g = random_graph(rng, 40)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 12)
        sup = Supervision([0, 7, 21], [0, 1, 2], weight=10.0)
        for seed in range(4):
            for supervision in (None, sup):
                off = mbo_run(basis, 3, random_start(basis.n_nodes, 3, seed, supervision),
                              supervision=supervision)
                on = mbo_run(basis, 3, random_start(basis.n_nodes, 3, seed, supervision),
                             supervision=supervision, trace=True)
                assert np.array_equal(off.labels, on.labels)
                assert off.labels.dtype == on.labels.dtype
                assert off.iterations == on.iterations
                assert off.dt_used == on.dt_used
                assert off.modularity == on.modularity
                assert off.converged == on.converged
                assert off.energy_trace.size == off.modularity_trace.size == 0
                assert on.energy_trace.size == on.iterations
                assert on.modularity_trace[-1] == on.modularity

    def test_usually_improves_on_random_init(self, rng):
        from balancedtv import planted_partition

        improved = 0
        trials = 40
        for seed in range(trials):
            g, _ = planted_partition(60, 3, 8.0, 1.0, seed=seed)
            basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 10)
            init = random_labels(np.random.default_rng(seed), 60, 3)
            result = mbo_run(basis, 3, init)
            q0 = modularity(g, init, 1.0)
            if result.modularity >= q0:
                improved += 1
        assert improved >= 0.95 * trials

    def test_nhat_one_collapses_immediately(self, rng):
        g = random_graph(rng, 10)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 5)
        result = mbo_run(basis, 1, random_start(basis.n_nodes, 1, 0))
        assert np.all(result.labels == 0)
        assert result.converged

    def test_max_iters_reported_not_fatal(self, rng, monkeypatch):
        monkeypatch.setattr(mbo_mod, "MAX_ITERS", 1)
        g = random_graph(rng, 15)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 5)
        result = mbo_run(basis, 2, random_start(basis.n_nodes, 2, 0))
        assert result.iterations <= 1

    def test_config_validation(self):
        # gamma is the operator's to check (test_eigen); nhat and dt are checked here
        basis = full_basis(TWO_NODE, 1.0)
        with pytest.raises(ValueError, match="nhat must be at least 1"):
            mbo_run(basis, 0, random_start(2, 0, 0))
        with pytest.raises(ValueError, match="dt must be positive"):
            mbo_run(basis, 2, random_start(2, 2, 0), dt=-0.1)
