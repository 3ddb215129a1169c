from dataclasses import replace

import numpy as np
import pytest

from balancedtv import (
    DiffusionOperator,
    MboConfig,
    Supervision,
    kmeans_init,
    mbo_run,
    modularity,
    planted_partition,
    purity,
    recursive_partition,
    select_timestep,
    smallest_eigenpairs,
    sweep_nhat,
)
from balancedtv.partition import KMEANS_MAX_ITER, KMEANS_RESTARTS, _kmeans_labels
from conftest import complete_graph, random_graph, two_cliques


def sweep_basis(graph, max_nhat, seed=0):
    """A basis of 5 * max_nhat pairs (capped at N).  That is more than the
    CLI's sweep default of 2 * MAX: at 2 * max_nhat, two_cliques(5) would get
    an 8-pair basis that splits a repeated eigenvalue and warns."""
    return smallest_eigenpairs(
        DiffusionOperator(graph, 1.0), min(5 * max_nhat, graph.n_nodes), seed=seed
    )


class TestStrategies:
    def test_validation(self, rng):
        g = random_graph(rng, 8)
        config = MboConfig(gamma=1.0, nhat=2)
        with pytest.raises(ValueError):
            MboConfig(gamma=1.0, nhat=0)
        with pytest.raises(ValueError, match="empty"):
            sweep_nhat(g, sweep_basis(g, 2), range(3, 2), config)
        with pytest.raises(ValueError, match="split factor"):
            recursive_partition(g, replace(config, nhat=1))


class TestKmeansInit:
    def test_separates_disconnected_cliques(self):
        g = two_cliques(6)
        # the two cliques give a repeated eigenvalue that a 4-pair basis splits
        with pytest.warns(UserWarning, match="nearly coincide"):
            basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 4)
        labels = kmeans_init(basis, 2, seed=0)
        assert labels.dtype == np.int64 and labels.shape == (12,)
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    def test_single_community(self, rng):
        g = random_graph(rng, 10)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 3)
        assert np.array_equal(kmeans_init(basis, 1, seed=0), np.zeros(10))

    def test_seed_determinism(self, rng):
        g = random_graph(rng, 30)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 6)
        a = kmeans_init(basis, 3, seed=4)
        b = kmeans_init(basis, 3, seed=4)
        assert np.array_equal(a, b)

    def test_requires_enough_vectors(self, rng):
        g = random_graph(rng, 10)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 2)
        with pytest.raises(ValueError, match="eigenvectors"):
            kmeans_init(basis, 3)

    # with fewer distinct points than clusters, duplicate centres leave
    # clusters empty and the centre update falls back to the per-cluster loop
    @pytest.mark.parametrize("n,k,distinct", [
        (7, 2, None), (200, 3, None), (1500, 10, None), (3000, 6, None),
        (12, 4, 2), (400, 9, 3),
    ])
    def test_matches_per_cluster_mean_loop(self, n, k, distinct):
        rng = np.random.default_rng(n * k)
        points = rng.standard_normal((n if distinct is None else distinct, k))
        if distinct is not None:
            points = points[rng.integers(distinct, size=n)]
        empties = []
        expected = loop_kmeans(points, k, np.random.default_rng(3), empties)
        assert np.array_equal(_kmeans_labels(points, k, np.random.default_rng(3)), expected)
        assert bool(empties) == (distinct is not None)


def loop_kmeans(points, k, rng, empties):
    """``_kmeans_labels`` with the centre update as one ``mean(axis=0)`` per
    cluster; appends to ``empties`` each time a Lloyd step empties a cluster."""
    n = points.shape[0]
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = np.empty((k, points.shape[1]))
        centers[0] = points[rng.integers(n)]
        dist_sq = np.sum((points - centers[0]) ** 2, axis=1)
        for c in range(1, k):
            total = dist_sq.sum()
            if total <= 0:
                centers[c] = points[rng.integers(n)]
                continue
            centers[c] = points[rng.choice(n, p=dist_sq / total)]
            dist_sq = np.minimum(dist_sq, np.sum((points - centers[c]) ** 2, axis=1))
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(KMEANS_MAX_ITER):
            dists = (np.sum(points**2, axis=1)[:, None] - 2.0 * points @ centers.T
                     + np.sum(centers**2, axis=1)[None, :])
            new_labels = np.argmin(dists, axis=1)
            for c in range(k):
                members = new_labels == c
                if members.any():
                    centers[c] = points[members].mean(axis=0)
                else:
                    empties.append(c)
                    farthest = np.argmax(np.min(dists, axis=1))
                    centers[c] = points[farthest]
                    new_labels[farthest] = c
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        for c in range(k):
            if not np.any(labels == c):
                labels[rng.integers(n)] = c
        inertia = float(np.sum((points - centers[labels]) ** 2))
        if inertia < best_inertia:
            best_labels, best_inertia = labels.copy(), inertia
    return best_labels


class TestSweep:
    def test_cliques_pick_two_communities(self):
        g = two_cliques(5)
        config = MboConfig(gamma=1.0, nhat=2, seed=0)
        best = sweep_nhat(g, sweep_basis(g, 4), range(2, 5), config)
        assert np.unique(best.labels).size == 2
        assert best.modularity == pytest.approx(0.5)

    def test_singleton_range_matches_fixed_run(self, rng):
        g = random_graph(rng, 20)
        config = MboConfig(gamma=1.0, nhat=3, seed=7)
        basis = smallest_eigenpairs(
            DiffusionOperator(g, 1.0), min(15, g.n_nodes), seed=config.seed
        )
        # pinning dt to the automatic choice leaves the sweep one timestep
        auto = select_timestep(basis, g, config)
        swept = sweep_nhat(g, basis, [3], replace(config, dt=auto))
        fixed_config = MboConfig(gamma=1.0, nhat=3, seed=7)
        fixed = mbo_run(g, basis, fixed_config)
        assert np.array_equal(swept.labels, fixed.labels)
        assert swept.modularity == fixed.modularity

    def test_timestep_ladder_never_hurts(self, rng):
        g = random_graph(rng, 24, density=0.3)
        config = MboConfig(gamma=1.0, nhat=3, seed=2)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 15, seed=2)
        auto = select_timestep(basis, g, config)
        plain = sweep_nhat(g, basis, range(1, 4), replace(config, dt=auto))
        laddered = sweep_nhat(g, basis, range(1, 4), config)
        assert laddered.modularity >= plain.modularity - 1e-12

    def test_explicit_dt_disables_ladder(self, rng):
        g = random_graph(rng, 15)
        config = MboConfig(gamma=1.0, nhat=2, seed=0, dt=0.05)
        swept = sweep_nhat(g, sweep_basis(g, 2), [2], config)
        assert swept.dt_used == 0.05

    def test_best_dominates_every_candidate(self, rng):
        g = random_graph(rng, 18)
        config = MboConfig(gamma=1.0, nhat=4, seed=3)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 18, seed=3)
        best = sweep_nhat(g, basis, range(1, 5), config)
        for nhat in range(1, 5):
            single = sweep_nhat(g, basis, [nhat], config)
            assert best.modularity >= single.modularity - 1e-12

    def test_supervision_skips_counts_below_its_classes(self):
        g, truth = planted_partition(80, 4, 10.0, 0.5, seed=1)
        nodes = np.array([np.flatnonzero(truth == b)[0] for b in range(4)])
        sup = Supervision(nodes, truth[nodes], weight=100.0)
        config = MboConfig(gamma=1.0, nhat=6, seed=0)
        basis = sweep_basis(g, 6)
        best = sweep_nhat(g, basis, range(2, 7), config, supervision=sup)
        assert best.nhat >= 4
        assert np.array_equal(best.labels[nodes], truth[nodes])
        with pytest.raises(ValueError) as err:
            sweep_nhat(g, basis, range(2, 4), config, supervision=sup)
        # a library error names the library's arguments, not the CLI's flags
        assert str(err.value) == ("nhats: every count is below the 4 classes "
                                  "of the supervision labels")

    def test_empty_range_rejected(self, rng):
        g = random_graph(rng, 8)
        with pytest.raises(ValueError, match="empty"):
            sweep_nhat(g, sweep_basis(g, 2), [], MboConfig(gamma=1.0, nhat=2))


class TestRecursive:
    def test_triangle_stays_whole_at_gamma_one(self):
        # K3: the best split scores 1/3 - 5/9 < 0 = 1 - gamma, so no split
        g = complete_graph(3)
        labels = recursive_partition(g, MboConfig(gamma=1.0, nhat=2, seed=0))
        assert np.unique(labels).size == 1

    def test_split_factor_above_min_split_size(self):
        # a community of MIN_SPLIT_SIZE = 4 nodes has a 4-vector basis, too
        # few for a 5-way k-means start, so it is no longer split
        g, _ = planted_partition(600, 6, 10.0, 1.0, seed=0)
        labels = recursive_partition(g, MboConfig(gamma=1.0, nhat=5, seed=0))
        assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))

    def test_recovers_well_separated_blocks(self):
        g, truth = planted_partition(200, 8, 10.0, 0.2, seed=5)
        best = 0.0
        for seed in range(3):
            labels = recursive_partition(g, MboConfig(gamma=1.0, nhat=2, seed=seed))
            best = max(best, purity(labels, truth))
        assert best >= 0.9

    def test_never_below_single_community(self, rng):
        for seed in range(5):
            g = random_graph(rng, 40, density=0.15)
            labels = recursive_partition(g, MboConfig(gamma=1.0, nhat=2, seed=seed))
            assert modularity(g, labels, 1.0) >= (1.0 - 1.0) - 1e-12

    def test_labels_contiguous(self):
        g, _ = planted_partition(120, 4, 9.0, 0.5, seed=2)
        labels = recursive_partition(g, MboConfig(gamma=1.0, nhat=2, seed=0))
        assert set(labels) == set(range(labels.max() + 1))

    def test_determinism(self):
        g, _ = planted_partition(100, 4, 8.0, 1.0, seed=3)
        config = MboConfig(gamma=1.0, nhat=2, seed=6)
        a = recursive_partition(g, config)
        b = recursive_partition(g, config)
        assert np.array_equal(a, b)
