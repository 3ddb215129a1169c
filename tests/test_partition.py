from pathlib import Path

import numpy as np
import pytest

import balancedtv.eigen as eigen_mod
import balancedtv.mbo as mbo_mod
import balancedtv.partition as partition_mod
from balancedtv import (
    DiffusionOperator,
    Supervision,
    kmeans_init,
    mbo_run,
    modularity,
    planted_partition,
    purity,
    random_start,
    recursive_partition,
    save_edge_list,
    smallest_eigenpairs,
    sweep_nhat,
    timestep_bounds,
)
from balancedtv.cli import main
from balancedtv.partition import (
    DT_SWEPT,
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    _kmeans_labels,
    _sweep_timesteps,
)
from conftest import complete_graph, random_graph, two_cliques


def sweep_basis(graph, max_nhat):
    """A basis of 5 * max_nhat pairs (capped at N).  That is more than the
    CLI's sweep default of 2 * MAX: at 2 * max_nhat, two_cliques(5) would get
    an 8-pair basis that splits a repeated eigenvalue and warns."""
    return smallest_eigenpairs(
        DiffusionOperator(graph, 1.0), min(5 * max_nhat, graph.n_nodes)
    )


class TestStrategies:
    def test_validation(self, rng):
        g = random_graph(rng, 8)
        with pytest.raises(ValueError, match="empty"):
            sweep_nhat(sweep_basis(g, 2), range(3, 2))
        with pytest.raises(ValueError, match="split_factor must be at least 2"):
            recursive_partition(DiffusionOperator(g, 1.0), 1)


class TestKmeansInit:
    def test_separates_disconnected_cliques(self):
        g = two_cliques(6)
        # the two cliques give a repeated eigenvalue that a 4-pair basis splits
        with pytest.warns(UserWarning, match="nearly coincide on a 12-node operator"):
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
        best = sweep_nhat(sweep_basis(g, 4), range(2, 5))
        assert np.unique(best.labels).size == 2
        assert best.modularity == pytest.approx(0.5)

    def test_singleton_range_matches_fixed_run(self, rng):
        g = random_graph(rng, 20)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), min(15, g.n_nodes))
        timesteps = _sweep_timesteps(basis)
        # the top five rungs of the geometric ladder, ending at the cap
        assert len(timesteps) == DT_SWEPT == 5
        ratios = np.divide(timesteps[1:], timesteps[:-1])
        assert ratios[0] > 1 and np.allclose(ratios, ratios[0])
        assert timesteps[-1] == timestep_bounds(basis.operator)[1]
        swept = sweep_nhat(basis, [3], seed=7)
        # the first of the best fixed runs over the sweep's own timesteps
        fixed = max((mbo_run(basis, 3, random_start(basis.n_nodes, 3, 7), dt=dt) for dt in timesteps),
                    key=lambda result: result.modularity)
        assert np.array_equal(swept.labels, fixed.labels)
        assert swept.modularity == fixed.modularity
        assert swept.dt_used == fixed.dt_used

    def test_runs_each_count_at_each_timestep(self, monkeypatch):
        basis = sweep_basis(two_cliques(5), 4)
        calls = []

        def counting(basis, nhat, start, **kwargs):
            calls.append((nhat, kwargs["dt"]))
            return mbo_run(basis, nhat, start, **kwargs)

        monkeypatch.setattr(partition_mod, "mbo_run", counting)
        sweep_nhat(basis, range(2, 5))
        assert len(calls) == 3 * 5
        assert calls == [(nhat, dt) for nhat in range(2, 5) for dt in _sweep_timesteps(basis)]

    def test_timestep_ladder_never_hurts(self):
        # the sweep no longer tries the automatic timestep, so this is a
        # measured property: on these graphs its five rungs reach the best
        # automatic-timestep run over the same counts and seed
        for graph_seed in range(20):
            rng = np.random.default_rng(graph_seed)
            g = random_graph(rng, int(rng.integers(12, 61)), density=0.3)
            basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), min(15, g.n_nodes))
            for seed in (0, 1):
                plain = max(mbo_run(basis, nhat, random_start(basis.n_nodes, nhat, seed)).modularity
                            for nhat in range(1, 4))
                laddered = sweep_nhat(basis, range(1, 4), seed=seed)
                assert laddered.modularity >= plain - 1e-12, (graph_seed, seed)

    def test_best_dominates_every_candidate(self, rng):
        g = random_graph(rng, 18)
        basis = smallest_eigenpairs(DiffusionOperator(g, 1.0), 18)
        best = sweep_nhat(basis, range(1, 5), seed=3)
        for nhat in range(1, 5):
            single = sweep_nhat(basis, [nhat], seed=3)
            assert best.modularity >= single.modularity - 1e-12

    def test_supervision_skips_counts_below_its_classes(self):
        g, truth = planted_partition(80, 4, 10.0, 0.5, seed=1)
        nodes = np.array([np.flatnonzero(truth == b)[0] for b in range(4)])
        sup = Supervision(nodes, truth[nodes], weight=100.0)
        basis = sweep_basis(g, 6)
        best = sweep_nhat(basis, range(2, 7), supervision=sup)
        assert best.nhat >= 4
        assert np.array_equal(best.labels[nodes], truth[nodes])
        with pytest.raises(ValueError) as err:
            sweep_nhat(basis, range(2, 4), supervision=sup)
        # a library error names the library's arguments, not the CLI's flags
        assert str(err.value) == ("nhats: every count is below the 4 classes "
                                  "of the supervision labels")

    def test_empty_range_rejected(self, rng):
        g = random_graph(rng, 8)
        with pytest.raises(ValueError, match="empty"):
            sweep_nhat(sweep_basis(g, 2), [])


class TestRecursive:
    def test_triangle_stays_whole_at_gamma_one(self):
        # K3: the best split scores 1/3 - 5/9 < 0 = 1 - gamma, so no split
        g = complete_graph(3)
        labels = recursive_partition(DiffusionOperator(g, 1.0), 2).labels
        assert np.unique(labels).size == 1

    def test_split_factor_above_min_split_size(self):
        # a community of MIN_SPLIT_SIZE = 4 nodes has a 4-vector basis, too
        # few for a 5-way k-means start, so it is no longer split
        g, _ = planted_partition(600, 6, 10.0, 1.0, seed=0)
        labels = recursive_partition(DiffusionOperator(g, 1.0), 5).labels
        assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))

    def test_recovers_well_separated_blocks(self):
        g, truth = planted_partition(200, 8, 10.0, 0.2, seed=5)
        best = 0.0
        for seed in range(3):
            labels = recursive_partition(DiffusionOperator(g, 1.0), 2, seed=seed).labels
            best = max(best, purity(labels, truth))
        assert best >= 0.9

    def test_never_below_single_community(self, rng):
        for seed in range(5):
            g = random_graph(rng, 40, density=0.15)
            labels = recursive_partition(DiffusionOperator(g, 1.0), 2, seed=seed).labels
            assert modularity(g, labels, 1.0) >= (1.0 - 1.0) - 1e-12

    def test_labels_contiguous(self):
        g, _ = planted_partition(120, 4, 9.0, 0.5, seed=2)
        labels = recursive_partition(DiffusionOperator(g, 1.0), 2).labels
        assert set(labels) == set(range(labels.max() + 1))

    def test_result_describes_the_run(self, monkeypatch):
        runs = []
        solve = partition_mod.mbo_run

        def recorded(*args, **kwargs):
            runs.append(solve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(partition_mod, "mbo_run", recorded)
        g, _ = planted_partition(120, 4, 9.0, 0.5, seed=2)
        result = recursive_partition(DiffusionOperator(g, 1.0), 2)
        assert result.modularity == modularity(g, result.labels, 1.0)
        assert result.nhat == result.labels.max() + 1 == 4
        assert result.iterations == sum(run.iterations for run in runs) > 0
        assert result.converged and result.dt_used is None
        assert result.energy_trace.size == result.modularity_trace.size == 0

    def test_unconverged_split_reported(self, monkeypatch):
        monkeypatch.setattr(mbo_mod, "MAX_ITERS", 1)
        g, _ = planted_partition(120, 4, 9.0, 0.5, seed=2)
        assert not recursive_partition(DiffusionOperator(g, 1.0), 2).converged

    def test_determinism(self):
        g, _ = planted_partition(100, 4, 8.0, 1.0, seed=3)
        op = DiffusionOperator(g, 1.0)
        a = recursive_partition(op, 2, seed=6).labels
        b = recursive_partition(op, 2, seed=6).labels
        assert np.array_equal(a, b)


class TestSubgraphBasisCache:
    """Repeats on one operator share each subgraph's eigenpairs."""

    @pytest.fixture(scope="class")
    def graph(self):
        # 300 nodes: the first solve takes the Lanczos path
        return planted_partition(300, 6, 10.0, 1.0, seed=1)[0]

    def test_shared_operator_matches_fresh_ones(self, graph):
        fresh = [recursive_partition(DiffusionOperator(graph, 1.0), 2, seed=s).labels
                 for s in range(4)]
        for order in (range(4), reversed(range(4))):
            op = DiffusionOperator(graph, 1.0)
            for s in order:
                assert np.array_equal(recursive_partition(op, 2, seed=s).labels, fresh[s])

    def test_rerun_on_one_operator_solves_nothing(self, graph, monkeypatch):
        calls = []
        solve = eigen_mod.smallest_eigenpairs

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(eigen_mod, "smallest_eigenpairs", counted)
        op = DiffusionOperator(graph, 1.0)
        first = recursive_partition(op, 2, seed=0).labels
        assert calls
        calls.clear()
        assert np.array_equal(recursive_partition(op, 2, seed=0).labels, first)
        assert calls == []

    def test_cache_hit_returns_the_same_basis_without_indexing(self, graph, monkeypatch):
        subgraphs = []
        real = type(graph).subgraph
        monkeypatch.setattr(type(graph), "subgraph",
                            lambda g, nodes: subgraphs.append(1) or real(g, nodes))
        op = DiffusionOperator(graph, 1.0)
        members = np.arange(0, 300, 2)
        isolated = np.array([0, 2], dtype=np.int64)  # no edge between them
        assert graph.adjacency[0, 2] == 0
        basis = op.subgraph_basis(members, 6)
        assert op.subgraph_basis(isolated, 2) is None
        assert len(subgraphs) == 2
        assert op.subgraph_basis(members, 6) is basis
        assert op.subgraph_basis(isolated, 2) is None
        assert len(subgraphs) == 2
        assert not basis.eigenvectors.flags.writeable
        assert op.subgraph_basis(members, 4).n_eig == 4

    def test_cache_keys_on_the_member_set(self, graph, monkeypatch):
        # subgraph reduces any order and any repeats to the sorted distinct
        # ids, so the cache must too: one solve, one entry, one object
        calls = []
        solve = eigen_mod.smallest_eigenpairs
        monkeypatch.setattr(eigen_mod, "smallest_eigenpairs",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        op = DiffusionOperator(graph, 1.0)
        members = np.arange(0, 300, 2)
        repeated = np.concatenate([members, members[[5, 50, 100]]])
        bases = [op.subgraph_basis(m, 6) for m in (members, members[::-1], repeated)]
        assert bases[1] is bases[0] and bases[2] is bases[0]
        assert len(calls) == 1 and len(op._subgraph_bases) == 1
        with pytest.raises(ValueError, match="out of range"):
            op.subgraph_basis([0, graph.n_nodes], 2)

    def test_each_split_factor_gets_its_own_basis_size(self, graph, monkeypatch):
        seen = []
        init = partition_mod.kmeans_init

        def recorded(basis, nhat, seed=0):
            seen.append((nhat, basis.n_eig, basis.n_nodes))
            return init(basis, nhat, seed=seed)

        monkeypatch.setattr(partition_mod, "kmeans_init", recorded)
        op = DiffusionOperator(graph, 1.0)
        for split_factor in (2, 3):
            seen.clear()
            labels = recursive_partition(op, split_factor).labels
            assert seen
            assert all(nhat == split_factor and n_eig == min(5 * split_factor, n)
                       for nhat, n_eig, n in seen)
            fresh = recursive_partition(DiffusionOperator(graph, 1.0), split_factor).labels
            assert np.array_equal(labels, fresh)

    def test_cli_repeats_match_single_runs(self, graph, tmp_path):
        edges = tmp_path / "edges.txt"
        save_edge_list(edges, graph)

        def run(name, seed, repeat):
            out = tmp_path / name
            assert main(["partition", "--edges", str(edges), "--gamma", "1",
                         "--recursive", "--seed", str(seed), "--repeat", str(repeat),
                         "--out", str(out)]) == 0
            rows = [line.split(",")[:2]  # seed and modularity
                    for line in Path(f"{out}_batch.csv").read_text().splitlines()[1:]]
            return Path(f"{out}_labels.csv").read_bytes(), rows

        labels, rows = run("all", 0, 3)
        singles = [run(f"seed{s}", s, 1) for s in range(3)]
        assert rows == [single_rows[0] for _, single_rows in singles]
        best = int(np.argmax([float(q) for _, q in rows]))
        assert labels == singles[best][0]
