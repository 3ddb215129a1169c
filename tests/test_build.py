import os
import tracemalloc

import numpy as np
import pytest

import balancedtv.build as build_mod
from balancedtv import (
    SparseGraph,
    cut,
    knn_graph,
    load_edge_list,
    load_features,
    load_label_pairs,
    load_labels,
    modularity,
    planted_partition,
    save_edge_list,
    save_features,
    save_labels,
    two_moons,
)
from conftest import assert_same_graph


class TestTwoMoons:
    def test_shapes(self):
        features, labels = two_moons(2000, 100, 0.14, seed=0)
        assert features.shape == (2000, 100)
        assert labels.shape == (2000,)
        assert set(np.unique(labels)) == {0, 1}

    def test_noiseless_points_on_arcs(self):
        features, labels = two_moons(400, 5, 0.0, seed=3)
        xy = features[:, :2]
        assert np.all(features[:, 2:] == 0.0)
        first = xy[labels == 0]
        second = xy[labels == 1]
        # upper unit half-circle at the origin
        assert np.allclose(np.sum(first**2, axis=1), 1.0, atol=1e-12)
        assert np.all(first[:, 1] >= 0.0)
        # downward arc centered at (1, 0.5)
        centered = second - np.array([1.0, 0.5])
        assert np.allclose(np.sum(centered**2, axis=1), 1.0, atol=1e-12)
        assert np.all(second[:, 1] <= 0.5)

    def test_seed_determinism(self):
        a = two_moons(100, 10, 0.2, seed=42)
        b = two_moons(100, 10, 0.2, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_rejects_thin_ambient(self):
        with pytest.raises(ValueError):
            two_moons(10, 1, 0.1, seed=0)

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_rejects_noise_not_finite_and_nonnegative(self, noise):
        with pytest.raises(ValueError, match="noise_sigma must be finite and nonnegative"):
            two_moons(10, 2, noise, seed=0)

    def test_rejects_noise_that_overflows(self):
        # raised before numpy's overflow warning, which the suite makes an error
        with pytest.raises(ValueError, match="noise_sigma 1e\\+308 overflows the features"):
            two_moons(10, 2, 1e308, seed=0)

    def test_ground_truth_has_positive_modularity(self):
        features, labels = two_moons(200, 4, 0.0, seed=1)
        graph = knn_graph(features, 4)
        for gamma in (0.5, 1.0):
            assert modularity(graph, labels, gamma) > 0.0


class TestKnnGraph:
    def test_three_collinear_points(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        g = knn_graph(pts, k=1)
        w = g.adjacency.toarray()
        # sigma = (1, 1, 2); weights exp(-1/(1*1)) and exp(-4/(1*2))
        assert w[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert w[1, 2] == pytest.approx(np.exp(-2.0), rel=1e-12)
        assert w[0, 2] == 0.0
        assert np.allclose(w, w.T)

    def test_no_self_edges_and_invariants(self, rng):
        pts = rng.standard_normal((60, 3))
        g = knn_graph(pts, k=5)
        g.validate()
        assert g.adjacency.diagonal().sum() == 0.0

    def test_union_keeps_larger_directed_weight(self, rng):
        # the two directions of a mutual pair are computed from distances
        # of different tiles and can differ in the last bits; the union is
        # the elementwise max of the directed weight matrix and its transpose
        pts = rng.standard_normal((300, 10))
        k = 8
        dist, idx = build_mod._knn_distances(pts, k)
        sigma = dist[:, k - 1]
        rows = np.repeat(np.arange(300), k)
        directed = np.zeros((300, 300))
        directed[rows, idx.ravel()] = np.exp(-(dist.ravel() ** 2)
                                             / (sigma[rows] * sigma[idx.ravel()]))
        mutual = (directed > 0) & (directed.T > 0)
        assert (directed[mutual] != directed.T[mutual]).any()
        assert_same_graph(knn_graph(pts, k),
                          SparseGraph.from_dense(np.maximum(directed, directed.T)))

    def test_row_permutation_equivariance(self, rng):
        pts = rng.standard_normal((40, 2))
        perm = rng.permutation(40)
        g = knn_graph(pts, k=4)
        g_perm = knn_graph(pts[perm], k=4)
        dense = g.adjacency.toarray()
        assert np.allclose(g_perm.adjacency.toarray(), dense[np.ix_(perm, perm)])

    def test_all_coincident_raises(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ValueError, match="^point 0: all 2 nearest neighbors coincide"):
            knn_graph(pts, k=2)
        pts[0] = 1.0  # the first point whose k nearest neighbors coincide is 1
        with pytest.raises(ValueError, match="^point 1: all 2 nearest neighbors coincide"):
            knn_graph(pts, k=2)

    @pytest.mark.parametrize("budget", [1, 4_000, 9_000, 150_000])
    def test_blocked_search_matches_one_block(self, monkeypatch, rng, budget):
        # integer coordinates keep every squared distance exact, so the graphs
        # must agree bit for bit whatever rows and columns share a tile
        grid = rng.choice(20**3, size=150, replace=False)
        pts = np.stack(np.unravel_index(grid, (20, 20, 20)), axis=1).astype(float)
        pts[148:] = pts[0]  # point 0's two nearest neighbors coincide with it
        one_block = knn_graph(pts, k=3)
        monkeypatch.setattr(build_mod, "KNN_BLOCK_BYTES", budget)
        rows, cols = build_mod._knn_tiles(len(pts), 3)
        assert rows < len(pts) and cols < len(pts)
        blocked = knn_graph(pts, k=3)
        assert one_block.adjacency[0, 148] == 1.0  # duplicates: d=0, weight 1
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(blocked.adjacency, field),
                                  getattr(one_block.adjacency, field))
        assert np.array_equal(blocked.degrees, one_block.degrees)
        assert blocked.total_weight == one_block.total_weight

    @pytest.mark.parametrize("kind", ["grid", "continuous"])
    @pytest.mark.parametrize("n,k,budget,duplicates", [
        (150, 4, 10_000, False),   # 7 x 64 tiles: 150 divides by neither
        (50, 4, None, False),      # one tile larger than the input
        (150, 149, 40_000, False),  # k = n - 1: every column tile taken whole
        (150, 4, 10_000, True),
    ], ids=["ragged", "one-tile", "k=n-1", "duplicates"])
    def test_search_matches_brute_force(self, monkeypatch, rng, kind, n, k, budget,
                                        duplicates):
        if kind == "grid":  # few distinct distances: exact ties everywhere
            grid = rng.choice(8**3, size=n, replace=False)
            pts = np.stack(np.unravel_index(grid, (8, 8, 8)), axis=1).astype(float)
        else:  # on a 2^-20 grid, so every squared distance is still exact
            pts = np.round(rng.standard_normal((n, 3)) * 2**20) / 2**20
        if duplicates:
            pts[-12:] = pts[rng.integers(0, n - 12, size=12)]
        if budget is not None:
            monkeypatch.setattr(build_mod, "KNN_BLOCK_BYTES", budget)
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(sq, np.inf)
        want = np.argsort(sq, axis=1, kind="stable")[:, :k]
        dist, idx = build_mod._knn_distances(pts, k)
        assert np.array_equal(idx, want)
        assert np.array_equal(dist, np.sqrt(np.take_along_axis(sq, want, axis=1)))

    def test_search_memory_bounded(self, rng):
        # numpy reports its buffers to tracemalloc, so the peak repeats
        # exactly; past the search's working set, 32 bytes per directed
        # edge cover the outputs and the graph assembly (about 16 measured)
        n, k = 3000, 10
        pts = rng.standard_normal((n, 20))
        tracemalloc.start()
        try:
            knn_graph(pts, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < build_mod.KNN_BLOCK_BYTES + 32 * n * k

    def test_assembly_memory_bounded(self, monkeypatch, rng):
        # after the search, the union and the graph peak at 67 bytes per
        # directed edge (the graph itself holds 19); building a scipy matrix,
        # its max with the transpose and a checked copy of it took 111
        n, k = 3000, 10
        pts = rng.standard_normal((n, 20))
        found = build_mod._knn_distances(pts, k)
        monkeypatch.setattr(build_mod, "_knn_distances", lambda features, k: found)
        tracemalloc.start()
        try:
            knn_graph(pts, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * n * k

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_feature_named_before_search(self, rng, value):
        # raised before the search, whose warnings the suite makes errors
        pts = rng.standard_normal((50, 3))
        pts[7, 1] = value
        pts[9, 0] = value
        with pytest.raises(ValueError, match="^point 7: non-finite feature$"):
            knn_graph(pts, k=4)

    def test_overflowing_squared_norm_named_before_search(self, rng):
        # once overflowed inside the search and failed late with "edge
        # weights must be finite", naming no point
        pts = rng.standard_normal((50, 3))
        pts[7, 1] = 1e200
        with pytest.raises(ValueError, match="^point 7: squared norm inf overflows"):
            knn_graph(pts, k=4)

    def test_large_features_keep_their_neighbours(self, rng):
        pts = rng.standard_normal((50, 3))
        plain, scaled = knn_graph(pts, k=4), knn_graph(pts * 1e150, k=4)
        assert np.array_equal(scaled.adjacency.indptr, plain.adjacency.indptr)
        assert np.array_equal(scaled.adjacency.indices, plain.adjacency.indices)

    def test_parameter_validation(self):
        pts = np.zeros((5, 1))
        for k in (0, -1, 5):
            with pytest.raises(ValueError, match="^k must satisfy"):
                knn_graph(pts, k=k)


class TestPlantedPartition:
    def test_zero_out_degree_disconnects_blocks(self):
        g, labels = planted_partition(60, 3, 5.0, 0.0, seed=0)
        for block in range(3):
            assert cut(g, np.nonzero(labels == block)[0]) == 0.0

    def test_expected_degree(self):
        n, d_in, d_out = 300, 8.0, 2.0
        totals = [
            planted_partition(n, 4, d_in, d_out, seed=s)[0].total_weight
            for s in range(10)
        ]
        assert np.mean(totals) == pytest.approx(n * (d_in + d_out), rel=0.05)

    def test_seed_determinism(self):
        g1, l1 = planted_partition(80, 4, 6.0, 1.0, seed=9)
        g2, l2 = planted_partition(80, 4, 6.0, 1.0, seed=9)
        assert np.array_equal(l1, l2)
        assert (g1.adjacency != g2.adjacency).nnz == 0

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="probability"):
            planted_partition(10, 2, 50.0, 0.0, seed=0)


class TestFileFormats:
    def test_single_edge_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1 1.0\n")
        g = load_edge_list(path)
        assert g.n_nodes == 2
        assert g.total_weight == 2.0

    def test_negative_weight_names_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 -2\n")
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list(path)

    @pytest.mark.parametrize("weight", ["inf", "nan", "-inf"])
    def test_non_finite_weight_names_line(self, tmp_path, weight):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1 1.0\n1 2 {weight}\n")
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(path)

    def test_weight_sum_overflow_names_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1e307\n1 2 1e307\n0 2 1e308\n")
        with pytest.raises(ValueError, match="line 3: total edge weight overflows"):
            load_edge_list(path)

    def test_repeated_edges_in_both_orientations(self, tmp_path):
        # both orientations sum the same three weights, which rounds
        # differently in different orders; the two entries must still agree
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.1\n1 0 0.1\n0 1 1.0\n")
        w = load_edge_list(path).adjacency.toarray()
        assert w[0, 1] == w[1, 0] == pytest.approx(1.2)

    @pytest.mark.parametrize("line", [
        f"0 {2**63 - 1} 1.0", f"{2**63} 0 1.0", f"0 {10**30} 1.0",
    ])
    def test_node_index_beyond_int64_names_line(self, tmp_path, line):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1 1.0\n{line}\n")
        with pytest.raises(ValueError, match="line 2: node index .* too large") as exc:
            load_edge_list(path)
        assert str(path) in str(exc.value)

    def test_graph_too_large_for_memory_names_line(self, tmp_path, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        # stands in for the allocation failure; nothing large is allocated
        monkeypatch.setattr(SparseGraph, "from_coo", out_of_memory)
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n0 5000000000 1\n1 2 1.0\n")
        with pytest.raises(ValueError, match="line 2: node index 5000000000 asks for "
                                             "a 5000000001-node graph") as exc:
            load_edge_list(path)
        assert str(path) in str(exc.value)

    def test_non_finite_feature_names_line(self, tmp_path):
        # comment and blank lines count, as for a malformed line
        path = tmp_path / "f.csv"
        path.write_text("# x,y\n1,2\n\n3,nan\n4,inf\n")
        with pytest.raises(ValueError, match="line 4: non-finite feature entry") as exc:
            load_features(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_features_skip_whitespace_only_lines(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("   \n1.5,2\n\t\n3,4\n")
        assert np.array_equal(load_features(path), [[1.5, 2], [3, 4]])

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n0 2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(path)

    def test_edge_list_round_trip(self, tmp_path, rng):
        from conftest import random_graph

        g = random_graph(rng, 12)
        path = tmp_path / "g.txt"
        save_edge_list(path, g)
        loaded = load_edge_list(path)
        assert (loaded.adjacency != g.adjacency).nnz == 0

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([0, 2, 1, 1, 0])
        path = tmp_path / "labels.csv"
        save_labels(path, labels)
        assert np.array_equal(load_labels(path), labels)
        assert path.read_text().splitlines()[0] == "node,label"

    @pytest.mark.parametrize("labels", [
        [], [3], np.random.default_rng(5).integers(0, 2**63 - 1, 50, endpoint=True),
    ])
    def test_save_labels_bytes(self, tmp_path, labels):
        path = tmp_path / "labels.csv"
        save_labels(path, labels)
        rows = "".join(f"{node},{label}\n" for node, label in enumerate(labels))
        assert path.read_bytes() == f"node,label\n{rows}".encode()

    def test_benchmark_format_loads_exactly(self, tmp_path, rng):
        rows, cols = rng.integers(0, 300, (2, 1000))
        edges, truth = tmp_path / "edges.txt", tmp_path / "truth.csv"
        with open(edges, "w") as fh:
            fh.write("# i j w\n# seed #7\n")
            np.savetxt(fh, np.column_stack([rows, cols]), fmt="%d %d 1")
        labels = rng.integers(0, 4, 300)
        save_labels(truth, labels)
        reference = SparseGraph.from_coo(int(max(rows.max(), cols.max())) + 1, rows, cols,
                                         np.ones(rows.size))
        assert_same_graph(load_edge_list(edges), reference)
        assert np.array_equal(load_labels(truth), labels)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipes_load(self):
        # a pipe such as `--edges <(cmd)` can be read only once
        def from_pipe(load, text):
            read_end, write_end = os.pipe()
            os.write(write_end, text.encode())
            os.close(write_end)
            try:
                return load(f"/dev/fd/{read_end}")
            finally:
                os.close(read_end)
        assert from_pipe(load_edge_list, "# i j w\n0 2 1.5\n").total_weight == 3.0
        assert np.array_equal(from_pipe(load_labels, "node,label\n1,0\n0,1\n"), [1, 0])
        assert np.array_equal(from_pipe(load_features, "# x,y\n1.5,2\n-3,4e1\n"),
                              [[1.5, 2], [-3, 40]])
        # the error's line number is counted over the text read from the pipe
        with pytest.raises(ValueError, match="line 3: negative node index"):
            from_pipe(load_edge_list, "# i j w\n0 2 1.5\n-1 2 1\n")

    def test_label_pairs_subset(self, tmp_path):
        path = tmp_path / "sup.csv"
        path.write_text("node,label\n7,1\n2,0\n")
        nodes, labels = load_label_pairs(path)
        assert np.array_equal(nodes, [7, 2])
        assert np.array_equal(labels, [1, 0])

    @pytest.mark.parametrize("loader", [load_labels, load_label_pairs])
    @pytest.mark.parametrize("rows,where", [
        ("0,1\n1,0\n0,1\n", "line 4"),
        ("0,1\n-1,0\n", "line 3"),
        ("0,1\n1,-2\n", "line 3"),
        (f"0,1\n{2**63},0\n", "line 3: entry .* too large"),
        (f"0,1\n1,{2**64}\n", "line 3: entry .* too large"),
    ])
    def test_label_file_errors_name_line(self, tmp_path, loader, rows, where):
        path = tmp_path / "labels.csv"
        path.write_text("node,label\n" + rows)
        with pytest.raises(ValueError, match=where) as exc:
            loader(path)
        assert str(path) in str(exc.value)

    def test_label_pairs_accept_the_largest_int64(self, tmp_path):
        path = tmp_path / "sup.csv"
        path.write_text(f"node,label\n{2**63 - 1},{2**63 - 1}\n")
        nodes, labels = load_label_pairs(path)
        assert nodes[0] == labels[0] == 2**63 - 1

    def test_labels_must_cover_every_node(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("node,label\n0,1\n2,0\n")
        with pytest.raises(ValueError, match="missing node ids"):
            load_labels(path)

    def test_features_round_trip(self, tmp_path, rng):
        feats = rng.standard_normal((6, 4))
        path = tmp_path / "pts.csv"
        save_features(path, feats)
        assert np.array_equal(load_features(path), feats)
