import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from balancedtv import (
    SparseGraph,
    Supervision,
    balanced_cut,
    balanced_cut_centered,
    balanced_tv,
    cut,
    fidelity_step,
    gl_energy,
    graph_tv,
    labels_to_matrix,
    modularity,
    ssl_energy,
    volume,
)
from balancedtv.graph import _check_subset
from conftest import (
    assert_same_graph,
    complete_graph,
    dense_modularity,
    path_graph,
    random_graph,
    random_labels,
)

TWO_NODE = SparseGraph.from_dense([[0.0, 1.0], [1.0, 0.0]])
K3 = complete_graph(3)
P3 = path_graph(3)


@st.composite
def graph_and_labels(draw, max_nodes=9, max_labels=4):
    n = draw(st.integers(2, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.05, 3.0, allow_nan=False)),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    dense = np.zeros((n, n))
    for (i, j), w in zip(pairs, weights):
        dense[i, j] = dense[j, i] = w
    dense[0, 1] = dense[1, 0] = max(dense[0, 1], 1.0)  # at least one edge
    labels = draw(
        st.lists(st.integers(0, max_labels - 1), min_size=n, max_size=n)
    )
    gamma = draw(st.floats(0.05, 4.0, allow_nan=False))
    return SparseGraph.from_dense(dense), np.array(labels, dtype=np.int64), gamma


class TestSparseGraph:
    def test_degrees_and_total_weight(self):
        assert np.allclose(K3.degrees, [2.0, 2.0, 2.0])
        assert K3.total_weight == 6.0
        K3.validate()

    def test_self_loops_stripped(self):
        dense = np.array([[5.0, 1.0], [1.0, 2.0]])
        g = SparseGraph.from_dense(dense)
        assert g.total_weight == 2.0
        assert g.adjacency.diagonal().sum() == 0.0

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SparseGraph.from_dense([[0.0, -1.0], [-1.0, 0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SparseGraph.from_dense([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SparseGraph.from_dense(np.zeros((2, 3)))

    @pytest.mark.parametrize("w", [np.inf, np.nan])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(ValueError, match="finite"):
            SparseGraph.from_coo(3, [0, 1], [1, 2], [1.0, w])
        with pytest.raises(ValueError, match="finite"):
            SparseGraph.from_dense([[0.0, w], [w, 0.0]])

    def test_from_coo_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseGraph.from_coo(2, [0], [5], [1.0])

    def test_subgraph(self):
        sub = K3.subgraph([0, 1])
        assert sub.n_nodes == 2
        assert sub.total_weight == 2.0

    def test_subgraph_matches_validated_build(self, rng):
        g = random_graph(rng, 60, density=0.2)
        for size in (1, 2, 7, 30, 60):
            nodes = rng.permutation(60)[:size]
            sub = g.subgraph(nodes)
            sorted_nodes = np.sort(nodes)
            ref = SparseGraph.from_dense(g.adjacency.toarray()[np.ix_(sorted_nodes, sorted_nodes)])
            assert_same_graph(sub, ref)
            assert sub.n_nodes == size
            sub.validate()

    def test_from_coo_matches_mirrored_upper_triangle(self, rng):
        # repeats in both orientations, self-loops and zero weights; the
        # reference sums each edge's repeats in the upper triangle with
        # scipy, mirrors it densely and stores it as CSR without from_coo
        for _ in range(40):
            n, m = int(rng.integers(1, 25)), int(rng.integers(0, 150))
            rows, cols = rng.integers(0, n, (2, m))
            k = m // 3  # the first k triplets again, reversed
            rows, cols = np.concatenate([rows, cols[:k]]), np.concatenate([cols, rows[:k]])
            weights = rng.choice([0.0, 0.1, 0.7, 2.5, 3e10], rows.size) * rng.random(rows.size)
            upper = sp.coo_matrix((weights, (np.minimum(rows, cols), np.maximum(rows, cols))),
                                  shape=(n, n)).tocsr().toarray()
            np.fill_diagonal(upper, 0.0)
            w = sp.csr_matrix(upper + upper.T)
            degrees = np.asarray(w.sum(axis=1)).ravel()
            graph = SparseGraph.from_coo(n, rows, cols, weights)
            assert_same_graph(graph, SparseGraph(w, degrees, float(degrees.sum())))
            graph.validate()

    @pytest.mark.parametrize("degree, total", [(np.nan, 4.0), (1.0, np.nan)])
    def test_validate_rejects_nan(self, degree, total):
        degrees = P3.degrees.copy()
        degrees[0] = degree
        with pytest.raises(ValueError, match="disagree"):
            SparseGraph(P3.adjacency, degrees, total).validate()

    def test_immutability(self):
        for arr in (K3.adjacency.indptr, K3.adjacency.indices, K3.adjacency.data,
                    K3.degrees):
            with pytest.raises(ValueError):
                arr[0] = 7


class TestPartitionViews:
    def test_round_trip(self, rng):
        labels = random_labels(rng, 25, 4)
        u = labels_to_matrix(labels, 4)
        assert np.array_equal(u.sum(axis=1), np.ones(25))
        assert np.array_equal(np.argmax(u, axis=1), labels)


class TestCutVolume:
    def test_path_boundary_edge(self):
        assert cut(P3, [0]) == 1.0

    def test_empty_subset(self):
        assert cut(K3, []) == 0.0

    def test_triangle_pair(self):
        assert cut(K3, [0, 1]) == 2.0

    def test_cut_index_error(self):
        with pytest.raises(ValueError, match="out of range"):
            cut(K3, [0, 3])

    def test_volume_single_node(self):
        assert volume(TWO_NODE, [0]) == 1.0

    def test_volume_triangle_pair(self):
        assert volume(K3, [0, 1]) == 4.0

    def test_volume_all_nodes_is_total_weight(self, rng):
        g = random_graph(rng, 8)
        assert volume(g, range(8)) == pytest.approx(g.total_weight, rel=1e-12)

    @pytest.mark.parametrize("subset", [[5, 1, 3], [1, 3, 3, 5], [5, 5, 3, 1, 1]])
    def test_unsorted_or_repeated_subset_is_sorted_and_deduplicated(self, rng, subset):
        g = random_graph(rng, 8, density=0.6)
        assert np.array_equal(_check_subset(g, subset), [1, 3, 5])
        assert cut(g, subset) == cut(g, [1, 3, 5])
        assert volume(g, subset) == volume(g, [1, 3, 5])
        assert_same_graph(g.subgraph(subset), g.subgraph([1, 3, 5]))

    @pytest.mark.parametrize("subset", [[0, 2, 8], [-1, 2, 4], [8, 2], [3, 3, -1]])
    def test_subset_range_checked_sorted_or_not(self, subset):
        g = path_graph(8)
        with pytest.raises(ValueError, match="out of range"):
            _check_subset(g, subset)


class TestGraphTV:
    def test_indicator_equals_cut(self):
        assert graph_tv(P3, np.array([1.0, 0.0, 0.0])) == 1.0

    def test_constant_is_zero(self):
        assert graph_tv(K3, np.full(3, 0.7)) == 0.0

    def test_two_column_partition(self):
        u = labels_to_matrix([0, 0, 1], 2)
        assert graph_tv(K3, u) == 4.0

    def test_indicator_cut_identity_random(self, rng):
        g = random_graph(rng, 10)
        for _ in range(10):
            subset = np.nonzero(rng.random(10) < 0.5)[0]
            ind = np.zeros(10)
            ind[subset] = 1.0
            assert graph_tv(g, ind) == pytest.approx(cut(g, subset), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            graph_tv(K3, np.zeros((4, 2)))


class TestModularity:
    def test_single_community_is_one_minus_gamma(self, rng):
        g = random_graph(rng, 12)
        for gamma in (0.3, 1.0, 2.5):
            assert modularity(g, np.zeros(12, int), gamma) == pytest.approx(
                1.0 - gamma, rel=1e-12
            )

    def test_two_singletons(self):
        assert modularity(TWO_NODE, [0, 1], 1.0) == pytest.approx(-0.5, rel=1e-12)

    def test_triangle_two_one_split(self):
        assert modularity(K3, [0, 0, 1], 1.0) == pytest.approx(-2.0 / 9.0, rel=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            g = random_graph(rng, 7)
            labels = random_labels(rng, 7, 3)
            gamma = rng.uniform(0.2, 3.0)
            assert modularity(g, labels, gamma) == pytest.approx(
                dense_modularity(g, labels, gamma), rel=1e-10
            )

    def test_empty_graph_rejected(self):
        g = SparseGraph.from_dense(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="2m = 0"):
            modularity(g, [0, 0, 0], 1.0)

    def test_caches_nothing_on_the_graph(self, rng):
        # a cached per-entry index lives as long as the graph, and the
        # sub-basis cache keeps every split's subgraph alive
        g = random_graph(rng, 9)
        modularity(g, random_labels(rng, 9, 3), 1.0)
        assert set(vars(g)) == {field.name for field in dataclasses.fields(g)}

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_gamma_outside_positive_reals(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            modularity(K3, [0, 0, 1], gamma)

    def test_column_permutation_invariance(self, rng):
        g = random_graph(rng, 9)
        labels = random_labels(rng, 9, 3)
        relabeled = np.array([2, 0, 1])[labels]
        assert modularity(g, labels, 1.3) == pytest.approx(
            modularity(g, relabeled, 1.3), rel=1e-12
        )


class TestBalancedForms:
    def test_single_community_cut_form(self, rng):
        g = random_graph(rng, 8)
        gamma = 0.7
        assert balanced_cut(g, np.zeros(8, int), gamma) == pytest.approx(
            gamma * g.total_weight, rel=1e-12
        )

    def test_two_node_singletons(self):
        assert balanced_cut(TWO_NODE, [0, 1], 1.0) == pytest.approx(3.0)
        assert balanced_cut_centered(TWO_NODE, [0, 1], 1.0, 2) == pytest.approx(3.0)

    def test_balanced_tv_two_node_identity(self):
        assert balanced_tv(TWO_NODE, np.eye(2), 1.0) == pytest.approx(3.0)

    def test_balanced_tv_zero_matrix(self):
        assert balanced_tv(K3, np.zeros((3, 2)), 1.0) == 0.0

    def test_centered_balanced_volumes(self):
        # two singletons on the two-node graph have perfectly balanced volumes
        gamma, nhat = 1.7, 2
        total_cut = 2.0
        expected = total_cut + gamma * TWO_NODE.total_weight / nhat
        assert balanced_cut_centered(TWO_NODE, [0, 1], gamma, nhat) == pytest.approx(
            expected, rel=1e-12
        )

    def test_centered_rejects_bad_nhat(self):
        with pytest.raises(ValueError):
            balanced_cut_centered(K3, [0, 0, 0], 1.0, 0)

    @settings(deadline=None, max_examples=60)
    @given(graph_and_labels())
    def test_equivalence_chain(self, case):
        graph, labels, gamma = case
        twom = graph.total_weight
        q = modularity(graph, labels, gamma)
        bc = balanced_cut(graph, labels, gamma)
        nhat = int(labels.max()) + 1
        bcc = balanced_cut_centered(graph, labels, gamma, nhat)
        btv = balanced_tv(graph, labels_to_matrix(labels, nhat), gamma)
        scale = max(1.0, abs(q))
        assert abs(q - (1.0 - bc / twom)) <= 1e-12 * scale
        assert abs(bc - bcc) <= 1e-10
        assert abs(btv - bc) <= 1e-12 * max(1.0, abs(bc))

    def test_node_permutation_invariance(self, rng):
        g = random_graph(rng, 10)
        labels = random_labels(rng, 10, 3)
        gamma = 1.4
        perm = rng.permutation(10)
        dense = g.adjacency.toarray()
        g_perm = SparseGraph.from_dense(dense[np.ix_(perm, perm)])
        labels_perm = labels[perm]
        for fn in (
            lambda gg, ll: modularity(gg, ll, gamma),
            lambda gg, ll: balanced_cut(gg, ll, gamma),
            lambda gg, ll: balanced_tv(gg, labels_to_matrix(ll, 3), gamma),
            lambda gg, ll: gl_energy(gg, labels_to_matrix(ll, 3), gamma, 0.3),
        ):
            assert fn(g, labels) == pytest.approx(fn(g_perm, labels_perm), rel=1e-12)


class TestGinzburgLandau:
    def test_partition_matrix_has_zero_potential(self, rng):
        g = random_graph(rng, 8)
        u = labels_to_matrix(random_labels(rng, 8, 3), 3)
        k = g.degrees
        lap = np.diag(k) - g.adjacency.toarray()
        dirichlet = np.trace(u.T @ lap @ u)
        balance = 1.2 / g.total_weight * np.sum((k @ u) ** 2)
        value = gl_energy(g, u, 1.2, 1e-6)
        # a nonzero potential would blow up at eps = 1e-6
        assert value == pytest.approx(dirichlet + balance, rel=1e-10)

    def test_zero_matrix_value(self):
        nhat, eps = 3, 0.25
        u = np.zeros((3, nhat))
        expected = (1.0 / eps) * 3 * 0.25**nhat
        assert gl_energy(K3, u, 1.0, eps) == pytest.approx(expected, rel=1e-12)

    def test_two_node_identity(self):
        for eps in (0.1, 1.0, 10.0):
            assert gl_energy(TWO_NODE, np.eye(2), 1.0, eps) == pytest.approx(3.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            gl_energy(K3, np.zeros((3, 2)), 1.0, 0.0)


class TestSupervisedEnergy:
    def test_zero_weight_reduces_to_balanced_tv(self, rng):
        g = random_graph(rng, 6)
        u = labels_to_matrix(random_labels(rng, 6, 2), 2)
        sup = Supervision([0, 3], [1, 0], weight=0.0)
        assert ssl_energy(g, u, 0.9, sup) == pytest.approx(
            balanced_tv(g, u, 0.9), rel=1e-12
        )

    def test_matching_targets_zero_fidelity(self, rng):
        g = random_graph(rng, 6)
        labels = random_labels(rng, 6, 2)
        u = labels_to_matrix(labels, 2)
        sup = Supervision([1, 4], labels[[1, 4]], weight=5.0)
        assert ssl_energy(g, u, 0.9, sup) == pytest.approx(
            balanced_tv(g, u, 0.9), rel=1e-12
        )

    def test_single_entry_residual(self):
        # supervised row differs from its target by 0.5 in one entry
        u = np.array([[0.5, 0.0], [0.0, 1.0]])
        sup = Supervision([0], [0], weight=2.0)
        fidelity = ssl_energy(TWO_NODE, u, 1.0, sup) - balanced_tv(TWO_NODE, u, 1.0)
        assert fidelity == pytest.approx(0.5, rel=1e-12)

    def test_mask_out_of_range(self):
        sup = Supervision([5], [0], weight=1.0)
        with pytest.raises(ValueError, match="out of range"):
            ssl_energy(TWO_NODE, np.eye(2), 1.0, sup)

    def test_supervision_validation(self):
        with pytest.raises(ValueError, match="unique"):
            Supervision([1, 1], [0, 1], weight=1.0)
        with pytest.raises(ValueError, match="weight must be nonnegative"):
            Supervision([0], [1], weight=-1.0)
        with pytest.raises(ValueError, match="labels must be nonnegative"):
            Supervision([0, 1], [0, -1], weight=1.0)
        with pytest.raises(ValueError, match="one label per supervised node"):
            Supervision([0, 1], [0], weight=1.0)
        with pytest.raises(ValueError, match="one label per supervised node"):
            Supervision([0], [0, 1], weight=1.0)

    def test_nan_weight_rejected_infinite_kept(self):
        with pytest.raises(ValueError, match="weight must be nonnegative"):
            Supervision([0], [1], weight=np.nan)
        # an infinite weight pins the supervised rows to their targets
        sup = Supervision([0], [1], weight=np.inf)
        u = fidelity_step(np.array([[0.7, 0.3], [0.4, 0.6]]), sup, 0.1)
        assert np.array_equal(u, [[0.0, 1.0], [0.4, 0.6]])

    def test_classes_and_targets(self):
        sup = Supervision([4, 0, 2], [2, 0, 0], weight=1.0)
        assert sup.classes == 3
        assert np.array_equal(sup.targets(4), [[0, 0, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
        assert Supervision([], [], weight=1.0).classes == 0

    def test_more_classes_than_columns(self):
        sup = Supervision([0, 1], [0, 2], weight=1.0)
        with pytest.raises(ValueError, match="need 3 communities, got 2"):
            ssl_energy(TWO_NODE, np.eye(2), 1.0, sup)
