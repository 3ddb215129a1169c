"""Shared fixtures, generators, and independent oracles for the test suite."""

import numpy as np
import pytest

from balancedtv import SparseGraph, labels_to_matrix


def random_graph(rng, n, density=0.4, connected=True, w_low=0.2, w_high=2.0):
    """Random symmetric weighted graph without self-loops.

    With ``connected=True`` a random Hamiltonian path of unit edges is added
    so the graph is connected (keeps lambda_1 bounded away from zero).
    """
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = rng.uniform(w_low, w_high)
                dense[i, j] = dense[j, i] = w
    if connected:
        order = rng.permutation(n)
        for a, b in zip(order[:-1], order[1:]):
            if dense[a, b] == 0:
                dense[a, b] = dense[b, a] = 1.0
    elif dense.sum() == 0:
        dense[0, 1] = dense[1, 0] = 1.0
    return SparseGraph.from_dense(dense)


def random_labels(rng, n, nhat):
    return rng.integers(0, nhat, size=n).astype(np.int64)


def random_one_hot(rng, n, nhat):
    """One-hot N x nhat matrix of uniform random labels."""
    return labels_to_matrix(random_labels(rng, n, nhat), nhat)


def dense_modularity(graph, labels, gamma):
    """Independent quadruple-loop-free but formula-literal modularity oracle:
    (1/2m) sum over ordered pairs in the same community of
    (w_ij - gamma k_i k_j / 2m), evaluated on the dense weight matrix."""
    W = graph.adjacency.toarray()
    k = graph.degrees
    twom = graph.total_weight
    labels = np.asarray(labels)
    total = 0.0
    for i in range(graph.n_nodes):
        for j in range(graph.n_nodes):
            if labels[i] == labels[j]:
                total += W[i, j] - gamma * k[i] * k[j] / twom
    return total / twom


def two_cliques(size, weight=1.0):
    """Two disconnected complete graphs of ``size`` nodes each."""
    n = 2 * size
    dense = np.zeros((n, n))
    dense[:size, :size] = weight
    dense[size:, size:] = weight
    np.fill_diagonal(dense, 0.0)
    return SparseGraph.from_dense(dense)


def path_graph(n, weight=1.0):
    dense = np.zeros((n, n))
    for i in range(n - 1):
        dense[i, i + 1] = dense[i + 1, i] = weight
    return SparseGraph.from_dense(dense)


def complete_graph(n, weight=1.0):
    dense = np.full((n, n), weight)
    np.fill_diagonal(dense, 0.0)
    return SparseGraph.from_dense(dense)


def assert_same_graph(a, b):
    """The two graphs store the same CSR arrays, dtypes too, and derive the
    same degrees and 2m."""
    pairs = [(getattr(a.adjacency, f), getattr(b.adjacency, f))
             for f in ("indptr", "indices", "data")]
    for x, y in pairs + [(a.degrees, b.degrees)]:
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a.n_nodes == b.n_nodes
    assert a.total_weight == b.total_weight


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
