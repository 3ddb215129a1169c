"""Graph construction: synthetic benchmarks and self-tuning k-NN similarity
graphs.  Neighbors come from an exact pairwise search that holds at most
KNN_BLOCK_BYTES of distances at a time (one row at least), whatever the point
count or dimension.

All generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import SparseGraph

__all__ = [
    "two_moons",
    "knn_graph",
    "planted_partition",
]

KNN_BLOCK_BYTES = 2**23  # squared distances held at once by the k-NN search


def two_moons(n_points: int, ambient_dim: int, noise_sigma: float = 0.14,
              seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two interlocking half-circles embedded in ``ambient_dim`` dimensions.

    The first moon is the upper unit half-circle centered at the origin; the
    second is the downward arc centered at (1, 0.5), so the arcs interlock.
    Points split evenly between the moons, angles drawn uniformly.  Isotropic
    Gaussian noise with std ``noise_sigma`` is added to every coordinate; a
    ``noise_sigma`` so large that a coordinate overflows raises ValueError.

    Returns (features, labels) with labels giving the source moon.
    """
    if ambient_dim < 2:
        raise ValueError("ambient_dim must be at least 2")
    if not 0 <= noise_sigma < np.inf:  # NaN fails too
        raise ValueError("noise_sigma must be finite and nonnegative")
    if n_points < 1:
        raise ValueError("n_points must be positive")
    rng = np.random.default_rng(seed)
    n_first = n_points // 2
    n_second = n_points - n_first
    t1 = rng.uniform(0.0, np.pi, size=n_first)
    t2 = rng.uniform(0.0, np.pi, size=n_second)
    plane = np.zeros((n_points, 2))
    plane[:n_first, 0] = np.cos(t1)
    plane[:n_first, 1] = np.sin(t1)
    plane[n_first:, 0] = 1.0 + np.cos(t2)
    plane[n_first:, 1] = 0.5 - np.sin(t2)
    features = np.zeros((n_points, ambient_dim))
    features[:, :2] = plane
    if noise_sigma > 0:
        with np.errstate(over="ignore"):
            features += noise_sigma * rng.standard_normal(features.shape)
        if not np.isfinite(features).all():
            raise ValueError(f"noise_sigma {noise_sigma:g} overflows the features")
    labels = np.zeros(n_points, dtype=np.int64)
    labels[n_first:] = 1
    return features, labels


def _knn_distances(features: np.ndarray, k: int):
    """Distances and indices of the k nearest neighbors of every point,
    self excluded, both arrays shaped (n, k)."""
    n = features.shape[0]
    dist = np.empty((n, k), dtype=np.float64)
    idx = np.empty((n, k), dtype=np.int64)
    sq_norms = np.einsum("ij,ij->i", features, features)
    chunk = max(1, KNN_BLOCK_BYTES // (8 * n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        # |x|^2 - 2 x.y + |y|^2, built in place: same floats as the expression
        block = features[start:stop] @ features.T
        block *= -2.0
        block += sq_norms[start:stop, None]
        block += sq_norms[None, :]
        np.maximum(block, 0.0, out=block)
        block[np.arange(start, stop) - start, np.arange(start, stop)] = np.inf
        part = np.argpartition(block, k - 1, axis=1)[:, :k]
        part_d = np.take_along_axis(block, part, axis=1)
        order = np.argsort(part_d, axis=1, kind="stable")
        idx[start:stop] = np.take_along_axis(part, order, axis=1)
        dist[start:stop] = np.sqrt(np.take_along_axis(part_d, order, axis=1))
    return dist, idx


def knn_graph(features, k: int) -> SparseGraph:
    """Self-tuning Gaussian k-nearest-neighbors graph.

    w_ij = exp(-d(i,j)^2 / (sigma_i sigma_j)) with sigma_i the distance from
    point i to its k-th nearest neighbor.  An edge is kept when either
    endpoint lists the other among its k nearest neighbors (union
    symmetrization, realized as an elementwise max).

    A point whose k nearest neighbors all coincide with it (sigma_i = 0)
    raises ValueError.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-d array")
    n = features.shape[0]
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < n_points")

    dist, idx = _knn_distances(features, k)
    sigma = dist[:, k - 1]
    # each row of dist is sorted, so a zero k-th distance makes all k zero
    coincident = np.flatnonzero(sigma <= 0.0)
    if coincident.size:
        raise ValueError(
            f"point {coincident[0]}: all {k} nearest neighbors coincide with it; "
            "remove duplicate points"
        )

    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = idx.ravel()
    w = np.exp(-(dist.ravel() ** 2) / (sigma[rows] * sigma[cols]))
    directed = sp.csr_matrix((w, (rows, cols)), shape=(n, n))
    symmetric = directed.maximum(directed.T)
    return SparseGraph.from_scipy(symmetric)


def planted_partition(n_nodes: int, n_communities: int, avg_degree_in: float,
                      avg_degree_out: float, seed: int = 0) -> tuple[SparseGraph, np.ndarray]:
    """Random graph with equal-size blocks and independent unit-weight edges.

    Within-block and between-block edge probabilities are set so the expected
    within and between degrees match ``avg_degree_in`` / ``avg_degree_out``.
    Returns (graph, block labels).
    """
    if n_communities < 1 or n_nodes < n_communities:
        raise ValueError("need n_nodes >= n_communities >= 1")
    sizes = np.full(n_communities, n_nodes // n_communities, dtype=np.int64)
    sizes[: n_nodes % n_communities] += 1
    labels = np.repeat(np.arange(n_communities, dtype=np.int64), sizes)

    size_ref = int(sizes.max())
    p_in = 0.0 if size_ref <= 1 else avg_degree_in / (size_ref - 1)
    p_out = 0.0 if n_nodes == size_ref else avg_degree_out / (n_nodes - size_ref)
    for name, p in (("within", p_in), ("between", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}-block edge probability {p:.4g} outside [0, 1]")

    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for start in range(0, n_nodes):
        # upper triangle only; probabilities keyed on same/different block
        partners = np.arange(start + 1, n_nodes)
        probs = np.where(labels[partners] == labels[start], p_in, p_out)
        hit = partners[rng.random(partners.size) < probs]
        rows.append(np.full(hit.size, start, dtype=np.int64))
        cols.append(hit)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return SparseGraph.from_coo(n_nodes, rows, cols, np.ones(rows.size)), labels
