"""Graph construction: synthetic benchmarks, k-NN similarity graphs, and
patch features for hyperspectral-style images.

All generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import SparseGraph

__all__ = [
    "two_moons",
    "knn_graph",
    "nonlocal_means_features",
    "planted_partition",
]

# Exact pairwise search below this point count, k-d tree above.
BRUTE_FORCE_LIMIT = 20_000


def two_moons(n_points: int, ambient_dim: int, noise_sigma: float = 0.14,
              seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two interlocking half-circles embedded in ``ambient_dim`` dimensions.

    The first moon is the upper unit half-circle centered at the origin; the
    second is the downward arc centered at (1, 0.5), so the arcs interlock.
    Points split evenly between the moons, angles drawn uniformly.  Isotropic
    Gaussian noise with std ``noise_sigma`` is added to every coordinate.

    Returns (features, labels) with labels giving the source moon.
    """
    if ambient_dim < 2:
        raise ValueError("ambient_dim must be at least 2")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
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
        features += noise_sigma * rng.standard_normal(features.shape)
    labels = np.zeros(n_points, dtype=np.int64)
    labels[n_first:] = 1
    return features, labels


def _knn_distances(features: np.ndarray, k: int):
    """Distances and indices of the k nearest neighbors of every point,
    self excluded, both arrays shaped (n, k)."""
    n = features.shape[0]
    if n <= BRUTE_FORCE_LIMIT:
        dist = np.empty((n, k), dtype=np.float64)
        idx = np.empty((n, k), dtype=np.int64)
        sq_norms = np.einsum("ij,ij->i", features, features)
        chunk = max(1, int(2e7) // max(n, 1))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            block = (
                sq_norms[start:stop, None]
                - 2.0 * features[start:stop] @ features.T
                + sq_norms[None, :]
            )
            np.maximum(block, 0.0, out=block)
            block[np.arange(start, stop) - start, np.arange(start, stop)] = np.inf
            part = np.argpartition(block, k - 1, axis=1)[:, :k]
            part_d = np.take_along_axis(block, part, axis=1)
            order = np.argsort(part_d, axis=1, kind="stable")
            idx[start:stop] = np.take_along_axis(part, order, axis=1)
            dist[start:stop] = np.sqrt(np.take_along_axis(part_d, order, axis=1))
        return dist, idx
    # imported here: scipy.spatial is slow to load and small inputs never need it
    from scipy.spatial import cKDTree
    tree = cKDTree(features)
    dist, idx = tree.query(features, k=k + 1)
    # with duplicate points self need not come first; drop it wherever it sits
    keep = idx != np.arange(n)[:, None]
    rows_without_self = keep.all(axis=1)
    keep[rows_without_self, -1] = False
    return dist[keep].reshape(n, k), idx[keep].reshape(n, k).astype(np.int64)


def knn_graph(features, k: int, scaling_neighbor: int | None = None) -> SparseGraph:
    """Self-tuning Gaussian k-nearest-neighbors graph.

    w_ij = exp(-d(i,j)^2 / (sigma_i sigma_j)) with sigma_i the distance from
    point i to its ``scaling_neighbor``-th nearest neighbor (default: the
    k-th).  An edge is kept when either endpoint lists the other among its k
    nearest neighbors (union symmetrization, realized as an elementwise max).

    Points with sigma_i = 0 (duplicates) fall back to their smallest positive
    neighbor distance; a point whose k nearest neighbors are all coincident
    raises ValueError.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-d array")
    n = features.shape[0]
    if scaling_neighbor is None:
        scaling_neighbor = k
    if not 1 <= scaling_neighbor <= k:
        raise ValueError("scaling_neighbor must lie in [1, k]")
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < n_points")

    dist, idx = _knn_distances(features, k)
    sigma = dist[:, scaling_neighbor - 1].copy()
    degenerate = sigma <= 0.0
    if np.any(degenerate):
        for i in np.nonzero(degenerate)[0]:
            positive = dist[i][dist[i] > 0.0]
            if positive.size == 0:
                raise ValueError(
                    f"point {i}: all {k} nearest neighbors coincide with it; "
                    "remove duplicate points"
                )
            sigma[i] = positive[0]

    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = idx.ravel()
    w = np.exp(-(dist.ravel() ** 2) / (sigma[rows] * sigma[cols]))
    directed = sp.csr_matrix((w, (rows, cols)), shape=(n, n))
    symmetric = directed.maximum(directed.T)
    graph = SparseGraph.from_scipy(symmetric)
    graph.validate()
    return graph


def nonlocal_means_features(cube, window: int) -> np.ndarray:
    """Per-pixel patch features for an H x W x B image cube.

    Each pixel yields the window x window x B patch around it (replicate
    padding at the borders), every spatial offset scaled by a Gaussian weight
    centered on the patch (std = window / 2 in pixels) so the patch center
    dominates, then the row is normalized to unit Euclidean norm.  Euclidean
    k-NN on the result reproduces center-weighted cosine k-NN on raw patches.
    """
    cube = np.asarray(cube, dtype=np.float64)
    if cube.ndim != 3 or cube.size == 0:
        raise ValueError("cube must be a nonempty H x W x B array")
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and positive")
    height, width, bands = cube.shape
    half = window // 2
    padded = np.pad(cube, ((half, half), (half, half), (0, 0)), mode="edge")
    offsets = np.arange(window) - half
    dy, dx = np.meshgrid(offsets, offsets, indexing="ij")
    spatial_std = window / 2.0
    spatial_weight = np.exp(-(dy**2 + dx**2) / (2.0 * spatial_std**2))

    out = np.empty((height * width, window * window * bands))
    col = 0
    for wy in range(window):
        for wx in range(window):
            patch = padded[wy:wy + height, wx:wx + width, :]
            out[:, col:col + bands] = (
                spatial_weight[wy, wx] * patch.reshape(height * width, bands)
            )
            col += bands
    norms = np.linalg.norm(out, axis=1)
    if np.any(norms == 0):
        # all-zero patches stay zero rather than dividing by zero
        norms = np.where(norms == 0, 1.0, norms)
    return out / norms[:, None]


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
        if partners.size == 0:
            continue
        probs = np.where(labels[partners] == labels[start], p_in, p_out)
        hit = partners[rng.random(partners.size) < probs]
        rows.append(np.full(hit.size, start, dtype=np.int64))
        cols.append(hit)
    rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    graph = SparseGraph.from_coo(
        n_nodes, rows, cols, np.ones(rows.size), symmetrize=True
    )
    return graph, labels
