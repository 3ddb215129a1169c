"""Correctness checks on the files a `balancedtv partition` run writes.

Everything here is built apart from ``balancedtv``: the graph is the one the
benchmark generated (for two-moons, a k-NN graph the benchmark builds itself
from the same features), modularity and classification rate are computed
from their definitions, and the quality reference is networkx Louvain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment

MODULARITY_TOL = 1e-9
ASSIGNMENT_LIMIT = 12  # beyond this many labels the classification rate is purity


@dataclass(frozen=True)
class Reference:
    """What the outputs of one workload input are checked against."""

    n: int
    rows: np.ndarray     # one entry per undirected edge
    cols: np.ndarray
    weights: np.ndarray
    truth: np.ndarray
    gamma: float
    louvain_q: float


def modularity(n, rows, cols, weights, labels, gamma) -> float:
    """Q = (1/2m) sum_c [W_in(c) - gamma vol(c)^2 / 2m], W_in over ordered pairs."""
    degree = np.bincount(rows, weights, n) + np.bincount(cols, weights, n)
    two_m = degree.sum()
    w_in = 2.0 * weights[labels[rows] == labels[cols]].sum()
    vol = np.bincount(labels, weights=degree)
    return float((w_in - gamma * (vol @ vol) / two_m) / two_m)


def knn_edges(features: np.ndarray, k: int):
    """Self-tuning Gaussian k-NN graph, union-symmetrized.

    w_ij = exp(-d_ij^2 / (sigma_i sigma_j)), sigma_i the distance from i to
    its k-th nearest neighbor; an edge exists when either endpoint lists the
    other among its k nearest.  Returns (rows, cols, weights), rows < cols.
    """
    n = features.shape[0]
    sq = np.einsum("ij,ij->i", features, features)
    neighbors = np.empty((n, k), dtype=np.int64)
    block = 512
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = sq[start:stop, None] - 2.0 * features[start:stop] @ features.T + sq
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        neighbors[start:stop] = np.argpartition(d2, k, axis=1)[:, :k]
    # exact distances for the chosen pairs, then sigma from the k-th
    src = np.repeat(np.arange(n), k)
    dist = np.linalg.norm(features[src] - features[neighbors.ravel()], axis=1)
    sigma = dist.reshape(n, k).max(axis=1)
    lo = np.minimum(src, neighbors.ravel())
    hi = np.maximum(src, neighbors.ravel())
    keys, first = np.unique(lo * n + hi, return_index=True)
    rows, cols = keys // n, keys % n
    weights = np.exp(-dist[first] ** 2 / (sigma[rows] * sigma[cols]))
    return rows, cols, weights


def louvain_labels(n, rows, cols, weights, gamma, seed=0) -> np.ndarray:
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_weighted_edges_from(zip(rows.tolist(), cols.tolist(), weights.tolist()))
    labels = np.empty(n, dtype=np.int64)
    for c, members in enumerate(
        nx.community.louvain_communities(graph, resolution=gamma, seed=seed)
    ):
        labels[list(members)] = c
    return labels


def coarsen(n, rows, cols, weights, labels, gamma, max_count) -> np.ndarray:
    """Merge communities of ``labels``, each time the pair whose merge gives
    the highest modularity, until at most ``max_count`` remain.

    A program asked for at most ``max_count`` communities cannot reach a
    partition with more, so its reference must be within the same count.
    """
    labels = np.unique(labels, return_inverse=True)[1]
    count = labels.max() + 1
    if count <= max_count:
        return labels
    degree = np.bincount(rows, weights, n) + np.bincount(cols, weights, n)
    two_m = degree.sum()
    between = np.zeros((count, count))  # edge weight between communities
    np.add.at(between, (labels[rows], labels[cols]), weights)
    between += between.T
    vol = np.bincount(labels, weights=degree, minlength=count)
    groups = list(range(count))  # community -> merged group
    while count > max_count:
        # Q gain of merging a and b: (2 w_ab - gamma 2 vol_a vol_b / 2m) / 2m
        gain = 2.0 * between - gamma * 2.0 * np.outer(vol, vol) / two_m
        np.fill_diagonal(gain, -np.inf)
        a, b = sorted(np.unravel_index(np.argmax(gain), gain.shape))
        between[a] += between[b]
        between[:, a] += between[:, b]
        between = np.delete(np.delete(between, b, 0), b, 1)
        vol[a] += vol[b]
        vol = np.delete(vol, b)
        groups = [a if g == b else g - (g > b) for g in groups]
        count -= 1
    return np.asarray(groups, dtype=np.int64)[labels]


def classification_rate(predicted, truth) -> float:
    """Accuracy under the best one-to-one relabeling of predicted clusters;
    purity when either side has more than ASSIGNMENT_LIMIT labels.  Both
    label vectors must be contiguous from 0."""
    counts = np.zeros((predicted.max() + 1, truth.max() + 1), dtype=np.int64)
    np.add.at(counts, (predicted, truth), 1)
    if max(counts.shape) > ASSIGNMENT_LIMIT:
        return float(counts.max(axis=1).sum() / counts.sum())
    r, c = linear_sum_assignment(counts, maximize=True)
    return float(counts[r, c].sum() / counts.sum())


class CheckFailed(Exception):
    pass


def read_labels(path, n: int) -> np.ndarray:
    """Labels CSV `node,label`: every node 0..n-1 exactly once, labels >= 0."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "node,label":
        raise CheckFailed(f"{path}: header is not 'node,label'")
    try:
        pairs = np.array([[int(x) for x in line.split(",")] for line in lines[1:]],
                         dtype=np.int64).reshape(-1, 2)
    except ValueError as exc:
        raise CheckFailed(f"{path}: unparsable row ({exc})") from None
    if pairs.shape[0] != n or not np.array_equal(np.sort(pairs[:, 0]), np.arange(n)):
        raise CheckFailed(f"{path}: labels do not cover nodes 0..{n - 1} exactly once")
    labels = np.empty(n, dtype=np.int64)
    labels[pairs[:, 0]] = pairs[:, 1]
    if labels.min() < 0:
        raise CheckFailed(f"{path}: negative label")
    return labels


def read_batch(path, repeat: int):
    """Batch CSV: one `seed,modularity,classification,wall_time_ms` row per
    seed 0..repeat-1.  Returns (modularity, classification) arrays."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "seed,modularity,classification,wall_time_ms":
        raise CheckFailed(f"{path}: unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(repeat)):
        raise CheckFailed(f"{path}: expected one row for each seed 0..{repeat - 1}")
    q = np.array([float(r[1]) for r in rows])
    cls = np.array([float(r[2]) for r in rows])
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(cls))):
        raise CheckFailed(f"{path}: non-finite value")
    return q, cls


def check_labels(labels: np.ndarray, batch_q: np.ndarray, batch_cls: np.ndarray,
                 ref: Reference, workload) -> list[str]:
    """Failures of the best run's labels against the reference, one line each."""
    failures = []
    lo, hi = workload.count_range
    count = np.unique(labels).size
    if not lo <= count <= hi:
        failures.append(f"{count} communities, outside {lo}..{hi}")
    best = int(np.argmax(batch_q))
    q = modularity(ref.n, ref.rows, ref.cols, ref.weights, labels, ref.gamma)
    if not math.isclose(q, batch_q[best], rel_tol=0.0, abs_tol=MODULARITY_TOL):
        failures.append(f"recomputed modularity {q!r} != batch best {batch_q[best]!r}")
    cls = classification_rate(np.unique(labels, return_inverse=True)[1], ref.truth)
    if not math.isclose(cls, batch_cls[best], rel_tol=0.0, abs_tol=1e-12):
        failures.append(f"recomputed classification {cls!r} != batch {batch_cls[best]!r}")
    if q < ref.louvain_q - workload.louvain_margin:
        failures.append(
            f"modularity {q:.6f} below Louvain {ref.louvain_q:.6f} - {workload.louvain_margin}"
        )
    if batch_cls.max() < workload.class_floor:
        # Missing the floor is a failure unless the program found a partition
        # with higher modularity than the ground truth's: then the modularity
        # optimum is not the planted answer, and neither need the program's be.
        q_truth = modularity(ref.n, ref.rows, ref.cols, ref.weights, ref.truth, ref.gamma)
        if batch_q.max() < q_truth:
            failures.append(
                f"best classification {batch_cls.max():.6f} < {workload.class_floor} "
                f"and best modularity {batch_q.max():.6f} < {q_truth:.6f}, "
                "that of the ground truth"
            )
    return failures


def check_outputs(prefix, ref: Reference, workload):
    """(failures, (q_best, q_median, class_best)) for one run's output files."""
    try:
        q, cls = read_batch(f"{prefix}_batch.csv", workload.repeat)
        labels = read_labels(f"{prefix}_labels.csv", ref.n)
    except (CheckFailed, OSError, ValueError, IndexError) as exc:
        return [str(exc)], None
    failures = check_labels(labels, q, cls, ref, workload)
    return failures, (float(q.max()), float(np.median(q)), float(cls.max()))


def self_test(prefix, ref: Reference, workload) -> list[str]:
    """Feed the checks corrupted copies of a good labels file; return the
    corruptions the checks failed to catch (empty when all are caught)."""
    with open(f"{prefix}_labels.csv") as fh:
        good = fh.read().splitlines()
    labels = read_labels(f"{prefix}_labels.csv", ref.n)
    q, cls = read_batch(f"{prefix}_batch.csv", workload.repeat)
    rng = np.random.default_rng(0)
    hi = workload.count_range[1]
    split = labels.copy()
    split[: hi + 1] = labels.max() + 1 + np.arange(hi + 1)
    corrupted = {
        "missing node": "\n".join(good[:-1]) + "\n",
        "shuffled labels": "node,label\n" + "".join(
            f"{i},{v}\n" for i, v in enumerate(rng.permutation(labels))),
        "extra communities": "node,label\n" + "".join(
            f"{i},{v}\n" for i, v in enumerate(split)),
    }
    missed = []
    for name, text in corrupted.items():
        path = f"{prefix}_corrupt_labels.csv"
        with open(path, "w") as fh:
            fh.write(text)
        try:
            caught = bool(check_labels(read_labels(path, ref.n), q, cls, ref, workload))
        except CheckFailed:
            caught = True
        if not caught:
            missed.append(name)
    return missed
