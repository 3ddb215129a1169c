"""Workload definitions and the seeded generators that make their inputs.

The inputs come from generators of the benchmark's own, not from
``balancedtv generate``: a change to the program's generators must not change
what the benchmark measures.  Node order is shuffled so that no block or moon
sits in a contiguous index range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One `balancedtv partition` command line and what its output must meet.

    Each run of the benchmark generates ``inputs`` independent inputs from
    its seed and times the command on each in turn.  ``flags`` are the
    partition flags besides the input, truth and output files and
    ``--repeat``; ``count_range`` bounds the community count of the written
    labels; ``louvain_margin`` is how far the best modularity may fall below
    the networkx Louvain reference; ``class_floor`` is the least acceptable
    best classification rate against the generator's ground truth.
    """

    name: str
    salt: int
    kind: str  # "moons" (features CSV) or "planted" (edge list)
    params: dict
    inputs: int
    flags: tuple[str, ...]
    gamma: float
    repeat: int
    count_range: tuple[int, int]
    louvain_margin: float
    class_floor: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="moons",
            salt=1,
            kind="moons",
            params={"n": 2_000, "dim": 100, "sigma": 0.14, "knn": 13},
            inputs=5,
            flags=("--knn", "13", "--gamma", "0.2", "--nhat", "2"),
            gamma=0.2,
            repeat=40,
            count_range=(1, 2),
            louvain_margin=0.005,
            class_floor=0.93,
        ),
        Workload(
            name="planted-sweep",
            salt=2,
            kind="planted",
            params={"n": 5_000, "blocks": 4, "deg_in": 10.0, "deg_out": 1.0},
            inputs=2,
            flags=("--gamma", "1", "--sweep", "2..10"),
            gamma=1.0,
            repeat=1,
            count_range=(2, 10),
            louvain_margin=0.005,
            class_floor=0.99,
        ),
        Workload(
            name="planted-recursive",
            salt=3,
            kind="planted",
            params={"n": 2_000, "blocks": 16, "deg_in": 10.0, "deg_out": 1.0},
            inputs=3,
            flags=("--gamma", "1", "--recursive"),
            gamma=1.0,
            repeat=8,
            # recursion must split at least once; parts of fewer than
            # --min-size (default 4) nodes are never split further
            count_range=(2, 2_000 // 4),
            # splits are never revisited, so a few percent of nodes stay on
            # the wrong side and Q ends up to 0.035 below Louvain's
            louvain_margin=0.05,
            class_floor=0.9,
        ),
    )
}


def two_moons(n: int, dim: int, sigma: float, rng: np.random.Generator):
    """Two interlocking half-circles in ``dim`` dimensions with Gaussian
    noise of std ``sigma`` on every coordinate.  Returns (features, truth)."""
    half = n // 2
    truth = np.repeat([0, 1], [half, n - half]).astype(np.int64)
    angle = rng.uniform(0.0, np.pi, size=n)
    features = np.zeros((n, dim))
    upper = truth == 0
    features[upper, 0] = np.cos(angle[upper])
    features[upper, 1] = np.sin(angle[upper])
    features[~upper, 0] = 1.0 + np.cos(angle[~upper])
    features[~upper, 1] = 0.5 - np.sin(angle[~upper])
    features += sigma * rng.standard_normal(features.shape)
    order = rng.permutation(n)
    return features[order], truth[order]


def planted(n: int, blocks: int, deg_in: float, deg_out: float,
            rng: np.random.Generator):
    """Planted partition with equal blocks and unit-weight edges, each node
    pair joined independently with the probability that gives the expected
    within- and between-block degrees (sampled per block pair as a binomial
    edge count and that many distinct pairs).  A node left without edges is
    joined to a random member of its block, so every node appears in the
    edge list.  Returns (rows, cols, truth) with rows < cols, one entry per
    edge."""
    truth = np.repeat(np.arange(blocks), -(-n // blocks))[:n]
    members = [np.flatnonzero(truth == b) for b in range(blocks)]
    size = max(m.size for m in members)
    p_in = deg_in / (size - 1)
    p_out = deg_out / (n - size)
    rows, cols = [], []
    for a in range(blocks):
        tri_i, tri_j = np.triu_indices(members[a].size, k=1)
        pick = rng.choice(tri_i.size, rng.binomial(tri_i.size, p_in), replace=False)
        rows.append(members[a][tri_i[pick]])
        cols.append(members[a][tri_j[pick]])
        for b in range(a + 1, blocks):
            pairs = members[a].size * members[b].size
            pick = rng.choice(pairs, rng.binomial(pairs, p_out), replace=False)
            rows.append(members[a][pick // members[b].size])
            cols.append(members[b][pick % members[b].size])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    degree = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    extra = []
    for node in np.flatnonzero(degree == 0):
        if degree[node]:  # joined already as an earlier node's mate
            continue
        mates = members[truth[node]]
        mate = int(rng.choice(mates[mates != node]))
        extra.append((min(node, mate), max(node, mate)))
        degree[[node, mate]] += 1
    if extra:
        rows = np.concatenate([rows, [e[0] for e in extra]])
        cols = np.concatenate([cols, [e[1] for e in extra]])
    relabel = rng.permutation(n)
    a, b = relabel[rows], relabel[cols]
    shuffled = np.empty(n, dtype=np.int64)
    shuffled[relabel] = truth
    return np.minimum(a, b), np.maximum(a, b), shuffled
