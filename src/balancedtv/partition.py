"""Strategies for choosing the number of communities.

Three policies: a fixed count (a plain ``mbo_run``), a modularity-maximizing
sweep over a range of counts that reuses a single eigenbasis, and recursive
splitting gated on full-graph modularity gain.  Also provides the
k-means-on-eigenvectors initialization that seeds each recursive split.
"""

from __future__ import annotations

import numpy as np

from .eigen import DiffusionOperator, EigenBasis
from .graph import Supervision, modularity
from .mbo import DT_CAP_FACTOR, MboResult, mbo_run, random_start, select_timestep, timestep_bounds

__all__ = ["kmeans_init", "sweep_nhat", "recursive_partition", "split_basis"]

DT_LADDER = 8  # rungs of the geometric timestep ladder a sweep tries per count
KMEANS_RESTARTS = 4  # k-means++ seedings per kmeans_init, best inertia kept
KMEANS_MAX_ITER = 100  # Lloyd iterations per restart
MIN_SPLIT_SIZE = 4  # smallest community a recursive run splits, unless nhat is larger
GAIN_TOL = 1e-10  # full-graph modularity gain a recursive split must exceed


def _kmeans_labels(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ / Lloyd, best of KMEANS_RESTARTS by inertia.

    Empty clusters are re-seeded at the point farthest from its centroid;
    clusters still empty after that are filled with a random point.
    """
    n = points.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64) % k

    sq_norms = np.sum(points**2, axis=1)[:, None]
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = np.empty((k, points.shape[1]))
        centers[0] = points[rng.integers(n)]
        dist_sq = np.sum((points - centers[0]) ** 2, axis=1)
        for c in range(1, k):  # k-means++ seeding
            total = dist_sq.sum()
            if total <= 0:
                centers[c] = points[rng.integers(n)]
                continue
            centers[c] = points[rng.choice(n, p=dist_sq / total)]
            dist_sq = np.minimum(dist_sq, np.sum((points - centers[c]) ** 2, axis=1))

        labels = np.zeros(n, dtype=np.int64)
        for _ in range(KMEANS_MAX_ITER):
            dists = sq_norms - 2.0 * points @ centers.T + np.sum(centers**2, axis=1)[None, :]
            new_labels = np.argmin(dists, axis=1)
            counts = np.bincount(new_labels, minlength=k)
            if counts.all():
                # bincount sums members in index order, as mean(axis=0) does,
                # so the centres are the same floats
                for j in range(points.shape[1]):
                    centers[:, j] = np.bincount(new_labels, weights=points[:, j],
                                                minlength=k) / counts
            else:
                for c in range(k):
                    members = new_labels == c
                    if members.any():
                        centers[c] = points[members].mean(axis=0)
                    else:
                        farthest = np.argmax(np.min(dists, axis=1))
                        centers[c] = points[farthest]
                        new_labels[farthest] = c
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        for c in range(k):  # orphaned clusters get a random member
            if not np.any(labels == c):
                labels[rng.integers(n)] = c
        inertia = float(
            np.sum((points - centers[labels]) ** 2)
        )
        if inertia < best_inertia:
            best_labels, best_inertia = labels.copy(), inertia
    return best_labels


def kmeans_init(basis: EigenBasis, nhat: int, seed: int = 0) -> np.ndarray:
    """Initial labels from k-means on the nhat leading eigenvectors."""
    if nhat < 1:
        raise ValueError("nhat must be at least 1")
    if basis.n_eig < nhat:
        raise ValueError(
            f"basis holds {basis.n_eig} eigenvectors, need at least {nhat}"
        )
    rng = np.random.default_rng(seed)
    return _kmeans_labels(basis.eigenvectors[:, :nhat], nhat, rng)


def _sweep_timesteps(basis: EigenBasis) -> list[float]:
    """Candidate timesteps for one sweep: the automatic choice plus a
    DT_LADDER-rung geometric ladder across the admissible range [tau_lo, cap].
    Diffusion reuses the one basis, so extra timesteps cost no eigenwork."""
    tau_lo, _ = timestep_bounds(basis.operator)
    rungs = tau_lo * np.logspace(0.1, np.log10(DT_CAP_FACTOR), DT_LADDER)
    return sorted(set(float(dt) for dt in rungs) | {select_timestep(basis)})


def sweep_nhat(basis: EigenBasis, nhats, *, seed: int = 0,
               supervision: Supervision | None = None) -> MboResult:
    """Run the MBO solve for each candidate community count and keep the
    partition with the best modularity (ties to the smaller count).

    Every run shares the one eigenbasis ``basis``.  Each count draws one
    start, ``random_start`` of ``seed``, and tries it across a DT_LADDER-rung
    geometric ladder of timesteps (the automatic choice always included):
    fixed points of the threshold dynamics depend on the timestep, and with
    the basis amortized the extra runs are nearly free.  Counts too small to
    hold every supervised class are skipped.
    """
    nhats = sorted(set(int(h) for h in nhats))
    if not nhats:
        raise ValueError("empty sweep range")
    if supervision is not None:
        nhats = [nhat for nhat in nhats if nhat >= supervision.classes]
        if not nhats:
            raise ValueError(f"nhats: every count is below the {supervision.classes} "
                             "classes of the supervision labels")
    timesteps = _sweep_timesteps(basis)
    best = None
    for nhat in nhats:
        start = random_start(basis.n_nodes, nhat, seed, supervision)
        for dt in timesteps:
            result = mbo_run(basis, nhat, start, dt=dt, supervision=supervision)
            if best is None or result.modularity > best.modularity:
                best = result
    return best


def split_basis(op: DiffusionOperator, members: np.ndarray,
                split_factor: int) -> EigenBasis | None:
    """The eigenbasis a recursive split of ``members`` into ``split_factor``
    parts starts from, from the cache of :meth:`DiffusionOperator.subgraph_basis`;
    None for a set too small to split or without an edge."""
    # k-means on a smaller community's basis would have fewer columns than parts
    if members.size < max(MIN_SPLIT_SIZE, split_factor):
        return None
    return op.subgraph_basis(members, min(5 * split_factor, members.size))


def recursive_partition(op: DiffusionOperator, split_factor: int, *,
                        seed: int = 0) -> MboResult:
    """Recursively split communities of ``op.graph`` while full-graph
    modularity at ``op.gamma`` increases.

    Starts from a single community.  Each community of at least
    ``max(MIN_SPLIT_SIZE, split_factor)`` nodes is split by an MBO run on its
    induced subgraph into at most ``split_factor`` parts; the split is kept
    only if modularity of the whole graph, with the original degrees and
    total weight, increases by more than GAIN_TOL.  Accepted parts are
    revisited until no community admits a profitable split.  Returns an
    :class:`MboResult` of contiguous labels with ``iterations`` and
    ``converged`` taken over every split's MBO run; ``dt_used`` is None and
    the traces are empty.

    Each subgraph's eigenbasis comes from :func:`split_basis`: it is solved
    from a fixed Lanczos start and cached on ``op``, so repeats on one
    operator solve each member set once.  ``seed`` drives only the
    k-means initialization of each split.
    """
    if split_factor < 2:
        raise ValueError("split_factor must be at least 2")
    graph, gamma = op.graph, op.gamma
    labels = np.zeros(graph.n_nodes, dtype=np.int64)
    current_q = modularity(graph, labels, gamma)
    pending = [np.arange(graph.n_nodes, dtype=np.int64)]
    next_label = 1
    subproblem = iterations = 0
    converged = True

    while pending:
        members = pending.pop()
        basis = split_basis(op, members, split_factor)
        if basis is None:
            continue
        start = kmeans_init(basis, split_factor, seed=seed + subproblem)
        subproblem += 1
        result = mbo_run(basis, split_factor, start)
        iterations += result.iterations
        converged = converged and result.converged

        parts = np.unique(result.labels)
        if parts.size < 2:
            continue
        candidate = labels.copy()
        for part in parts[1:]:  # first part keeps the parent label
            candidate[members[result.labels == part]] = next_label
            next_label += 1
        candidate_q = modularity(graph, candidate, gamma)
        if candidate_q > current_q + GAIN_TOL:
            labels = candidate
            current_q = candidate_q
            for part in parts:
                pending.append(members[result.labels == part])

    labels = np.unique(labels, return_inverse=True)[1].astype(np.int64)
    empty = np.empty(0)
    return MboResult(labels=labels, iterations=iterations, dt_used=None,
                     energy_trace=empty, modularity_trace=empty,
                     modularity=modularity(graph, labels, gamma),
                     converged=converged, nhat=int(labels.max()) + 1)
