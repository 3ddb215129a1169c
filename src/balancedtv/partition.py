"""Strategies for choosing the number of communities.

Three policies: a fixed count (a plain ``mbo_run`` at the automatic
timestep), a modularity-maximizing sweep over a range of counts and a fixed
set of timesteps that reuses a single eigenbasis, and recursive splitting
gated on full-graph modularity gain, which alone picks, solves and caches
the basis each split starts from.  Also provides the k-means-on-eigenvectors
initialization that seeds each recursive split.
"""

from __future__ import annotations

import numpy as np

from .eigen import DiffusionOperator, EigenBasis, smallest_eigenpairs
from .graph import Supervision, modularity
from .mbo import DT_CAP_FACTOR, MboResult, mbo_run, random_start, timestep_bounds

__all__ = ["kmeans_init", "sweep_nhat", "recursive_partition"]

DT_LADDER = 8  # rungs of the geometric timestep ladder over [tau_lo, cap]
DT_SWEPT = 5  # its top rungs, the timesteps a sweep tries per count
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
    """The timesteps one sweep tries per count, increasing: the top DT_SWEPT
    rungs (22 to 1000 x tau_lo) of a DT_LADDER-rung geometric ladder across
    the admissible range [tau_lo, cap].  The lower rungs and the automatic
    ``select_timestep`` sit nearer the freezing bound and did not win."""
    tau_lo, _ = timestep_bounds(basis.operator)
    rungs = tau_lo * np.logspace(0.1, np.log10(DT_CAP_FACTOR), DT_LADDER)
    return [float(dt) for dt in rungs[-DT_SWEPT:]]


def sweep_nhat(basis: EigenBasis, nhats, *, seed: int = 0,
               supervision: Supervision | None = None) -> MboResult:
    """Run the MBO solve for each candidate community count and keep the
    partition with the best modularity (ties to the smaller count).

    Every run shares the one eigenbasis ``basis``.  Each count draws one
    start, ``random_start`` of ``seed``, and runs it at each of the DT_SWEPT
    timesteps of :func:`_sweep_timesteps`, the top of the admissible range:
    fixed points of the threshold dynamics depend on the timestep, and with
    the basis amortized the extra runs cost no eigenwork.  Counts too small
    to hold every supervised class are skipped.
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


def _split_basis(op: DiffusionOperator, members: np.ndarray,
                 split_factor: int) -> EigenBasis | None:
    """The basis a split of ``members`` (sorted and distinct) into
    ``split_factor`` parts starts from: min(5 * split_factor, size) pairs on
    the subgraph they induce; None for a set too small to split or edgeless.
    The eigenpairs are solved once per member set and split factor and kept
    read-only on ``op`` for repeats to share; the subgraph is rebuilt."""
    # k-means on a smaller community's basis would have fewer columns than parts
    if members.size < max(MIN_SPLIT_SIZE, split_factor):
        return None
    sub = op.graph.subgraph(members)
    if sub.total_weight <= 0:
        return None
    sub_op = DiffusionOperator(sub, op.gamma)
    key = (members.tobytes(), split_factor)
    if key in op._split_bases:
        return EigenBasis(sub_op, *op._split_bases[key])
    basis = smallest_eigenpairs(sub_op, min(5 * split_factor, members.size))
    basis.eigenvalues.flags.writeable = basis.eigenvectors.flags.writeable = False
    op._split_bases[key] = (basis.eigenvalues, basis.eigenvectors)
    return basis


def recursive_partition(op: DiffusionOperator, split_factor: int, *,
                        seed: int = 0) -> MboResult:
    """Recursively split communities of ``op.graph`` while full-graph
    modularity at ``op.gamma`` increases.

    Starts from a single community.  Each community of at least
    ``max(MIN_SPLIT_SIZE, split_factor)`` nodes is split by an MBO run on its
    induced subgraph into at most ``split_factor`` parts; the split is kept
    only if modularity of the whole graph, with the original degrees and
    total weight, increases by more than GAIN_TOL.  Accepted parts are
    revisited until no community admits a profitable split.  A kept split
    leaves the first part the parent's label and numbers the others next,
    so the labels stay contiguous.  Returns an :class:`MboResult` with
    ``iterations`` and ``converged`` taken over every split's MBO run;
    ``dt_used`` is None and the traces are empty.

    Each split starts from the basis of :func:`_split_basis`, cached on
    ``op``: repeats on one operator solve each member set once.  ``seed``
    drives only the k-means initialization of each split.
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
        basis = _split_basis(op, members, split_factor)
        if basis is None:
            continue
        start = kmeans_init(basis, split_factor, seed=seed + subproblem)
        subproblem += 1
        result = mbo_run(basis, split_factor, start)
        iterations += result.iterations
        converged = converged and result.converged

        parts = np.unique(result.labels)
        candidate = labels.copy()
        for label, part in enumerate(parts[1:], start=next_label):
            candidate[members[result.labels == part]] = label  # part 0 keeps the parent's
        candidate_q = modularity(graph, candidate, gamma)
        if candidate_q > current_q + GAIN_TOL:
            labels, current_q = candidate, candidate_q
            next_label += parts.size - 1
            pending += [members[result.labels == part] for part in parts]

    empty = np.empty(0)
    return MboResult(labels=labels, iterations=iterations, dt_used=None,
                     energy_trace=empty, modularity_trace=empty, modularity=current_q,
                     converged=converged, nhat=next_label)
