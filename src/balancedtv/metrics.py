"""Agreement metrics between predicted and reference partitions."""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["purity", "classification_rate", "consistency"]

EXHAUSTIVE_LIMIT = 6
ASSIGNMENT_LIMIT = 12
CONSISTENCY_TOL = 0.02  # a run counts as consistent within this share of the best


def _contingency(predicted, truth):
    predicted = np.asarray(predicted, dtype=np.int64).ravel()
    truth = np.asarray(truth, dtype=np.int64).ravel()
    if predicted.size != truth.size:
        raise ValueError(
            f"length mismatch: {predicted.size} predictions vs {truth.size} truths"
        )
    if predicted.size == 0:
        raise ValueError("empty label vectors")
    _, pred_ids = np.unique(predicted, return_inverse=True)
    _, truth_ids = np.unique(truth, return_inverse=True)
    n_pred = pred_ids.max() + 1
    n_truth = truth_ids.max() + 1
    counts = np.zeros((n_pred, n_truth), dtype=np.int64)
    np.add.at(counts, (pred_ids, truth_ids), 1)
    return counts


def purity(predicted, truth) -> float:
    """Fraction of nodes in their predicted cluster's majority truth class."""
    counts = _contingency(predicted, truth)
    return float(counts.max(axis=1).sum()) / float(counts.sum())


def classification_rate(predicted, truth) -> float:
    """Best accuracy over injective relabelings of the predicted clusters.

    Exhaustive permutation search up to 6 labels, optimal bipartite matching
    up to 12, purity beyond that (the many-small-communities regime, where an
    injective relabeling stops being meaningful).
    """
    counts = _contingency(predicted, truth)
    n = counts.sum()
    side = max(counts.shape)
    if side <= EXHAUSTIVE_LIMIT:
        square = np.zeros((side, side), dtype=np.int64)
        square[: counts.shape[0], : counts.shape[1]] = counts
        best = max(
            sum(square[i, perm[i]] for i in range(side))
            for perm in itertools.permutations(range(side))
        )
        return float(best) / float(n)
    if side <= ASSIGNMENT_LIMIT:
        # imported here: scipy.optimize is slow to load and rarely needed
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(counts, maximize=True)
        return float(counts[rows, cols].sum()) / float(n)
    return purity(predicted, truth)


def consistency(values) -> float:
    """Fraction of runs whose value reaches the best run's less
    CONSISTENCY_TOL times its magnitude, over one value per run."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("consistency needs at least one run")
    if not np.all(np.isfinite(values)):
        raise ValueError("consistency values must be finite")
    best = values.max()
    return float(np.mean(values >= best - CONSISTENCY_TOL * abs(best)))
