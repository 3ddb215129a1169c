"""Agreement metrics between predicted and reference partitions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["purity", "classification_rate", "RunBatch", "consistency"]

EXHAUSTIVE_LIMIT = 6
ASSIGNMENT_LIMIT = 12


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


@dataclass(frozen=True)
class RunBatch:
    """Per-seed (modularity, classification) pairs from repeated runs."""

    modularity: np.ndarray
    classification: np.ndarray

    def __post_init__(self):
        mod = np.asarray(self.modularity, dtype=np.float64).ravel()
        cls = np.asarray(self.classification, dtype=np.float64).ravel()
        if mod.size == 0:
            raise ValueError("batch must contain at least one run")
        if cls.size not in (0, mod.size):
            raise ValueError("classification values must match run count (or be absent)")
        if not np.all(np.isfinite(mod)) or not np.all(np.isfinite(cls)):
            raise ValueError("batch values must be finite")
        object.__setattr__(self, "modularity", mod)
        object.__setattr__(self, "classification", cls)


def consistency(batch: RunBatch, field: str = "modularity", tol: float = 0.02) -> float:
    """Fraction of runs whose value reaches (1 - tol) times the best run's."""
    if field not in ("modularity", "classification"):
        raise ValueError(f"unknown batch field {field!r}")
    values = getattr(batch, field)
    if values.size == 0:
        raise ValueError(f"batch has no {field} values")
    best = values.max()
    return float(np.mean(values >= (1.0 - tol) * best))
