import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balancedtv import classification_rate, consistency, purity


def exhaustive_rate_oracle(predicted, truth):
    """Best accuracy over injective relabelings, by brute force over the
    permutations of the padded contingency square."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    pred_ids = np.unique(predicted)
    truth_ids = np.unique(truth)
    side = max(pred_ids.size, truth_ids.size)
    counts = np.zeros((side, side), dtype=int)
    for p, t in zip(predicted, truth):
        counts[np.searchsorted(pred_ids, p), np.searchsorted(truth_ids, t)] += 1
    best = max(
        sum(counts[i, perm[i]] for i in range(side))
        for perm in itertools.permutations(range(side))
    )
    return best / len(predicted)


label_vectors = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )
)


class TestPurity:
    def test_identical_labels(self):
        assert purity([0, 1, 1, 0], [0, 1, 1, 0]) == 1.0

    def test_relabeling_invariance(self):
        assert purity([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_half_mixed(self):
        assert purity([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            purity([0, 1], [0, 1, 2])

    @settings(deadline=None, max_examples=80)
    @given(label_vectors)
    def test_predicted_relabeling_invariance(self, pair):
        predicted, truth = pair
        remap = {0: 2, 1: 0, 2: 1}
        relabeled = [remap[p] for p in predicted]
        assert purity(predicted, truth) == purity(relabeled, truth)


class TestClassificationRate:
    def test_permuted_labels_score_one(self):
        assert classification_rate([2, 0, 0, 1], [0, 1, 1, 2]) == 1.0

    def test_single_flip(self):
        predicted = [0, 0, 0, 0, 0, 1, 1, 1, 1, 0]
        truth = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        assert classification_rate(predicted, truth) == pytest.approx(0.9)

    def test_random_binary_near_half(self):
        rng = np.random.default_rng(0)
        n = 2000
        truth = np.repeat([0, 1], n // 2)
        rates = [
            classification_rate(rng.integers(0, 2, size=n), truth)
            for _ in range(20)
        ]
        assert np.mean(rates) == pytest.approx(0.5, abs=0.05)

    def test_purity_fallback_above_twelve_labels(self):
        n_labels = 13
        predicted = np.arange(n_labels).repeat(2)
        truth = predicted.copy()
        assert classification_rate(predicted, truth) == purity(predicted, truth) == 1.0

    def test_hungarian_midrange(self):
        # 8 labels forces the assignment branch
        predicted = np.arange(8).repeat(3)
        shuffled = (predicted + 3) % 8
        assert classification_rate(shuffled, predicted) == 1.0

    @settings(deadline=None, max_examples=150)
    @given(label_vectors)
    def test_matches_exhaustive_oracle(self, pair):
        predicted, truth = pair
        assert classification_rate(predicted, truth) == pytest.approx(
            exhaustive_rate_oracle(predicted, truth)
        )

    @settings(deadline=None, max_examples=80)
    @given(label_vectors)
    def test_bounds_and_purity_agreement(self, pair):
        predicted, truth = pair
        rate = classification_rate(predicted, truth)
        assert 0.0 < rate <= 1.0
        # when the majority map is injective, best-assignment accuracy
        # coincides with purity
        pred_ids = np.unique(predicted)
        majority = []
        for p in pred_ids:
            rows = [t for q, t in zip(predicted, truth) if q == p]
            values, counts = np.unique(rows, return_counts=True)
            majority.append(values[np.argmax(counts)])
        if len(set(majority)) == len(majority):
            assert rate == pytest.approx(purity(predicted, truth))


class TestConsistency:
    @pytest.mark.parametrize("value", [0.8, -1.0])
    def test_all_equal(self, value):
        # a negative best used to set its bound above itself
        assert consistency(np.array([value, value, value])) == 1.0

    def test_only_best_qualifies(self):
        assert consistency(np.array([1.0, 0.97, 0.5])) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("values", [[0.99, 1.0, 0.985, 0.975],
                                        [-1.01, -1.0, -1.015, -1.025]])
    def test_within_two_percent_of_best_qualifies(self, values):
        assert consistency(values) == 0.75

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one run"):
            consistency(np.array([]))
        with pytest.raises(ValueError, match="finite"):
            consistency(np.array([1.0, np.nan]))
