from functools import lru_cache

import numpy as np
import pytest

from ppmbench.eventlog import EOC, augment_eoc
from ppmbench.inference import DecodeConfig
from ppmbench.metrics import (
    MetricsReport,
    accuracy,
    brier,
    dl_distance,
    dl_similarity,
    evaluate_protocol,
    mae,
)
from ppmbench.models import MarkovPredictor, train
from ppmbench.splitting import temporal_split

from conftest import make_linear_log


def osa_reference(a, b):
    """Independent restricted-DL oracle: memoized recursion straight from the
    operation definitions (insert, delete, substitute, adjacent transpose)."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        best = min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (0 if a[i - 1] == b[j - 1] else 1),
        )
        if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, rec(i - 2, j - 2) + 1)
        return best

    return rec(len(a), len(b))


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_none_correct(self):
        assert accuracy(["a", "b"], ["b", "a"]) == 0.0

    def test_three_of_four(self):
        assert accuracy(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75

    def test_relabeling_invariance(self):
        preds = ["a", "b", "a", "c"]
        truths = ["a", "a", "a", "c"]
        relabel = {"a": "z", "b": "y", "c": "x"}
        assert accuracy(preds, truths) == accuracy(
            [relabel[p] for p in preds], [relabel[t] for t in truths]
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(["a"], ["a", "b"])

    def test_numpy_arrays(self):
        assert accuracy(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2])) == 0.75
        with pytest.raises(ValueError):
            accuracy(np.array([], dtype=int), np.array([], dtype=int))


class TestBrier:
    def test_perfect_predictions(self):
        vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert brier(vectors, [0, 1]) == 0.0

    def test_uniform_two_classes(self):
        assert brier([np.array([0.5, 0.5])], [0]) == pytest.approx(0.5, abs=1e-12)

    def test_hand_case(self):
        assert brier([np.array([0.7, 0.2, 0.1])], [0]) == pytest.approx(0.14, abs=1e-12)

    def test_bounds_on_random_distributions(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            probs = rng.dirichlet(np.ones(k))
            score = brier([probs], [int(rng.integers(k))])
            assert 0.0 <= score <= 2.0

    def test_zero_iff_exact_onehot(self):
        assert brier([np.array([0.0, 1.0, 0.0])], [1]) == 0.0
        assert brier([np.array([0.01, 0.99])], [1]) > 0.0

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            brier([np.array([0.9, 0.9])], [0])
        with pytest.raises(ValueError):
            brier([np.full(4, np.nan)], [0])


class TestDlDistance:
    def test_identical(self):
        assert dl_distance("abc", "abc") == 0
        assert dl_similarity(list("abc"), list("abc")) == 1.0

    def test_transposition_counts_once(self):
        assert dl_distance(["A", "B"], ["B", "A"]) == 1
        assert dl_similarity(["A", "B"], ["B", "A"]) == 0.5

    def test_empty_vs_four(self):
        assert dl_distance([], list("wxyz")) == 4
        assert dl_similarity([], list("wxyz")) == 0.0

    def test_both_empty(self):
        assert dl_similarity([], []) == 1.0

    def test_eoc_stripped_by_default(self):
        assert dl_similarity(["a", EOC], ["a", EOC]) == 1.0
        assert dl_similarity([EOC], [EOC]) == 1.0
        assert dl_similarity(["a", "b", EOC], ["a", "b"]) == 1.0

    def test_matches_reference_on_seeded_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a = [int(x) for x in rng.integers(0, 6, size=int(rng.integers(0, 9)))]
            b = [int(x) for x in rng.integers(0, 6, size=int(rng.integers(0, 9)))]
            assert dl_distance(a, b) == osa_reference(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            a = [int(x) for x in rng.integers(0, 5, size=int(rng.integers(0, 8)))]
            b = [int(x) for x in rng.integers(0, 5, size=int(rng.integers(0, 8)))]
            assert dl_distance(a, b) == dl_distance(b, a)

    def test_triangle_sanity_on_seeded_triples(self):
        # restricted DL provably violates the triangle inequality on crafted
        # triples (e.g. "ca" / "ac" / "abc"); this is the spec's sampled
        # sanity check, not a universal claim
        rng = np.random.default_rng(321)
        for _ in range(300):
            seqs = [
                [int(x) for x in rng.integers(0, 6, size=int(rng.integers(0, 7)))]
                for _ in range(3)
            ]
            a, b, c = seqs
            assert dl_distance(a, c) <= dl_distance(a, b) + dl_distance(b, c)

    def test_known_adversarial_triple_violates_triangle(self):
        assert dl_distance("ca", "abc") > dl_distance("ca", "ac") + dl_distance("ac", "abc")


class TestMae:
    def test_identical(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_one_day_offset(self):
        truths = [0.0, 86400.0]
        preds = [86400.0, 2 * 86400.0]
        assert mae(preds, truths) == 1.0

    def test_arithmetic(self):
        # values already in days
        assert mae([1.0, 1.0], [0.0, 2.0], unit="raw") == 1.0

    def test_seconds_to_days(self):
        assert mae([43200.0], [0.0]) == 0.5

    @pytest.mark.parametrize("unit", ["hours", "seconds", "Days", ""])
    def test_unknown_unit_rejected(self, unit):
        # only "days" and "raw" exist; another unit must not read as raw seconds
        with pytest.raises(ValueError, match="unknown unit"):
            mae([43200.0], [0.0], unit=unit)


class TestEvaluateProtocol:
    def test_markov_on_deterministic_log(self):
        log = augment_eoc(make_linear_log(60))
        split = temporal_split(log)
        predictor = MarkovPredictor(log.activity_vocab)
        train(predictor, split, seed=0)
        report = evaluate_protocol(
            predictor, split.test, DecodeConfig(strategy="argmax", max_len=10)
        )
        assert report.accuracy == 1.0
        assert report.brier == pytest.approx(0.0, abs=1e-12)
        assert report.dl_similarity == 1.0
        assert report.mae_next == 0.0
        assert report.mae_remaining == 0.0
        n = report.n_samples
        assert n["next_activity"] == n["suffix"] == n["remaining_time"]
        assert n["next_activity"] == sum(len(t) - 1 for t in split.test.traces)

    def test_task_subset(self):
        log = augment_eoc(make_linear_log(30))
        split = temporal_split(log)
        predictor = MarkovPredictor(log.activity_vocab)
        train(predictor, split, seed=0)
        report = evaluate_protocol(
            predictor, split.test, DecodeConfig(max_len=8), tasks=("next_activity",)
        )
        assert report.accuracy is not None
        assert report.dl_similarity is None and report.mae_remaining is None

    def test_unknown_task_rejected(self):
        log = augment_eoc(make_linear_log(10))
        split = temporal_split(log)
        predictor = MarkovPredictor(log.activity_vocab)
        train(predictor, split, seed=0)
        with pytest.raises(ValueError):
            evaluate_protocol(predictor, split.test, DecodeConfig(max_len=5), tasks=("outcome",))

    def test_report_rows(self):
        report = MetricsReport(accuracy=0.5, brier=0.3, n_samples={"next_activity": 7})
        rows = report.as_rows()
        assert ("next_activity", "accuracy", 0.5, 7) in rows
        assert all(len(r) == 4 for r in rows)


class TestProtocolEdgeCases:
    def test_empty_test_set_rejected(self):
        from ppmbench.eventlog import EventLog, Vocabulary

        log = augment_eoc(make_linear_log(10))
        split = temporal_split(log)
        predictor = MarkovPredictor(log.activity_vocab)
        train(predictor, split, seed=0)
        empty = EventLog(traces=(), activity_vocab=log.activity_vocab)
        with pytest.raises(ValueError):
            evaluate_protocol(predictor, empty, DecodeConfig(max_len=5))

    def test_mae_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])
