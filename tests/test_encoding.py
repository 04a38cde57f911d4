import numpy as np
import pytest

from ppmbench.encoding import (
    NotFittedError,
    Normalizer,
    PrefixEncoder,
    encode_continuous_windows,
    frequency_encode,
    ngram_hash_encode,
    ngram_universe_size,
    onehot,
    time_features,
)
from ppmbench.eventlog import (
    EOC,
    MISSING,
    Event,
    EventLog,
    Trace,
    UnknownLabelError,
    Vocabulary,
    augment_eoc,
    parse_timestamp,
)
from ppmbench.splitting import make_prefix_samples

from conftest import make_linear_log


def events_at(acts, times, case="c"):
    return tuple(
        Event(case_id=case, activity=a, timestamp_ms=parse_timestamp(t))
        for a, t in zip(acts, times)
    )


class TestOnehot:
    def test_index_2_of_4(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        assert onehot("c", vocab).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_singleton(self):
        assert onehot("a", Vocabulary(["a"])).tolist() == [1.0]

    def test_missing_marker_reserved_index(self):
        vocab = Vocabulary([MISSING, "x", "y"])
        assert onehot(MISSING, vocab).tolist() == [1.0, 0.0, 0.0]

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError) as err:
            onehot("nope", Vocabulary(["a"]))
        assert "nope" in str(err.value)

    def test_sums_to_one_and_round_trips(self):
        vocab = Vocabulary(["a", "b", "c"])
        for label in vocab:
            vec = onehot(label, vocab)
            assert vec.sum() == 1.0
            assert vocab.label(int(np.argmax(vec))) == label


class TestFrequencyEncode:
    def test_figure_trace_first_five(self):
        # trace ABBBCDEACB over six labels, first five events
        vocab = Vocabulary(["A", "B", "C", "D", "E", EOC])
        vec = frequency_encode(["A", "B", "B", "B", "C"], vocab)
        assert vec.tolist() == [1.0, 3.0, 1.0, 0.0, 0.0, 0.0]

    def test_empty_prefix(self):
        assert frequency_encode([], Vocabulary(["A", "B"])).tolist() == [0.0, 0.0]

    def test_one_of_each(self):
        vocab = Vocabulary(["A", "B", "C"])
        assert frequency_encode(["C", "A", "B"], vocab).tolist() == [1.0, 1.0, 1.0]

    def test_sum_is_prefix_length(self):
        vocab = Vocabulary(["A", "B"])
        rng = np.random.default_rng(0)
        for _ in range(20):
            prefix = [vocab.label(int(rng.integers(2))) for _ in range(int(rng.integers(0, 9)))]
            assert frequency_encode(prefix, vocab).sum() == len(prefix)


class TestTimeFeatures:
    def test_two_events_one_day_apart_monday(self):
        # 2018-01-01 was a Monday
        evs = events_at(["A", "B"], ["2018-01-01 00:00:00", "2018-01-02 00:00:00"])
        feats = time_features(evs)
        assert feats[0].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert feats[1].tolist() == [86400.0, 86400.0, 0.0, 1.0]

    def test_single_event_wednesday_noon(self):
        evs = events_at(["A"], ["2018-01-03 12:00:00"])
        assert time_features(evs)[0].tolist() == [0.0, 0.0, 43200.0, 2.0]

    def test_equal_timestamps(self):
        evs = events_at(["A", "B"], ["2018-01-01 08:00:00", "2018-01-01 08:00:00"])
        feats = time_features(evs)
        assert feats[0, 0] == 0.0 and feats[1, 0] == 0.0

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            time_features(())


class TestNormalize:
    def test_minmax(self):
        norm = Normalizer("minmax").fit([0.0, 10.0])
        assert norm.transform([0.0, 5.0, 10.0]).tolist() == [0.0, 0.5, 1.0]

    def test_zscore_constant_is_zero(self):
        norm = Normalizer("zscore").fit([4.0, 4.0, 4.0])
        assert norm.transform([4.0, 9.0]).tolist() == [0.0, 0.0]

    def test_log_of_zero(self):
        norm = Normalizer("log").fit([0.0, np.e - 1.0])
        assert norm.transform([0.0])[0] == 0.0

    def test_unfitted_errors(self):
        with pytest.raises(NotFittedError):
            Normalizer("minmax").transform([1.0])

    def test_outside_range_not_clipped(self):
        norm = Normalizer("minmax").fit([0.0, 10.0])
        assert norm.transform([20.0])[0] == 2.0
        assert norm.transform([-10.0])[0] == -1.0

    def test_minmax_maps_train_extremes_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            data = rng.uniform(-50, 50, size=10)
            norm = Normalizer("minmax").fit(data)
            out = norm.transform([data.min(), data.max()])
            assert out[0] == 0.0 and out[1] == 1.0

    def test_inverse_round_trip(self):
        for method in ("minmax", "log", "zscore"):
            norm = Normalizer(method).fit([1.0, 5.0, 100.0])
            values = np.array([1.0, 5.0, 42.0, 100.0])
            assert np.allclose(norm.inverse(norm.transform(values)), values)

    def test_constant_minmax_inverse_returns_constant(self):
        norm = Normalizer("minmax").fit([86400.0, 86400.0])
        assert norm.transform([86400.0]).tolist() == [0.0]
        assert norm.inverse([0.7])[0] == 86400.0


class TestPaddedEncoding:
    def build_encoder(self, **kwargs):
        log = augment_eoc(make_linear_log(4))
        samples = make_prefix_samples(log)
        encoder = PrefixEncoder(log.activity_vocab, **kwargs)
        encoder.fit(samples)
        return log, samples, encoder

    def test_padding_rows_and_mask(self):
        log, samples, encoder = self.build_encoder(max_len=5)
        prefix = next(s for s in samples if s.k == 3).prefix
        mat = encoder.encode(prefix)
        assert mat.values.shape == (5, encoder.num_features)
        assert mat.mask.tolist() == [False, False, True, True, True]
        assert np.all(mat.values[:2] == 0.0)

    def test_window_keeps_most_recent(self):
        log, samples, encoder = self.build_encoder(window=2, include_time=False)
        prefix = next(s for s in samples if s.k == 3).prefix  # A, B, C
        mat = encoder.encode(prefix)
        group = mat.layout.group("activity")
        vocab = log.activity_vocab
        real = mat.values[mat.mask]
        assert real.shape[0] == 2
        assert int(np.argmax(real[0][group.start : group.start + group.size])) == vocab.index("B")
        assert int(np.argmax(real[1][group.start : group.start + group.size])) == vocab.index("C")

    def test_truncation_flag(self):
        log = augment_eoc(make_linear_log(2, acts=("A", "B", "C", "D", "E", "F")))
        samples = make_prefix_samples(log)
        encoder = PrefixEncoder(log.activity_vocab, max_len=4)
        encoder.fit(samples)
        prefix = next(s for s in samples if s.k == 6).prefix
        mat = encoder.encode(prefix)
        assert mat.layout.truncated
        assert mat.mask.sum() == 4

    def test_mask_count_property(self):
        log, samples, encoder = self.build_encoder()
        for sample in samples:
            mat = encoder.encode(sample.prefix)
            assert mat.mask.sum() == min(len(sample.prefix), encoder.max_len)

    def test_onehot_rows_sum_to_one(self):
        log, samples, encoder = self.build_encoder(include_time=False)
        mat = encoder.encode(samples[-1].prefix)
        group = mat.layout.group("activity")
        block = mat.values[:, group.start : group.start + group.size]
        assert np.all(block.sum(axis=1)[mat.mask] == 1.0)
        assert np.all(block.sum(axis=1)[~mat.mask] == 0.0)

    def test_unfitted_encoder_rejected(self):
        encoder = PrefixEncoder(Vocabulary(["A"]))
        with pytest.raises(NotFittedError):
            encoder.encode(events_at(["A"], ["2020-01-01 00:00:00"]))


class TestContinuousWindows:
    def test_worked_example(self):
        # traces [A,B,C] and [C,D]; EOC-augmented stream A B C eoc C D eoc
        t1 = events_at(["A", "B", "C"], ["2020-01-01 00:00:00", "2020-01-01 01:00:00", "2020-01-01 02:00:00"], "c1")
        t2 = events_at(["C", "D"], ["2020-01-02 00:00:00", "2020-01-02 01:00:00"], "c2")
        log = EventLog(
            traces=(Trace("c1", t1), Trace("c2", t2)),
            activity_vocab=Vocabulary(["A", "B", "C", "D"]),
        )
        aug = augment_eoc(log)
        # shifted ids with 0 as the padding token: A=1 B=2 C=3 D=4 EOC=5
        pairs = encode_continuous_windows(aug, 3)
        inputs = [p[0].tolist() for p in pairs]
        targets = [p[1].tolist() for p in pairs]
        assert inputs == [[1, 2, 3], [5, 3, 4], [5, 0, 0]]
        assert targets == [[2, 3, 5], [3, 4, 5], [0, 0, 0]]

    def test_single_trace_single_activity(self):
        log = augment_eoc(make_linear_log(1, acts=("A",)))
        pairs = encode_continuous_windows(log, 2)
        assert len(pairs) == 1
        assert pairs[0][0].tolist() == [1, 2]  # A, EOC
        assert pairs[0][1].tolist() == [2, 0]

    def test_window_one(self):
        log = augment_eoc(make_linear_log(1, acts=("A", "B")))
        pairs = encode_continuous_windows(log, 1)
        stream = [p[0][0] for p in pairs]
        targets = [p[1][0] for p in pairs]
        assert stream == [1, 2, 3]  # A, B, EOC
        assert targets == [2, 3, 0]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            encode_continuous_windows(augment_eoc(make_linear_log(1)), 0)


class TestNgramHashing:
    def test_universe_size(self):
        assert ngram_universe_size(2, 2) == 6
        assert ngram_universe_size(3, 1) == 3
        assert ngram_universe_size(2, 3) == 14

    def test_empty_prefix_zero_vector(self):
        assert ngram_hash_encode([], 3, 8, seed=1).tolist() == [0.0] * 8

    def test_single_ngram_single_slot(self):
        vec = ngram_hash_encode(["A"], 2, 8, seed=42)
        nonzero = vec[vec != 0.0]
        assert nonzero.shape == (1,)
        assert abs(nonzero[0]) == 1.0

    def test_deterministic_under_seed(self):
        prefix = ["A", "B", "A", "C"]
        first = ngram_hash_encode(prefix, 3, 16, seed=7)
        for _ in range(10):
            assert np.array_equal(ngram_hash_encode(prefix, 3, 16, seed=7), first)

    def test_seed_changes_vector(self):
        prefix = ["A", "B", "C", "D", "E"]
        assert not np.array_equal(
            ngram_hash_encode(prefix, 2, 64, seed=0), ngram_hash_encode(prefix, 2, 64, seed=1)
        )

    def test_l2_bounded_by_ngram_count(self):
        rng = np.random.default_rng(9)
        labels = ["A", "B", "C"]
        for _ in range(20):
            prefix = [labels[int(rng.integers(3))] for _ in range(int(rng.integers(0, 10)))]
            k = int(rng.integers(1, 4))
            n_grams = sum(max(0, len(prefix) - l + 1) for l in range(1, k + 1))
            vec = ngram_hash_encode(prefix, k, 16, seed=3)
            assert np.linalg.norm(vec) <= n_grams + 1e-12
