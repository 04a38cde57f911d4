import functools
import hashlib
from datetime import datetime, timezone

import numpy as np
import pytest

from ppmbench.encoding import (
    NotFittedError,
    Normalizer,
    PrefixEncoder,
    ngram_hash_encode,
    ngram_hash_prefixes,
    ngram_universe_size,
    onehot,
    time_features,
)
from ppmbench.eventlog import (
    MISSING,
    Event,
    UnknownLabelError,
    Vocabulary,
    augment_eoc,
    parse_csv,
    parse_timestamp,
)
from ppmbench.models import AutoencoderPredictor, MLPPredictor, TrainConfig
from ppmbench.splitting import make_prefix_samples

from conftest import TABLE1_CSV, generator_log, make_linear_log, make_random_log


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

    # the integer day arithmetic must floor before 1970 and roll over at midnight
    @pytest.mark.parametrize(
        "stamps",
        [
            ["1900-01-01 00:00:00.001", "1969-12-31 00:00:00", "1969-12-31 23:59:59.999"],
            ["2020-09-13 12:26:40.123", "2020-09-13 12:26:40.999", "2020-09-13 12:26:41.001"],
            ["2018-01-01 00:00:00", "2018-01-02 00:00:00"],
            ["2018-01-01 23:59:59.999", "2018-01-03 23:59:59.999"],
            ["2018-01-07 23:59:59.999", "2018-01-08 00:00:00"],
        ],
        ids=["pre-1970", "sub-second", "midnight", "last-ms-of-day", "sunday-to-monday"],
    )
    def test_matches_datetime_formula(self, stamps):
        evs = events_at("A" * len(stamps), stamps)
        assert same_bits(time_features(evs), reference_time_features(evs))

    def test_day_boundaries(self):
        evs = events_at(
            "AAA", ["1969-12-31 23:59:59.999", "2018-01-07 23:59:59.999", "2018-01-08 00:00:00"]
        )
        feats = time_features(evs)
        assert feats[:, 2].tolist() == [86399.999, 86399.999, 0.0]
        assert feats[:, 3].tolist() == [2.0, 6.0, 0.0]  # Wednesday, Sunday, Monday


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


# ---------------------------------------------------------------------------
# Reference: the per-prefix encoder with one row and one column group at a
# time and datetime time features. Every prefix must encode to the same bits.
# ---------------------------------------------------------------------------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_time_features(events):
    out = np.zeros((len(events), 4), dtype=np.float64)
    start = events[0].timestamp_ms
    for i, ev in enumerate(events):
        dt = datetime.fromtimestamp(ev.timestamp_ms / 1000.0, tz=timezone.utc)
        midnight = dt.replace(hour=0, minute=0, second=0, microsecond=0)
        out[i, 0] = 0.0 if i == 0 else (ev.timestamp_ms - events[i - 1].timestamp_ms) / 1000.0
        out[i, 1] = (ev.timestamp_ms - start) / 1000.0
        out[i, 2] = (dt - midnight).total_seconds()
        out[i, 3] = float(dt.weekday())
    return out


def reference_fit(encoder, samples):
    """The state ``encoder.fit(samples)`` must reach, fitted prefix by prefix."""
    longest = 0
    deltas, elapsed = [], []
    for sample in samples:
        longest = max(longest, len(sample.prefix))
        if encoder.include_time:
            feats = reference_time_features(sample.prefix)
            deltas.extend(feats[:, 0].tolist())
            elapsed.extend(feats[:, 1].tolist())
    state = encoder.state()
    if state["max_len"] is None:
        state["max_len"] = longest if encoder.window is None else min(longest, encoder.window)
    if encoder.include_time:
        state["delta_norm"] = Normalizer("log").fit(deltas).state()
        state["elapsed_norm"] = Normalizer("log").fit(elapsed).state()
    return state


def reference_encode(encoder, events):
    """(values, mask, truncated) of one prefix."""
    rows = list(events)
    if encoder.window is not None and len(rows) > encoder.window:
        rows = rows[-encoder.window :]
    truncated = len(rows) > encoder.max_len
    if truncated:
        rows = rows[-encoder.max_len :]
    offset = len(events) - len(rows)
    layout = encoder.layout
    values = np.zeros((encoder.max_len, layout.num_features), dtype=np.float64)
    mask = np.zeros(encoder.max_len, dtype=bool)
    if encoder.include_time:
        feats = reference_time_features(events)  # the full prefix, then windowed
        delta = encoder.delta_norm.transform(feats[:, 0])
        elapsed = encoder.elapsed_norm.transform(feats[:, 1])
    pad = encoder.max_len - len(rows)
    for i, ev in enumerate(rows):
        r = pad + i
        mask[r] = True
        for group in layout.groups:
            if group.name == "activity":
                idx = encoder.activity_vocab.index(ev.activity)
                if group.kind == "onehot":
                    values[r, group.start + idx] = 1.0
                else:
                    values[r, group.start] = float(idx)
            elif group.kind == "onehot":
                name = group.name.removeprefix("attr:")
                vocab = encoder.attribute_vocabs[name]
                values[r, group.start + vocab.index(ev.attributes.get(name, MISSING))] = 1.0
            else:
                t = offset + i
                values[r, group.start + 0] = delta[t]
                values[r, group.start + 1] = elapsed[t]
                values[r, group.start + 2] = feats[t, 2] / 86400.0
                values[r, group.start + 3] = feats[t, 3] / 6.0
    return values, mask, truncated


REFERENCE_LOGS = ["table1", "linear", "random", "generator-1", "generator-2", "generator-3"]


@functools.cache
def reference_log(name: str):
    if name == "table1":
        return augment_eoc(parse_csv(TABLE1_CSV.encode("utf-8")))
    if name == "linear":
        return augment_eoc(make_linear_log(30))
    if name == "random":
        return augment_eoc(make_random_log(np.random.default_rng(3), 80))
    return generator_log(int(name.rsplit("-", 1)[1]), 400)[0]


class TestReferenceEquivalence:
    """Each encoder sees every attribute its log has (Resource in table1 and
    the generator logs)."""

    @pytest.mark.parametrize("log_name", REFERENCE_LOGS)
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"activity_mode": "index"},
            {"window": 3},
            {"max_len": 3},
            {"activity_mode": "index", "include_time": False, "window": 2, "max_len": 4},
        ],
        ids=["onehot", "index", "window", "max-len-truncation", "index-untimed-window"],
    )
    def test_every_prefix_encodes_as_the_reference(self, log_name, options):
        log = reference_log(log_name)
        samples = make_prefix_samples(log)
        encoder = PrefixEncoder(log.activity_vocab, attribute_vocabs=log.attribute_vocabs, **options)
        expected_state = reference_fit(encoder, samples)
        encoder.fit(samples[::-1])  # the fit may not depend on sample order
        assert encoder.state() == expected_state
        truncations = 0
        for trace in log.traces:
            ks = list(range(1, len(trace)))
            if not ks:
                continue
            values, mask = encoder.encode_prefixes(trace.events, ks)
            for j, k in enumerate(ks):
                ref_values, ref_mask, ref_truncated = reference_encode(encoder, trace.events[:k])
                assert same_bits(values[j], ref_values) and same_bits(mask[j], ref_mask)
                mat = encoder.encode(trace.events[:k])
                assert same_bits(mat.values, ref_values) and same_bits(mat.mask, ref_mask)
                assert mat.layout.truncated == ref_truncated
                truncations += ref_truncated
        if "max_len" in options and "window" not in options:
            assert truncations > 0

    @pytest.mark.parametrize("log_name", REFERENCE_LOGS)
    def test_single_event_mlp_inputs(self, log_name):
        log = reference_log(log_name)
        samples = make_prefix_samples(log)
        config = TrainConfig(input_mode="single_event", attributes=tuple(log.attribute_vocabs))
        mlp = MLPPredictor(log.activity_vocab, log.attribute_vocabs, config)
        expected_state = reference_fit(mlp._make_encoder(), samples)
        mlp._prepare(samples)
        assert mlp.encoder.state() == expected_state
        for trace in log.traces:
            ks = list(range(1, len(trace)))
            X, M = mlp._inputs(trace.events, ks)
            for j, k in enumerate(ks):
                ref_values, ref_mask, _ = reference_encode(mlp.encoder, trace.events[:k])
                assert same_bits(X[j], ref_values.astype(np.float32)) and same_bits(M[j], ref_mask)


def reference_ngram_hash_encode(activities, max_n, dim, seed):
    """The per-prefix hashing loop: every n-gram of the prefix, two blake2b
    calls each."""

    def hash64(data, person):
        key = seed.to_bytes(8, "little", signed=False)
        return int.from_bytes(hashlib.blake2b(data, digest_size=8, key=key, person=person).digest(), "little")

    vec = np.zeros(dim, dtype=np.float64)
    for length in range(1, max_n + 1):
        for start in range(0, len(activities) - length + 1):
            gram = "\x1f".join(activities[start : start + length]).encode("utf-8")
            vec[hash64(gram, b"slot") % dim] += 1.0 if hash64(gram, b"sign") % 2 == 0 else -1.0
    return vec


class TestNgramPrefixesMatchReference:
    """One pass per trace with cached gram hashes gives, for every prefix,
    the bits of the per-prefix loop, in any order of ``ks``; ``dim=1`` puts
    every gram in one slot."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("dim", [1, 7, 64])
    @pytest.mark.parametrize("max_n", [1, 2, 3, 4])
    def test_autoencoder_inputs(self, max_n, dim, seed):
        log = reference_log("generator-3")
        config = TrainConfig(ngram_k=max_n, ngram_dim=dim, hash_seed=seed, ae_hidden=())
        predictor = AutoencoderPredictor(log.activity_vocab, config=config)
        rng = np.random.default_rng(dim)
        for trace in log.traces[:40]:
            acts = [ev.activity for ev in trace.events]
            reference = [reference_ngram_hash_encode(acts[:k], max_n, dim, seed) for k in range(len(acts) + 1)]
            assert same_bits(ngram_hash_encode(acts, max_n, dim, seed), reference[-1])
            ascending = list(range(1, len(acts) + 1))
            for ks in (ascending, list(rng.permutation(ascending)), list(rng.choice(ascending, 2 * len(acts)))):
                expected = np.array([reference[k] for k in ks])
                assert same_bits(ngram_hash_prefixes(acts, ks, max_n, dim, seed), expected)
                X, M = predictor._inputs(trace.events, ks)
                assert M is None and same_bits(X, expected.astype(np.float32))

    def test_prefix_lengths_must_lie_in_the_sequence(self):
        assert ngram_hash_prefixes(["A", "B"], [], 2, 8).shape == (0, 8)
        assert ngram_hash_prefixes(["A", "B"], [0, 0], 2, 8).tolist() == [[0.0] * 8] * 2
        for ks in ([-1], [3], [2, 3]):
            with pytest.raises(ValueError, match="prefix length"):
                ngram_hash_prefixes(["A", "B"], ks, 2, 8)
