import functools
import hashlib
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest

from ppmbench.encoding import (
    NotFittedError,
    Normalizer,
    PrefixEncoder,
    ngram_hash_codes,
    ngram_hash_encode,
    ngram_universe_size,
    onehot,
    time_features,
)
from ppmbench.eventlog import (
    MISSING,
    Event,
    EventLog,
    Trace,
    UnknownLabelError,
    Vocabulary,
    augment_eoc,
    parse_csv,
    parse_timestamp,
)
from ppmbench.models import REPLAY_CHUNK, AutoencoderPredictor, MLPPredictor, TrainConfig, build_predictor
from ppmbench.splitting import FlatPrefixes, PrefixSample, SampleSet, make_prefix_samples, temporal_split

from conftest import (
    TABLE1_CSV, flat_labels, generator_log, last_labels, make_linear_log, make_random_log, prefix_activities,
    ref_batch_inputs, start_inputs,
)


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
            rows, ids = encoder.encode_flat(FlatPrefixes.of([trace.events], [0] * len(ks), ks))
            values, mask = rows[ids], ids != 0
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
            X, M = start_inputs(mlp, [PrefixSample(trace, k) for k in ks])
            for j, k in enumerate(ks):
                ref_values, ref_mask, _ = reference_encode(mlp.encoder, trace.events[:k])
                assert same_bits(X[j], ref_values.astype(np.float32)) and same_bits(M[j], ref_mask)


# ---------------------------------------------------------------------------
# Reference: the per-trace fit that the flat pass replaced. ``fit`` reads
# each trace's time features on its longest sampled prefix; the encode is
# ``conftest.ref_batch_inputs``.
# ---------------------------------------------------------------------------

def ref_fit(encoder, samples):
    longest = {id(s.trace): s for s in sorted(samples, key=lambda s: s.k)}
    if encoder.max_len is None:
        k = max(s.k for s in longest.values())
        encoder.max_len = k if encoder.window is None else min(k, encoder.window)
    if encoder.include_time:
        feats = np.concatenate([time_features(s.prefix) for s in longest.values()])
        encoder.delta_norm = Normalizer("log").fit(feats[:, 0])
        encoder.elapsed_norm = Normalizer("log").fit(feats[:, 1])
    encoder.fitted = True
    return encoder


@functools.cache
def mixed_samples(seed: int):
    """Training samples and a shuffled mix of training and test samples of
    ``generator_log(seed, 120)``, about one event in four stripped of its
    attributes (an absent attribute encodes as missing); the mix holds whole
    traces too, whose last event is the end-of-case one."""
    log, _ = generator_log(seed, 120)
    rng = np.random.default_rng(seed)
    traces = tuple(
        Trace(t.case_id, tuple(replace(ev, attributes={}) if rng.random() < 0.25 else ev for ev in t.events))
        for t in log.traces
    )
    log = EventLog(traces=traces, activity_vocab=log.activity_vocab, attribute_vocabs=log.attribute_vocabs)
    split = temporal_split(log)
    train = make_prefix_samples(split.train)
    mix = train[::3] + make_prefix_samples(split.test) + [PrefixSample(t, len(t)) for t in split.test.traces]
    return log, train, [mix[i] for i in rng.permutation(len(mix))]


class TestFlatEncodeMatchesPerTrace:
    """The encoder fits and encodes a sample set in one flat pass, to the
    state and the bits (dtype included) of the per-trace code it replaced."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("gru", {}),
            ("gru", {"embedding_dim": 4}),
            ("gru", {"attributes": ("Resource",)}),
            ("gru", {"include_time": False}),
            ("gru", {"window": 3}),
            ("gru", {"max_len": 4}),
            ("gru", {"embedding_dim": 4, "attributes": ("Resource",), "include_time": False, "window": 3}),
            ("mlp", {"input_mode": "single_event", "attributes": ("Resource",)}),
        ],
        ids=["onehot", "index", "attributes", "untimed", "window", "max-len", "index-untimed-window",
             "single-event-mlp"],
    )
    def test_state_and_inputs_equal_the_per_trace_encode(self, seed, arch, overrides):
        log, train, mix = mixed_samples(seed)
        model = build_predictor(arch, TrainConfig(**overrides), log.activity_vocab, log.attribute_vocabs)
        expected = ref_fit(model._make_encoder(), train[::-1]).state()
        model._prepare(train)
        assert model.encoder.state() == expected
        assert len({(s.trace.case_id, s.k) for s in mix}) == len(mix)
        for samples in (train, mix, mix[:1]):
            X, M = start_inputs(model, samples)
            ref_X, ref_M = ref_batch_inputs(model, samples)
            assert same_bits(X, ref_X) and same_bits(M, ref_M)

    def test_flat_columns_hold_each_trace_once(self):
        log, _, mix = mixed_samples(1)
        flat = SampleSet(mix).flat
        traces = list({id(s.trace): s.trace for s in mix}.values())  # in order of first appearance
        spans = [(t, i) for t in traces for i in range(len(t.events))]  # each trace whole
        assert flat.events == [t.events[i] for t, i in spans]
        assert flat.ms.tolist() == [t.events[i].timestamp_ms for t, i in spans]
        assert flat.prev_ms.tolist() == [t.events[max(i - 1, 0)].timestamp_ms for t, i in spans]
        assert flat.first_ms.tolist() == [t.start_ms for t, _ in spans]
        assert flat.ks.tolist() == [s.k for s in mix]
        assert [flat.events[e - 1] for e in flat.ends] == [s.trace.events[s.k - 1] for s in mix]

    def test_no_samples_encode_to_no_rows(self):
        log, train, _ = mixed_samples(1)
        encoder = PrefixEncoder(log.activity_vocab, attribute_vocabs=log.attribute_vocabs).fit(train)
        for dtype in (np.float64, np.float32):
            rows, ids = encoder.encode_flat(SampleSet([]).flat, dtype)
            assert rows.shape == (1, encoder.num_features) and rows.dtype == dtype and not rows.any()
            assert ids.shape == (0, encoder.max_len) and ids.dtype == np.int32
        with pytest.raises(ValueError, match="zero samples"):
            PrefixEncoder(log.activity_vocab).fit([])

    def test_a_prefix_outside_its_trace_is_rejected(self):
        log, train, _ = mixed_samples(1)
        encoder = PrefixEncoder(log.activity_vocab).fit(train)
        trace = train[0].trace
        for k, message in ((0, "cannot encode an empty prefix"), (len(trace) + 1, f"outside 0..{len(trace)}")):
            for samples in ([PrefixSample(trace, k)], [PrefixSample(trace, 1), PrefixSample(trace, k)]):
                with pytest.raises(ValueError, match=message):
                    encoder.encode_flat(SampleSet(samples).flat)
                with pytest.raises(ValueError, match=message):
                    PrefixEncoder(log.activity_vocab).fit(samples)
        with pytest.raises(ValueError, match="cannot encode an empty prefix"):
            encoder.encode(())
        with pytest.raises(NotFittedError):
            PrefixEncoder(log.activity_vocab).encode_flat(SampleSet(train).flat)


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
    """One pass over a layout's labels with cached gram hashes gives, for
    every prefix, the bits of the per-prefix loop, in any order of ``ks``;
    ``dim=1`` puts every gram in one slot."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("dim", [1, 7, 64])
    @pytest.mark.parametrize("max_n", [1, 2, 3, 4])
    def test_autoencoder_inputs(self, max_n, dim, seed):
        log = reference_log("generator-3")
        config = TrainConfig(ngram_k=max_n, ngram_dim=dim, hash_seed=seed, ae_hidden=())
        predictor = AutoencoderPredictor(log.activity_vocab, config=config)
        rng, vocab = np.random.default_rng(dim), log.activity_vocab
        for trace in log.traces[:40]:
            acts = [ev.activity for ev in trace.events]
            reference = [reference_ngram_hash_encode(acts[:k], max_n, dim, seed) for k in range(len(acts) + 1)]
            assert same_bits(ngram_hash_encode(acts, max_n, dim, seed), reference[-1])
            ascending = list(range(1, len(acts) + 1))
            for ks in (ascending, list(rng.permutation(ascending)), list(rng.choice(ascending, 2 * len(acts)))):
                expected = np.array([reference[k] for k in ks])
                flat = FlatPrefixes.of([trace.events], [0] * len(ks), ks)
                rows = ngram_hash_codes(flat.codes(vocab), vocab.labels, flat.ends, flat.ks, max_n, dim, seed)
                assert same_bits(rows, expected)
                X, M = start_inputs(predictor, [PrefixSample(trace, k) for k in ks])
                assert M is None and same_bits(X, expected.astype(np.float32))

    def test_prefix_lengths_must_lie_in_the_sequence(self):
        assert ngram_hash_codes([0, 1], ["A", "B"], [], [], 2, 8).shape == (0, 8)
        assert ngram_hash_codes([0, 1], ["A", "B"], [0, 0], [0, 0], 2, 8).tolist() == [[0.0] * 8] * 2
        for ks in ([-1], [3], [2, 3]):
            with pytest.raises(ValueError, match="prefix length"):
                FlatPrefixes.of([evs_of("AB")], [0] * len(ks), ks)



def evs_of(labels, case="c"):
    """Events of ``labels``, an hour apart."""
    return tuple(Event(case, a, 1_600_000_000_000 + 3_600_000 * i) for i, a in enumerate(labels))


class TestFlatLayout:
    """One layout serves every reader: prefixes of no events and traces of
    no events lay out as zero rows, and a sample set shuffled, repeated and
    cut into several ``REPLAY_CHUNK`` ranges hashes and encodes to the bits
    of ``reference_ngram_hash_encode`` and ``encode``, prefix by prefix."""

    def test_empty_prefixes_and_traces(self):
        traces = [(), evs_of("ABCA"), (), evs_of("BB"), evs_of("C"), evs_of("CAB"), evs_of("AC")]
        trace_of = [1, 0, 3, 1, 2, 5, 1, 4, 3, 1, 5]
        ks = [2, 0, 0, 4, 0, 1, 0, 1, 2, 3, 0]
        flat = FlatPrefixes.of(traces, trace_of, ks)
        # every trace is laid out whole: trace 5 beyond its longest prefix, trace 6 with no prefix at all
        vocab = Vocabulary(["C", "B", "A"])
        assert flat_labels(flat) == list("ABCA") + list("BB") + ["C"] + list("CAB") + list("AC")
        # only the events inside a prefix are coded: trace 5's tail and trace 6 read -1
        assert flat.inside.tolist() == [True] * 8 + [False] * 4
        assert flat.codes(vocab).tolist() == [2, 1, 0, 2, 1, 1, 0, 0, -1, -1, -1, -1]
        tail = FlatPrefixes.of([evs_of("CAB")], [0], [1])  # labels outside the vocabulary after every prefix
        assert tail.codes(Vocabulary(["C"])).tolist() == [0, -1, -1]
        assert flat.starts.tolist() == [0, 0, 4, 4, 6, 7, 10, 12]
        assert flat.trace_of.tolist() == trace_of and flat.ks.tolist() == ks
        assert flat.ends.tolist() == [flat.starts[t] + k for t, k in zip(trace_of, ks)]
        assert [flat.events[e] for e, t, k in zip(flat.ends, trace_of, ks) if k < len(traces[t])] == [
            traces[t][k] for t, k in zip(trace_of, ks) if k < len(traces[t])
        ]  # each prefix's next event lies at its end
        for m in (0, 1, 2, 5):
            assert flat.last_codes(vocab, m).shape == (len(ks), m)
            assert last_labels(flat, vocab, m) == [
                tuple(ev.activity for ev in traces[t][:k][max(0, k - m) :]) for t, k in zip(trace_of, ks)
            ]
        for max_n, dim, seed in ((1, 7, 0), (3, 64, 5), (4, 1, 2**64 - 1)):
            expected = [
                reference_ngram_hash_encode([ev.activity for ev in traces[t][:k]], max_n, dim, seed)
                for t, k in zip(trace_of, ks)
            ]
            rows = ngram_hash_codes(flat.codes(vocab), vocab.labels, flat.ends, flat.ks, max_n, dim, seed)
            assert same_bits(rows, np.array(expected))
        empty = FlatPrefixes.of([(), ()], [1, 0, 1], [0, 0, 0])
        assert empty.events == [] and empty.starts.tolist() == [0, 0, 0] and empty.ends.tolist() == [0, 0, 0]
        empty_rows = ngram_hash_codes(empty.codes(vocab), vocab.labels, empty.ends, empty.ks, 2, 8)
        assert same_bits(empty_rows, np.zeros((3, 8)))

    @pytest.mark.parametrize("pick", ["every-third", "k-at-most-2"])
    def test_fit_reads_the_time_statistics_of_the_events_inside_the_prefixes(self, pick):
        log, train, _ = mixed_samples(1)
        samples = train[::3] if pick == "every-third" else [s for s in train if s.k <= 2]
        encoder = PrefixEncoder(log.activity_vocab).fit(samples)
        longest = {}
        for s in samples:
            longest[id(s.trace)] = max(s.k, longest.get(id(s.trace), 0))
        traces = {id(s.trace): s.trace.events for s in samples}

        def statistics(cut):  # log-min-max of the deltas and elapsed times of each trace's first cut(id) events
            rows = [time_features(events[: cut(key)])[:, :2] for key, events in traces.items()]
            return [Normalizer("log").fit(column) for column in np.concatenate(rows).T]

        inside, whole = statistics(longest.__getitem__), statistics(lambda key: len(traces[key]))
        for fitted, expected in zip((encoder.delta_norm, encoder.elapsed_norm), inside):
            assert fitted.state() == expected.state()
        assert [n.state() for n in whole] != [n.state() for n in inside]  # the tails would move them

    @pytest.mark.parametrize("seed", [1, 2])
    def test_shuffled_repeated_ranges_hash_and_encode_as_the_references(self, seed):
        log, train, mix = mixed_samples(seed)
        rng = np.random.default_rng(seed)
        samples = [mix[i] for i in rng.choice(len(mix), size=3 * REPLAY_CHUNK + 5)]  # repeats too
        assert len({id(s) for s in samples}) < len(samples)
        config = TrainConfig(ngram_k=3, ngram_dim=16, hash_seed=seed, ae_hidden=())
        autoencoder = AutoencoderPredictor(log.activity_vocab, config=config)
        X, M = start_inputs(autoencoder, samples)
        expected = [reference_ngram_hash_encode(list(prefix_activities(s)), 3, 16, seed) for s in samples]
        assert M is None and same_bits(X, np.array(expected, dtype=np.float32))
        gru = build_predictor("gru", TrainConfig(attributes=("Resource",)), log.activity_vocab, log.attribute_vocabs)
        gru._prepare(train)
        X, M = start_inputs(gru, samples)
        for j in rng.choice(len(samples), size=40):
            mat = gru.encoder.encode(samples[j].prefix)
            assert same_bits(X[j], mat.values.astype(np.float32)) and same_bits(M[j], mat.mask)
