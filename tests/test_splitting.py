import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numpy as np

from ppmbench.eventlog import (
    EOC,
    EmptyLogError,
    Event,
    EventLog,
    Trace,
    Vocabulary,
    augment_eoc,
    parse_csv,
)
from ppmbench.splitting import (
    PARTS,
    FlatPrefixes,
    PrefixSample,
    SampleSet,
    make_prefix_samples,
    split_manifest,
    temporal_split,
    write_split_manifest,
)

from conftest import generator_log, last_labels, make_linear_log, make_random_log


class TestTemporalSplit:
    def test_exact_fractions_100(self):
        split = temporal_split(make_linear_log(100))
        sizes = (len(split.train.traces), len(split.validation.traces), len(split.test.traces))
        assert sizes == (64, 16, 20)

    def test_floor_rule_10(self):
        split = temporal_split(make_linear_log(10))
        sizes = (len(split.train.traces), len(split.validation.traces), len(split.test.traces))
        assert sizes == (6, 2, 2)

    def test_single_trace(self):
        split = temporal_split(make_linear_log(1))
        sizes = (len(split.train.traces), len(split.validation.traces), len(split.test.traces))
        assert sizes == (0, 0, 1)

    def test_empty_log(self):
        with pytest.raises(EmptyLogError):
            temporal_split(EventLog(traces=(), activity_vocab=Vocabulary([])))

    def test_invalid_fractions(self):
        log = make_linear_log(10)
        for fractions in ((0.0, 0.5), (0.5, 0.0), (0.8, 0.2), (0.9, 0.3)):
            with pytest.raises(ValueError):
                temporal_split(log, fractions)

    def test_nan_fractions_rejected(self):
        log = make_linear_log(10)
        for fractions in ((float("nan"), 0.1), (0.5, float("nan"))):
            with pytest.raises(ValueError, match="invalid split fractions"):
                temporal_split(log, fractions)

    def test_deterministic(self):
        log = make_linear_log(50)
        a = temporal_split(log)
        b = temporal_split(log)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_sorted_by_first_timestamp(self):
        rng = np.random.default_rng(5)
        log = make_random_log(rng, 30)
        split = temporal_split(log)
        starts = [t.start_ms for t in split.train.traces + split.validation.traces + split.test.traces]
        assert starts == sorted(starts)

    def test_partition_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            log = make_random_log(rng, n)
            split = temporal_split(log)
            ids = [t.case_id for part in (split.train, split.validation, split.test) for t in part.traces]
            assert len(ids) == n
            assert set(ids) == {t.case_id for t in log.traces}
            assert len(set(ids)) == n  # disjoint

    def test_parts_share_vocabularies(self):
        log = make_linear_log(10)
        split = temporal_split(log)
        assert split.test.activity_vocab is log.activity_vocab


class TestPrefixSamples:
    def test_worked_example_case2088(self, table1_csv):
        log = augment_eoc(parse_csv(table1_csv.encode()))
        samples = make_prefix_samples(log)
        sample = next(s for s in samples if s.case_id == "Case2088" and s.k == 3)
        assert last_labels(SampleSet([sample]).flat, log.activity_vocab, sample.k) == [
            ("Assign seriousness", "Take in charge ticket", "Create SW anomaly")
        ]
        assert sample.suffix_activities == ("Resolve ticket", "Closed", EOC)
        assert sample.next_activity == "Resolve ticket"

    def test_sample_is_a_view_of_its_trace(self, table1_csv):
        log = augment_eoc(parse_csv(table1_csv.encode()))
        for sample in make_prefix_samples(log):
            trace = next(t for t in log.traces if t.case_id == sample.case_id)
            assert sample.trace is trace
            assert sample.prefix == trace.events[: sample.k]

    def test_two_event_trace_single_sample(self):
        log = augment_eoc(make_linear_log(1, acts=("A",)))
        samples = make_prefix_samples(log)
        assert len(samples) == 1
        assert samples[0].next_activity == EOC
        assert samples[0].remaining_time == 0.0

    def test_deterministic_trace_targets(self):
        # A,B,C,D + EOC with one-day gaps: at k=2 the next delta is one day
        # and the remaining time spans two days (EOC copies D's timestamp)
        log = augment_eoc(make_linear_log(1))
        samples = make_prefix_samples(log)
        by_k = {s.k: s for s in samples}
        assert by_k[2].next_time_delta == 86400.0
        assert by_k[2].remaining_time == 2 * 86400.0
        assert by_k[4].next_activity == EOC
        assert by_k[4].next_time_delta == 0.0

    def test_concatenation_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            log = augment_eoc(make_random_log(rng, 8))
            trace_acts = {t.case_id: t.activities for t in log.traces}
            samples = make_prefix_samples(log)
            prefixes = last_labels(SampleSet(samples).flat, log.activity_vocab, max(s.k for s in samples))
            for sample, prefix in zip(samples, prefixes, strict=True):
                assert prefix + sample.suffix_activities == trace_acts[sample.case_id]

    def test_sample_count_is_length_minus_one(self):
        rng = np.random.default_rng(29)
        log = augment_eoc(make_random_log(rng, 12))
        samples = make_prefix_samples(log)
        assert len(samples) == sum(len(t) - 1 for t in log.traces)

    def test_min_k_filters_short_traces(self):
        log = augment_eoc(make_linear_log(3, acts=("A", "B")))  # length 3 with EOC
        assert len(make_prefix_samples(log, min_k=2)) == 3
        assert len(make_prefix_samples(log, min_k=3)) == 0

    def test_requires_augmented_log(self):
        with pytest.raises(ValueError):
            make_prefix_samples(make_linear_log(2))

    def test_remaining_time_non_negative(self):
        rng = np.random.default_rng(31)
        log = augment_eoc(make_random_log(rng, 10))
        for sample in make_prefix_samples(log):
            assert sample.remaining_time >= 0.0
            assert sample.next_time_delta >= 0.0
            assert sample.next_activity == sample.suffix_activities[0]


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def odd_ms_log(seed: int, n_traces: int) -> EventLog:
    """An EOC-augmented log whose steps are arbitrary ms counts, up to about
    11 days, after epochs near 2**40 ms: every delta has digits below the second."""
    rng = np.random.default_rng(seed)
    traces = []
    for i in range(n_traces):
        ms = 1_600_000_000_000 + np.cumsum(rng.integers(0, 10**9, size=int(rng.integers(1, 7))))
        traces.append(Trace(f"c{i}", tuple(Event(f"c{i}", "AB"[j % 2], int(t)) for j, t in enumerate(ms))))
    return augment_eoc(EventLog(traces=tuple(traces), activity_vocab=Vocabulary(["A", "B"])))


class TestSampleSet:
    """A set's target columns equal the ``PrefixSample`` properties bit for
    bit, in any sample order, and its check and its targets name the first
    bad case. Its layout is checked in ``tests/test_encoding.py``."""

    @pytest.mark.parametrize("log_name", ["generator-1", "generator-2", "odd-ms"])
    def test_target_columns_equal_the_sample_properties(self, log_name):
        log = odd_ms_log(5, 80) if log_name == "odd-ms" else generator_log(int(log_name[-1]), 120)[0]
        parts = [make_prefix_samples(temporal_split(log).part(name)) for name in PARTS]
        rng = np.random.default_rng(len(log.traces))
        pooled = [s for part in parts for s in part]
        shuffled = [pooled[i] for i in rng.permutation(len(pooled))]
        first = shuffled[0].trace
        at = [i for i, s in enumerate(shuffled) if s.trace is first]
        assert len(at) > 1 and at[-1] - at[0] >= len(at)  # one trace's samples lie apart
        for samples in (*parts, shuffled):
            assert samples
            columns = SampleSet(samples)
            elapsed = [(s.trace.events[s.k - 1].timestamp_ms - s.trace.start_ms) / 1000.0 for s in samples]
            assert columns.next_activity_indices(log.activity_vocab).tolist() == [
                log.activity_vocab.index(s.next_activity) for s in samples
            ]
            assert same_bits(columns.next_time_deltas, np.array([s.next_time_delta for s in samples]))
            assert same_bits(columns.remaining_times, np.array([s.remaining_time for s in samples]))
            assert same_bits(columns.elapsed_times, np.array(elapsed))
            assert columns.suffix_activities == [s.suffix_activities for s in samples]

    def test_a_set_passes_through_and_a_slice_is_a_set_of_its_own(self):
        samples = make_prefix_samples(augment_eoc(make_linear_log(4)))
        whole = SampleSet.of(samples)
        assert SampleSet.of(whole) is whole and whole.flat is whole.flat
        assert list(whole) == samples and len(whole) == len(samples) and whole[3] is samples[3]
        part = whole[2:7]
        assert isinstance(part, SampleSet) and list(part) == samples[2:7]
        assert part.flat.ks.tolist() == [s.k for s in samples[2:7]]

    def test_every_column_and_check_reads_the_one_layout(self, monkeypatch):
        log, _ = generator_log(1, 60)
        samples = make_prefix_samples(temporal_split(log).train)[::3]
        calls = []
        of = FlatPrefixes.of.__func__
        monkeypatch.setattr(FlatPrefixes, "of", classmethod(lambda cls, *args: calls.append(1) or of(cls, *args)))
        columns = SampleSet(samples)
        flat = columns.flat
        traces = {id(s.trace): s.trace for s in samples}.values()
        assert calls == [1] and flat.events == [ev for t in traces for ev in t.events]  # each trace whole, once
        assert columns.check() is columns
        columns.next_activity_indices(log.activity_vocab)
        for name in ("next_time_deltas", "remaining_times", "elapsed_times", "suffix_activities"):
            getattr(columns, name)
        assert calls == [1] and columns.flat is flat

    def test_check_and_targets_name_the_first_bad_case(self):
        log = augment_eoc(make_linear_log(2))
        good, trace = log.traces
        n = len(trace)
        too_long = f"prefix length {n + 1} exceeds its trace's length {n}"
        for k, message in ((0, r"has an empty prefix \(k=0\)"), (n + 1, too_long)):
            # the first bad sample is named, not the later bad one of case c0
            mixed = [PrefixSample(good, 1), PrefixSample(trace, k), PrefixSample(good, 0)]
            for samples in ([PrefixSample(trace, k)], mixed):
                with pytest.raises(ValueError, match=f"case 'c1'.*{message}"):
                    SampleSet(samples).check()
        whole = SampleSet([PrefixSample(good, 1), PrefixSample(trace, n)])
        assert whole.check() is whole  # a whole trace is a prefix to score, but has no target
        for k in (0, n, n + 1):
            for read in (
                lambda s: s.next_activity_indices(log.activity_vocab),
                lambda s: s.next_time_deltas, lambda s: s.remaining_times, lambda s: s.elapsed_times,
                lambda s: s.suffix_activities,
            ):
                no_target = f"case 'c1' has no target: its prefix length {k} lies outside 1..{n - 1}"
                with pytest.raises(ValueError, match=no_target):
                    read(SampleSet([PrefixSample(good, 1), PrefixSample(trace, k)]))


class TestManifest:
    def test_written_manifest_lists_every_case_once_by_part(self, tmp_path):
        split = temporal_split(make_linear_log(25))
        path = tmp_path / "manifest.csv"
        write_split_manifest(split, path)
        assert path.read_text(encoding="utf-8") == split_manifest(split)
        rows = [line.split(",") for line in split_manifest(split).splitlines()]
        assert rows[0] == ["case_id", "part"]
        assert rows[1:] == [[t.case_id, part] for part in PARTS for t in split.part(part).traces]
        assert len({case for case, _ in rows[1:]}) == 25

    def test_manifest_text_deterministic(self):
        split = temporal_split(make_linear_log(10))
        assert split_manifest(split) == split_manifest(split)


@st.composite
def split_cases(draw):
    """A log of 1-40 single-event traces with random first-event times (ties
    included), and valid fractions: both positive, summing below one."""
    n = draw(st.integers(1, 40))
    starts = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    traces = tuple(
        Trace(f"c{i}", (Event(f"c{i}", "A", 1_600_000_000_000 + 3_600_000 * t),))
        for i, t in enumerate(starts)
    )
    train = draw(st.floats(0.01, 0.98))
    val = draw(st.floats(0.01, 0.98))
    assume(train + val < 1)
    return EventLog(traces=traces, activity_vocab=Vocabulary(["A"])), (train, val)


class TestTemporalSplitProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(split_cases())
    def test_parts_partition_the_log_in_time_order(self, case):
        log, (train, val) = case
        n = len(log.traces)
        split = temporal_split(log, (train, val))
        parts = (split.train.traces, split.validation.traces, split.test.traces)
        ids = [t.case_id for part in parts for t in part]
        assert sorted(ids) == sorted(t.case_id for t in log.traces)  # union, no repeats
        assert len(parts[0]) == math.floor(train * n)
        assert len(parts[0]) + len(parts[1]) == math.floor((train + val) * n)
        for earlier, later in zip(parts, parts[1:]):
            if earlier and later:
                assert max(t.start_ms for t in earlier) <= min(t.start_ms for t in later)
