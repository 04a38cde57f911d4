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
    apply_split_manifest,
    make_prefix_samples,
    read_split_manifest,
    split_manifest,
    temporal_split,
    write_split_manifest,
)

from conftest import make_linear_log, make_random_log


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
        assert sample.prefix_activities == (
            "Assign seriousness",
            "Take in charge ticket",
            "Create SW anomaly",
        )
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
            for sample in make_prefix_samples(log):
                assert sample.prefix_activities + sample.suffix_activities == trace_acts[sample.case_id]

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


class TestManifest:
    def test_round_trip(self, tmp_path):
        split = temporal_split(make_linear_log(25))
        path = tmp_path / "manifest.csv"
        write_split_manifest(split, path)
        assignment = read_split_manifest(path)
        assert len(assignment) == 25
        rebuilt = apply_split_manifest(make_linear_log(25), assignment)
        assert rebuilt.train == split.train
        assert rebuilt.validation == split.validation
        assert rebuilt.test == split.test

    def test_manifest_text_deterministic(self):
        split = temporal_split(make_linear_log(10))
        assert split_manifest(split) == split_manifest(split)

    def test_unknown_case_rejected(self):
        split = temporal_split(make_linear_log(5))
        assignment = read_split_manifest_text(split_manifest(split))
        assignment["ghost"] = "train"
        with pytest.raises(ValueError):
            apply_split_manifest(make_linear_log(5), assignment)

    def test_missing_case_rejected(self):
        split = temporal_split(make_linear_log(5))
        assignment = read_split_manifest_text(split_manifest(split))
        assignment.pop(next(iter(assignment)))
        with pytest.raises(ValueError):
            apply_split_manifest(make_linear_log(5), assignment)


def read_split_manifest_text(text: str) -> dict[str, str]:
    lines = text.strip().splitlines()[1:]
    return dict(line.split(",") for line in lines)


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
