import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ppmbench.eventlog import (
    EOC,
    MISSING,
    CsvSchema,
    EmptyLogError,
    EocConflictError,
    Event,
    EventLog,
    LogParseError,
    Trace,
    UniquenessViolationError,
    Vocabulary,
    augment_eoc,
    compute_stats,
    parse_csv,
    parse_timestamp,
    format_timestamp,
    stats_csv,
    stats_table,
    to_csv,
)

from conftest import make_random_log

import numpy as np

DAY_MS = 86_400_000


def two_event_trace(case_id: str, act_pair=("X", "Y"), start=1_600_000_000_000):
    return Trace(
        case_id=case_id,
        events=(
            Event(case_id=case_id, activity=act_pair[0], timestamp_ms=start),
            Event(case_id=case_id, activity=act_pair[1], timestamp_ms=start + DAY_MS),
        ),
    )


class TestTimestampParsing:
    def test_day_first_format(self):
        ms = parse_timestamp("14-01-2010 07:52:50")
        assert format_timestamp(ms) == "2010-01-14 07:52:50.000"

    def test_iso(self):
        assert parse_timestamp("2010-01-14 07:52:50") == parse_timestamp("14-01-2010 07:52:50")
        assert parse_timestamp("2010-01-14T07:52:50Z") == parse_timestamp("14-01-2010 07:52:50")

    def test_millisecond_round_trip(self):
        ms = parse_timestamp("2010-01-14 07:52:50.123")
        assert ms % 1000 == 123
        assert parse_timestamp(format_timestamp(ms)) == ms

    def test_malformed(self):
        with pytest.raises(LogParseError):
            parse_timestamp("not a date")


class TestParseCsv:
    def test_table1_excerpt(self, table1_csv):
        log = parse_csv(table1_csv.encode())
        assert len(log.traces) == 2
        assert log.num_events == 9
        assert len(log.activity_vocab) == 5  # 6 only after EOC augmentation
        assert log.attribute_names == ("Resource",)
        log.validate()

    def test_header_only_is_empty_log(self):
        with pytest.raises(EmptyLogError):
            parse_csv(b"case_id,activity,timestamp\n")

    def test_empty_file(self):
        with pytest.raises(EmptyLogError):
            parse_csv(b"")

    def test_shuffled_timestamps_sorted(self):
        text = (
            "case_id,activity,timestamp\n"
            "c1,B,2020-01-03 00:00:00\n"
            "c1,A,2020-01-01 00:00:00\n"
            "c1,C,2020-01-02 00:00:00\n"
        )
        log = parse_csv(text.encode())
        assert len(log.traces) == 1
        assert log.traces[0].activities == ("A", "C", "B")

    def test_tie_preserves_file_order(self):
        text = (
            "case_id,activity,timestamp\n"
            "c1,B,2020-01-01 00:00:00\n"
            "c1,A,2020-01-01 00:00:00\n"
        )
        log = parse_csv(text.encode())
        assert log.traces[0].activities == ("B", "A")

    def test_duplicate_triple_named(self):
        text = (
            "case_id,activity,timestamp\n"
            "c1,A,2020-01-01 00:00:00\n"
            "c1,A,2020-01-01 00:00:00\n"
        )
        with pytest.raises(UniquenessViolationError) as err:
            parse_csv(text.encode())
        assert "'A'" in str(err.value) and "c1" in str(err.value)

    def test_malformed_timestamp_reports_row(self):
        text = "case_id,activity,timestamp\nc1,A,2020-01-01 00:00:00\nc1,B,banana\n"
        with pytest.raises(LogParseError) as err:
            parse_csv(text.encode())
        assert "row 3" in str(err.value)

    def test_missing_cells_become_marker(self):
        text = "case_id,activity,timestamp,res\nc1,A,2020-01-01 00:00:00,\n"
        log = parse_csv(text.encode())
        assert log.traces[0].events[0].attributes["res"] == MISSING
        assert log.attribute_vocabs["res"].index(MISSING) == 0

    def test_custom_schema(self):
        text = "Case ID,Activity,Complete Timestamp\nc1,A,2020-01-01 00:00:00\n"
        schema = CsvSchema(case_id="Case ID", activity="Activity", timestamp="Complete Timestamp")
        log = parse_csv(text.encode(), schema)
        assert log.traces[0].case_id == "c1"

    def test_missing_required_column(self):
        with pytest.raises(LogParseError):
            parse_csv(b"case_id,activity\nc1,A\n")


class TestRoundTrip:
    def test_table1_round_trip(self, table1_csv):
        log = parse_csv(table1_csv.encode())
        assert parse_csv(to_csv(log).encode()) == log

    def test_random_logs_round_trip(self):
        # the invariant is stated for parsed logs, whose vocabularies carry
        # exactly the observed labels; normalize through one parse first
        rng = np.random.default_rng(7)
        for _ in range(10):
            raw = make_random_log(rng, n_traces=int(rng.integers(1, 12)))
            log = parse_csv(to_csv(raw).encode())
            text = to_csv(log)
            assert parse_csv(text.encode()) == log
            assert parse_csv(io.BytesIO(text.encode())) == log


class TestAugmentEoc:
    def test_table1(self, table1_csv):
        log = augment_eoc(parse_csv(table1_csv.encode()))
        assert all(t.activities[-1] == EOC for t in log.traces)
        assert len(log.activity_vocab) == 6
        case2118 = next(t for t in log.traces if t.case_id == "Case2118")
        assert case2118.activities[-2:] == ("Closed", EOC)
        assert all(len(t.events) in (5, 6) for t in log.traces)

    def test_eoc_copies_last_timestamp_and_missing_attrs(self, table1_csv):
        log = augment_eoc(parse_csv(table1_csv.encode()))
        for trace in log.traces:
            eoc = trace.events[-1]
            assert eoc.timestamp_ms == trace.events[-2].timestamp_ms
            assert eoc.attributes == {"Resource": MISSING}

    def test_single_event_trace(self):
        trace = Trace("c1", (Event("c1", "A", 1_000_000),))
        log = EventLog(traces=(trace,), activity_vocab=Vocabulary(["A"]))
        out = augment_eoc(log)
        assert out.traces[0].activities == ("A", EOC)
        assert out.traces[0].events[1].timestamp_ms == 1_000_000

    def test_double_augment_conflict(self, table1_csv):
        log = augment_eoc(parse_csv(table1_csv.encode()))
        with pytest.raises(EocConflictError):
            augment_eoc(log)

    def test_timestamps_remain_sorted(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            log = augment_eoc(make_random_log(rng, 6))
            for trace in log.traces:
                ts = [e.timestamp_ms for e in trace.events]
                assert ts == sorted(ts)


class TestComputeStats:
    def test_empty_log(self):
        with pytest.raises(EmptyLogError):
            compute_stats(EventLog(traces=(), activity_vocab=Vocabulary([])))

    def test_single_event_trace(self):
        trace = Trace("c1", (Event("c1", "A", 0),))
        stats = compute_stats(EventLog(traces=(trace,), activity_vocab=Vocabulary(["A"])))
        assert stats.avg_case_length == 1 and stats.max_case_length == 1
        assert stats.avg_event_duration == 0.0 and stats.max_event_duration == 0.0
        assert stats.avg_case_duration == 0.0 and stats.max_case_duration == 0.0
        assert stats.num_variants == 1

    def test_two_identical_two_event_traces(self):
        # hand enumeration: two duration samples of exactly one day, one variant
        log = EventLog(
            traces=(two_event_trace("c1"), two_event_trace("c2")),
            activity_vocab=Vocabulary(["X", "Y"]),
        )
        stats = compute_stats(log)
        assert stats.avg_event_duration == pytest.approx(1.0)
        assert stats.max_event_duration == pytest.approx(1.0)
        assert stats.num_variants == 1
        assert stats.num_events == 4

    def test_table1_counts(self, table1_csv):
        stats = compute_stats(parse_csv(table1_csv.encode()))
        assert stats.num_cases == 2
        assert stats.num_activities == 5
        assert stats.num_events == 9
        assert stats.max_case_length == 5
        assert stats.num_variants == 2

    def test_recompute_is_bit_identical(self, table1_csv):
        log = parse_csv(table1_csv.encode())
        assert compute_stats(log) == compute_stats(log)

    def test_max_at_least_avg(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            log = make_random_log(rng, int(rng.integers(1, 15)))
            stats = compute_stats(log)
            assert stats.max_case_length >= stats.avg_case_length
            assert stats.max_event_duration >= stats.avg_event_duration
            assert stats.max_case_duration >= stats.avg_case_duration
            assert stats.num_variants <= stats.num_cases
            assert stats.num_events == sum(len(t) for t in log.traces)

    def test_outputs(self, table1_csv):
        stats = compute_stats(parse_csv(table1_csv.encode()))
        table = stats_table({"table1": stats})
        assert "Num. cases" in table and "table1" in table
        csv_text = stats_csv({"table1": stats})
        assert csv_text.splitlines()[0].startswith("Event log,Num. cases,")
        assert csv_text.splitlines()[1].startswith("table1,2,5,9,4.50,5,")


class TestVocabulary:
    def test_contiguous_and_stable(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert [vocab.index(x) for x in "abc"] == [0, 1, 2]
        assert vocab.label(1) == "b"

    def test_extended_appends(self):
        vocab = Vocabulary(["a"]).extended("b")
        assert vocab.labels == ("a", "b")
        with pytest.raises(ValueError):
            vocab.extended("a")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])


class TestTraceInvariants:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace("c1", ())

    def test_foreign_case_rejected(self):
        with pytest.raises(ValueError):
            Trace("c1", (Event("c2", "A", 0),))

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            Trace("c1", (Event("c1", "A", 10), Event("c1", "B", 5)))


class TestColumnOrderIndependence:
    def test_permuted_attribute_columns_parse_equal(self, table1_csv):
        lines = table1_csv.strip().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        order = [3, 0, 1, 2]  # Resource first
        permuted = "\n".join(
            ",".join(row[i] for i in order) for row in [header] + rows
        ) + "\n"
        assert parse_csv(permuted.encode()) == parse_csv(table1_csv.encode())


class TestRfc4180Quoting:
    def test_quoted_labels_round_trip(self):
        log = EventLog(
            traces=(
                Trace("c,1", (
                    Event("c,1", 'say "hi", then wait', 0, {"note": "a,b"}),
                    Event("c,1", "line\nbreak", 60_000, {"note": 'q"q'}),
                )),
            ),
            activity_vocab=Vocabulary(sorted({'say "hi", then wait', "line\nbreak"})),
            attribute_vocabs={"note": Vocabulary([MISSING, "a,b", 'q"q'])},
        )
        text = to_csv(log)
        assert parse_csv(text.encode()) == log


# Labels as a CSV cell can carry them: non-empty, no leading or trailing
# whitespace (cells are stripped on parse), and not the reserved marker.
csv_labels = st.text(min_size=1, max_size=6).filter(lambda s: s == s.strip() and s != MISSING)
REQUIRED_COLUMNS = ("case_id", "activity", "timestamp")
# 1900-01-01 .. 2100-01-01 UTC in epoch milliseconds
TIMESTAMPS_MS = st.integers(-2_208_988_800_000, 4_102_444_800_000)


@st.composite
def csv_logs(draw):
    """A log whose vocabularies are the parsed form: sorted activity labels,
    and per attribute the missing-marker then its sorted values."""
    attr_names = draw(
        st.lists(csv_labels.filter(lambda s: s not in REQUIRED_COLUMNS), max_size=2, unique=True)
    )
    case_ids = draw(st.lists(csv_labels, min_size=1, max_size=4, unique=True))
    acts = draw(st.lists(csv_labels, min_size=1, max_size=4, unique=True))
    values = st.one_of(st.just(MISSING), csv_labels)
    traces = []
    for case_id in case_ids:
        t = draw(TIMESTAMPS_MS)
        events = []
        for _ in range(draw(st.integers(1, 4))):
            t += draw(st.integers(0, 3 * DAY_MS))  # zero gaps make timestamp ties
            attributes = {name: draw(values) for name in attr_names}
            events.append(Event(case_id, draw(st.sampled_from(acts)), t, attributes))
        traces.append(Trace(case_id, tuple(events)))
    keys = [(e.activity, e.case_id, e.timestamp_ms) for tr in traces for e in tr.events]
    assume(len(set(keys)) == len(keys))  # the uniqueness rule of the log
    return EventLog(
        traces=tuple(traces),
        activity_vocab=Vocabulary(sorted({e.activity for tr in traces for e in tr.events})),
        attribute_vocabs={
            name: Vocabulary(
                [MISSING] + sorted({e.attributes[name] for tr in traces for e in tr.events} - {MISSING})
            )
            for name in attr_names
        },
    )


class TestCsvRoundTripProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(csv_logs())
    def test_parse_reproduces_the_log(self, log):
        parsed = parse_csv(to_csv(log).encode("utf-8"))
        assert [t.case_id for t in parsed.traces] == [t.case_id for t in log.traces]
        for got, want in zip(parsed.traces, log.traces):
            assert [e.activity for e in got.events] == [e.activity for e in want.events]
            assert [e.timestamp_ms for e in got.events] == [e.timestamp_ms for e in want.events]
            assert [e.attributes for e in got.events] == [e.attributes for e in want.events]
        assert parsed.activity_vocab == log.activity_vocab
        assert parsed.attribute_vocabs == log.attribute_vocabs
        assert parsed == log
