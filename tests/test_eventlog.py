import csv
import io
import warnings
from datetime import datetime, timedelta

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ppmbench import eventlog
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

from conftest import _perfbench_generator, make_random_log

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

    @pytest.mark.parametrize("text", [
        "0001-01-01 00:00:00.000", "0999-03-04 05:06:07.089", "1000-01-01 00:00:00.000",
        "9999-12-31 23:59:59.999",
    ])
    def test_format_round_trips_every_year(self, text):
        assert format_timestamp(parse_timestamp(text)) == text


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


class TestByteOrderMark:
    @pytest.mark.parametrize("kind", ["path", "bytes", "binary stream", "text stream"])
    def test_parses_equal_with_and_without_the_mark(self, kind, table1_csv, tmp_path):
        def source(text):
            if kind == "path":
                path = tmp_path / f"log{len(text)}.csv"
                path.write_bytes(text.encode("utf-8"))
                return path
            if kind == "bytes":
                return text.encode("utf-8")
            if kind == "binary stream":
                return io.BytesIO(text.encode("utf-8"))
            return io.StringIO(text)

        plain = parse_csv(source(table1_csv))
        assert parse_csv(source("\ufeff" + table1_csv)) == plain
        assert plain.attribute_names == ("Resource",)

    def test_quoted_header_after_the_mark(self):
        text = '\ufeff"case_id",activity,timestamp\nc1,A,2020-01-01 00:00:00\n'
        assert parse_csv(text.encode("utf-8")).traces[0].case_id == "c1"


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
# 0001-01-01 00:00:00.000 .. 9999-12-31 23:59:59.999 UTC in epoch milliseconds
MIN_MS, MAX_MS = -62_135_596_800_000, 253_402_300_799_999
TIMESTAMPS_MS = st.integers(MIN_MS, MAX_MS)


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
            t += draw(st.integers(0, min(3 * DAY_MS, MAX_MS - t)))  # zero gaps make timestamp ties
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


def reference_parse_csv(text: str, schema: CsvSchema | None = None) -> EventLog:
    """The row-by-row parser that ``parse_csv`` replaced, kept as the
    reference for its results and errors: each row is checked, its timestamp
    parsed and its key checked for a duplicate before the next row is read."""
    schema = schema or CsvSchema()
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise EmptyLogError("event log file is empty")
    header = [h.strip() for h in header]
    positions = {}
    for column in (schema.case_id, schema.activity, schema.timestamp):
        if column not in header:
            raise LogParseError(f"required column {column!r} not in header {header}")
        positions[column] = header.index(column)
    attr_columns = [(i, name) for i, name in enumerate(header) if i not in positions.values()]

    by_case: dict[str, list[Event]] = {}
    seen: set[tuple[str, str, int]] = set()
    activities: set[str] = set()
    attr_values: dict[str, set[str]] = {name: set() for _, name in attr_columns}
    for row in reader:
        row_num = reader.line_num
        if not row:
            continue
        if len(row) > len(header):
            raise LogParseError(f"row {row_num}: {len(row)} cells for {len(header)} columns")
        row = row + [""] * (len(header) - len(row))
        case_id = row[positions[schema.case_id]].strip()
        activity = row[positions[schema.activity]].strip()
        ts_text = row[positions[schema.timestamp]].strip()
        if not case_id or not activity or not ts_text:
            raise LogParseError(f"row {row_num}: empty required cell")
        try:
            ts = parse_timestamp(ts_text)
        except LogParseError as exc:
            raise LogParseError(f"row {row_num}: {exc}") from None
        key = (activity, case_id, ts)
        if key in seen:
            raise UniquenessViolationError(
                f"duplicate event (activity={activity!r}, case={case_id!r}, "
                f"timestamp={format_timestamp(ts)!r})"
            )
        seen.add(key)
        attributes = {}
        for i, name in attr_columns:
            value = row[i].strip()
            attributes[name] = value if value else MISSING
            attr_values[name].add(attributes[name])
        activities.add(activity)
        by_case.setdefault(case_id, []).append(
            Event(case_id=case_id, activity=activity, timestamp_ms=ts, attributes=attributes)
        )
    if not by_case:
        raise EmptyLogError("event log has a header but no data rows")
    traces = tuple(
        Trace(case_id=case_id, events=tuple(sorted(events, key=lambda e: e.timestamp_ms)))
        for case_id, events in by_case.items()
    )
    return EventLog(
        traces=traces,
        activity_vocab=Vocabulary(sorted(activities)),
        attribute_vocabs={
            name: Vocabulary([MISSING] + sorted(attr_values[name] - {MISSING})) for _, name in attr_columns
        },
    )


def parse_outcome(parse, source):
    """The log a parser returns, or the type and message of what it raises."""
    try:
        return parse(source)
    except (LogParseError, EmptyLogError, UniquenessViolationError) as error:
        return type(error), str(error)


def iso_text(when: datetime, sep: str = " ", digits: int | None = 0) -> str:
    """``when`` as plain ISO: minutes only (``digits`` None), or seconds with
    ``digits`` fractional digits, the microseconds cut, not rounded."""
    text = f"{when.year:04d}-{when:%m-%d}{sep}{when:%H:%M}"
    if digits is not None:
        text += f":{when:%S}"
        if digits:
            text += "." + f"{when.microsecond:06d}"[:digits]
    return text


@st.composite
def plain_iso_texts(draw):
    when = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999_999)))
    return iso_text(when, draw(st.sampled_from("T ")), draw(st.one_of(st.none(), st.integers(0, 6))))


@st.composite
def other_timestamp_texts(draw):
    """Forms that parse_timestamp reads and the array conversion leaves to it."""
    when = draw(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)))
    form = draw(st.sampled_from(["zulu", "offset", "day_first", "hour_only"]))
    if form == "zulu":
        return when.isoformat() + "Z"
    if form == "offset":
        return when.isoformat() + draw(st.sampled_from(["+02:00", "-05:30", "+00:00"]))
    if form == "day_first":
        return f"{when:%d-%m}-{when.year:04d} {when:%H:%M:%S}"
    return f"{when.year:04d}-{when:%m-%dT%H}"


IMPOSSIBLE_PLAIN = ["2010-02-30 00:00:00", "2011-02-29T10:00", "2010-04-31 00:00:00.5"]


class TestTimestampArrayPath:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(plain_iso_texts(), min_size=1, max_size=20))
    @example(["0001-01-01T00:00", "9999-12-31 23:59:59.999999", "1969-12-31 23:59:59.999999", "1900-03-01 00:00:00.5"])
    def test_equals_parse_timestamp_on_plain_iso(self, texts):
        assert all(eventlog._PLAIN_ISO.fullmatch(text) for text in texts)  # the array path reads them
        assert eventlog._epoch_ms(texts) == ([parse_timestamp(text) for text in texts], None)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(plain_iso_texts(), other_timestamp_texts()), min_size=1, max_size=20))
    def test_mixed_forms_read_as_parse_timestamp_reads_each(self, texts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eventlog._epoch_ms(texts) == ([parse_timestamp(text) for text in texts], None)

    def test_year_zero_is_left_to_parse_timestamp(self):
        assert not eventlog._PLAIN_ISO.fullmatch("0000-01-01 00:00:00")
        for text in IMPOSSIBLE_PLAIN:
            assert eventlog._PLAIN_ISO.fullmatch(text)  # numpy rejects these itself

    @pytest.mark.parametrize("bad", ["0000-01-01 00:00:00", "banana", *IMPOSSIBLE_PLAIN])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(before=st.lists(plain_iso_texts(), max_size=5), after=st.lists(plain_iso_texts(), max_size=5))
    def test_first_rejected_text_raises_as_today(self, bad, before, after):
        stamps, error = eventlog._epoch_ms(before + [bad] + after + ["2010-02-30 00:00:00"])
        assert stamps == [parse_timestamp(text) for text in before]
        with pytest.raises(LogParseError) as want:
            parse_timestamp(bad)
        assert type(error) is LogParseError and str(error) == str(want.value)

    def test_zone_and_offset_timestamps_parse_without_warning(self):
        text = (
            "case_id,activity,timestamp\n"
            "c1,A,2010-01-14T07:52:50Z\n"
            "c1,B,2010-01-14T09:52:51+02:00\n"
            "c1,C,2010-01-14 07:52:52\n"
            "c1,D,14-01-2010 07:52:53\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = parse_csv(text.encode())
        start = parse_timestamp("2010-01-14 07:52:50")
        assert [e.timestamp_ms for e in log.traces[0].events] == [start, start + 1000, start + 2000, start + 3000]


# Row kinds of the fault-injection logs. The valid ones write their instant
# in every form parse_timestamp reads; a duplicate repeats an earlier valid
# row's case, activity and instant, maybe in another form.
VALID_KINDS = ["plain", "fraction", "minute", "zulu", "offset", "day_first", "padded", "multiline", "short"]
FAULT_KINDS = ["blank", "too_many", "empty_required", "bad_text", "impossible", "year_zero", "duplicate"]


@st.composite
def faulty_csvs(draw):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["case_id", "activity", "timestamp", "Resource"])
    base = draw(st.sampled_from([datetime(1969, 12, 31, 23, 30), datetime(2010, 1, 1, 8, 0)]))
    written: list[tuple[str, str, datetime]] = []
    for kind in draw(st.lists(st.sampled_from(VALID_KINDS * 2 + FAULT_KINDS), max_size=14)):
        case, activity = draw(st.sampled_from(["c1", "c2", "c,3"])), draw(st.sampled_from(["A", "B"]))
        when = base + timedelta(minutes=draw(st.integers(0, 40)), microseconds=draw(st.integers(0, 2)) * 700)
        if kind == "duplicate" and written:
            case, activity, when = draw(st.sampled_from(written))
            kind = draw(st.sampled_from(VALID_KINDS))
        if kind == "blank":
            buffer.write("\n")
            continue
        stamp = {
            "fraction": iso_text(when, "T", 6),
            "minute": iso_text(when.replace(second=0, microsecond=0), " ", None),
            "zulu": when.isoformat() + "Z",
            "offset": (when + timedelta(hours=2)).isoformat() + "+02:00",
            "day_first": f"{when:%d-%m-%Y %H:%M:%S}",
            "padded": f"  {iso_text(when, ' ', 3)} ",
            "bad_text": "banana",
            "impossible": draw(st.sampled_from(IMPOSSIBLE_PLAIN)),
            "year_zero": "0000-01-01 00:00:00",
        }.get(kind, iso_text(when, " ", 3))
        cells = [case, activity, stamp, draw(st.sampled_from(["", "R1", "R2"]))]
        if kind == "multiline":
            cells[3] = "line\nbreak"
        elif kind == "short":
            cells = cells[:3]
        elif kind == "too_many":
            cells.append("extra")
        elif kind == "empty_required":
            cells[draw(st.integers(0, 2))] = draw(st.sampled_from(["", "  "]))
        writer.writerow(cells)
        if kind in VALID_KINDS:  # the instant as the row's text gives it
            written.append((case, activity, datetime(1970, 1, 1) + timedelta(milliseconds=parse_timestamp(stamp))))
    return buffer.getvalue()


class TestParseCsvEquivalence:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(faulty_csvs())
    def test_same_log_or_same_error_as_the_row_by_row_parser(self, text):
        assert parse_outcome(parse_csv, text.encode()) == parse_outcome(reference_parse_csv, text)

    @pytest.mark.parametrize("rows, error, message", [
        (["c1,A,banana", "c1,B,2010-01-01 00:00:00,R,extra"], LogParseError, "row 2: unparseable"),
        (["c1,B,2010-01-01 00:00:00,R,extra", "c1,A,banana"], LogParseError, "row 2: 5 cells"),
        (["c1,A,2010-01-01 00:00:00", "c1,A,2010-01-01T00:00:00Z", "c1,B,2010-02-30 00:00:00"],
         UniquenessViolationError, "duplicate event"),
        (["c1,A,2010-01-01 00:00:00", "c1,B,2010-02-30 00:00:00", "c1,A,2010-01-01 00:00:00"],
         LogParseError, "row 3: unparseable timestamp: '2010-02-30 00:00:00'"),
        (["c1,A,2010-01-01 00:00:00", "c1,A,2010-01-01 00:00:00", ",B,2010-01-02 00:00:00"],
         UniquenessViolationError, "duplicate event"),
        (['c1,A,2010-01-01 00:00:00,"two\nlines"', "", "c1,B,0000-01-01 00:00:00"],
         LogParseError, "row 5: unparseable timestamp: '0000-01-01 00:00:00'"),
    ])
    def test_first_faulty_row_raises(self, rows, error, message):
        text = "\n".join(["case_id,activity,timestamp,Resource", *rows]) + "\n"
        with pytest.raises(error) as got:
            parse_csv(text.encode())
        assert str(got.value).startswith(message)
        assert parse_outcome(reference_parse_csv, text) == (error, str(got.value))

    @pytest.mark.parametrize("seed, cases", [(1, 400), (2, 150)])
    def test_generator_log_equals_the_row_by_row_parse(self, seed, cases, tmp_path):
        generator = _perfbench_generator()
        path = tmp_path / "log.csv"
        generator.write_csv(generator.generate(seed, cases), path)
        assert parse_csv(path) == reference_parse_csv(path.read_text(encoding="utf-8"))
