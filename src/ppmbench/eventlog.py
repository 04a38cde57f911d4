"""Event logs: CSV ingestion, validation, end-of-case augmentation, descriptive statistics."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

EOC = "[EOC]"
MISSING = "⟨missing⟩"  # reserved label for absent attribute values
SECONDS_PER_DAY = 86400.0

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DAY_FIRST_FORMAT = "%d-%m-%Y %H:%M:%S"


class LogParseError(ValueError):
    """A CSV event log could not be parsed."""


class EmptyLogError(ValueError):
    """An operation that needs events was given none."""


class UniquenessViolationError(ValueError):
    """Two events share the same (activity, case id, timestamp)."""


class EocConflictError(ValueError):
    """The end-of-case label is already present in the log."""


class UnknownLabelError(KeyError):
    """A label is absent from the vocabulary it is being looked up in."""


def parse_timestamp(text: str) -> int:
    """Parse ISO-8601 or ``dd-MM-yyyy HH:mm:ss`` to epoch milliseconds (UTC).

    Naive timestamps are interpreted as UTC; the logs carry no timezone.
    """
    raw = text.strip()
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        try:
            dt = datetime.strptime(raw, _DAY_FIRST_FORMAT)
        except ValueError:
            raise LogParseError(f"unparseable timestamp: {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    delta = dt - _EPOCH
    return delta.days * 86_400_000 + delta.seconds * 1000 + delta.microseconds // 1000


def format_timestamp(ms: int) -> str:
    """Render epoch milliseconds as ``YYYY-MM-DD HH:MM:SS.mmm`` (UTC), round-trip safe."""
    dt = _EPOCH + timedelta(milliseconds=ms)
    return f"{dt:%Y-%m-%d %H:%M:%S}.{ms % 1000:03d}"


class Vocabulary:
    """Immutable label set with contiguous indices, stable within a process run."""

    __slots__ = ("_labels", "_lookup")

    def __init__(self, labels: Iterable[str]):
        self._labels = tuple(labels)
        self._lookup = {label: i for i, label in enumerate(self._labels)}
        if len(self._lookup) != len(self._labels):
            raise ValueError("duplicate labels in vocabulary")

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def index(self, label: str) -> int:
        try:
            return self._lookup[label]
        except KeyError:
            raise UnknownLabelError(f"label not in vocabulary: {label!r}") from None

    def label(self, index: int) -> str:
        return self._labels[index]

    def extended(self, label: str) -> "Vocabulary":
        """A new vocabulary with ``label`` appended at the next index."""
        if label in self._lookup:
            raise ValueError(f"label already present: {label!r}")
        return Vocabulary(self._labels + (label,))

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._lookup

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self._labels == other._labels

    def __repr__(self) -> str:
        return f"Vocabulary({list(self._labels)!r})"


@dataclass(frozen=True)
class Event:
    """One event: activity, case id, absolute timestamp, categorical attributes."""

    case_id: str
    activity: str
    timestamp_ms: int
    attributes: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Trace:
    """Non-empty event sequence of one case, timestamps non-decreasing."""

    case_id: str
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError(f"trace {self.case_id!r} has no events")
        for ev in self.events:
            if ev.case_id != self.case_id:
                raise ValueError(
                    f"trace {self.case_id!r} contains event of case {ev.case_id!r}"
                )
        for prev, nxt in zip(self.events, self.events[1:]):
            if nxt.timestamp_ms < prev.timestamp_ms:
                raise ValueError(f"trace {self.case_id!r} timestamps decrease")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(ev.activity for ev in self.events)

    @property
    def start_ms(self) -> int:
        return self.events[0].timestamp_ms

    @property
    def end_ms(self) -> int:
        return self.events[-1].timestamp_ms


@dataclass(frozen=True)
class EventLog:
    """A sequence of traces plus the label vocabularies they draw from.

    Instances are immutable after construction and safe to share across
    parallel workers. ``attribute_vocabs`` is keyed by attribute name in
    source-column order; each attribute vocabulary reserves index 0 for
    the missing-marker label.
    """

    traces: tuple[Trace, ...]
    activity_vocab: Vocabulary
    attribute_vocabs: dict[str, Vocabulary] = field(default_factory=dict)

    @property
    def num_events(self) -> int:
        return sum(len(t) for t in self.traces)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self.attribute_vocabs)

    def iter_events(self) -> Iterator[Event]:
        for trace in self.traces:
            yield from trace.events

    def validate(self) -> None:
        """Check vocabulary coverage and event uniqueness; raise on violation."""
        seen: set[tuple[str, str, int]] = set()
        for ev in self.iter_events():
            if ev.activity not in self.activity_vocab:
                raise ValueError(f"activity {ev.activity!r} missing from vocabulary")
            for name, value in ev.attributes.items():
                vocab = self.attribute_vocabs.get(name)
                if vocab is None:
                    raise ValueError(f"attribute {name!r} has no vocabulary")
                if value not in vocab:
                    raise ValueError(f"value {value!r} missing from vocabulary of {name!r}")
            key = (ev.activity, ev.case_id, ev.timestamp_ms)
            if key in seen:
                raise UniquenessViolationError(f"duplicate event {key!r}")
            seen.add(key)


@dataclass(frozen=True)
class CsvSchema:
    """Names of the three required CSV columns."""

    case_id: str = "case_id"
    activity: str = "activity"
    timestamp: str = "timestamp"


def _open_text(source: str | Path | bytes | IO[str] | IO[bytes]) -> IO[str]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    data = source.read()
    if isinstance(data, bytes):
        return io.StringIO(data.decode("utf-8"))
    return io.StringIO(data)


def parse_csv(
    source: str | Path | bytes | IO[str] | IO[bytes],
    schema: CsvSchema | None = None,
) -> EventLog:
    """Parse a CSV event log (header row, UTF-8, RFC-4180 quoting).

    Events are grouped by case id and each trace is sorted by timestamp with a
    stable sort, so file order is preserved on ties. Columns beyond the three
    schema columns become categorical event attributes; empty cells map to the
    missing-marker. Vocabularies are built in sorted label order (attribute
    vocabularies reserve index 0 for the missing-marker), which makes indices
    independent of row order.

    Raises:
        LogParseError: missing column, malformed row, or bad timestamp
            (the message carries the offending row number).
        EmptyLogError: no data rows.
        UniquenessViolationError: repeated (activity, case id, timestamp).
    """
    schema = schema or CsvSchema()
    stream = _open_text(source)
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise EmptyLogError("event log file is empty")
        header = [h.strip() for h in header]
        positions = {}
        for column in (schema.case_id, schema.activity, schema.timestamp):
            if column not in header:
                raise LogParseError(f"required column {column!r} not in header {header}")
            positions[column] = header.index(column)
        attr_columns = [
            (i, name)
            for i, name in enumerate(header)
            if i not in positions.values()
        ]

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
    finally:
        stream.close()

    if not by_case:
        raise EmptyLogError("event log has a header but no data rows")

    traces = tuple(
        Trace(case_id=case_id, events=tuple(sorted(events, key=lambda e: e.timestamp_ms)))
        for case_id, events in by_case.items()
    )
    attribute_vocabs = {
        name: Vocabulary([MISSING] + sorted(attr_values[name] - {MISSING}))
        for _, name in attr_columns
    }
    return EventLog(
        traces=traces,
        activity_vocab=Vocabulary(sorted(activities)),
        attribute_vocabs=attribute_vocabs,
    )


def to_csv(log: EventLog, schema: CsvSchema | None = None) -> str:
    """Serialize a log back to CSV text; missing-marker values become empty cells."""
    schema = schema or CsvSchema()
    buffer = io.StringIO()
    minimal = csv.writer(buffer, lineterminator="\n")
    # minimal quoting leaves a carriage return bare, since the line terminator
    # is "\n"; a row with one is written fully quoted so that it reads back
    quoted = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)

    def write(cells):
        (quoted if any("\r" in cell for cell in cells) else minimal).writerow(cells)

    attr_names = list(log.attribute_names)
    write([schema.case_id, schema.activity, schema.timestamp] + attr_names)
    for trace in log.traces:
        for ev in trace.events:
            cells = [ev.case_id, ev.activity, format_timestamp(ev.timestamp_ms)]
            for name in attr_names:
                value = ev.attributes.get(name, MISSING)
                cells.append("" if value == MISSING else value)
            write(cells)
    return buffer.getvalue()


def write_csv(log: EventLog, path: str | Path, schema: CsvSchema | None = None) -> None:
    Path(path).write_text(to_csv(log, schema), encoding="utf-8")


def augment_eoc(log: EventLog) -> EventLog:
    """Append an end-of-case event to every trace.

    The new event copies the trace's last timestamp, carries the missing-marker
    for every attribute, and its label is appended to the activity vocabulary.

    Raises:
        EocConflictError: the log already contains the end-of-case label
            (guards against double augmentation).
    """
    if EOC in log.activity_vocab:
        raise EocConflictError(f"log already contains the {EOC!r} activity")
    attr_names = log.attribute_names
    eoc_attrs = {name: MISSING for name in attr_names}
    traces = []
    for trace in log.traces:
        eoc_event = Event(
            case_id=trace.case_id,
            activity=EOC,
            timestamp_ms=trace.end_ms,
            attributes=dict(eoc_attrs),
        )
        traces.append(Trace(case_id=trace.case_id, events=trace.events + (eoc_event,)))
    return EventLog(
        traces=tuple(traces),
        activity_vocab=log.activity_vocab.extended(EOC),
        attribute_vocabs=log.attribute_vocabs,
    )


@dataclass(frozen=True)
class LogStats:
    """Descriptive statistics of one event log; durations are in days."""

    num_cases: int
    num_activities: int
    num_events: int
    avg_case_length: float
    max_case_length: int
    avg_event_duration: float
    max_event_duration: float
    avg_case_duration: float
    max_case_duration: float
    num_variants: int


def compute_stats(log: EventLog) -> LogStats:
    """Compute the statistics table of a (pre-augmentation) log.

    Event duration is the gap to the next event within the same trace, so the
    last event of a trace contributes no duration sample. Case duration is
    last minus first timestamp. A variant is a distinct activity-label
    sequence. All averages are arithmetic means.
    """
    if not log.traces:
        raise EmptyLogError("cannot compute statistics of an empty log")
    lengths = [len(t) for t in log.traces]
    gaps: list[float] = []
    case_durations: list[float] = []
    variants: set[tuple[str, ...]] = set()
    for trace in log.traces:
        events = trace.events
        for prev, nxt in zip(events, events[1:]):
            gaps.append((nxt.timestamp_ms - prev.timestamp_ms) / 1000.0 / SECONDS_PER_DAY)
        case_durations.append((trace.end_ms - trace.start_ms) / 1000.0 / SECONDS_PER_DAY)
        variants.add(trace.activities)
    return LogStats(
        num_cases=len(log.traces),
        num_activities=len(log.activity_vocab),
        num_events=sum(lengths),
        avg_case_length=sum(lengths) / len(lengths),
        max_case_length=max(lengths),
        avg_event_duration=sum(gaps) / len(gaps) if gaps else 0.0,
        max_event_duration=max(gaps) if gaps else 0.0,
        avg_case_duration=sum(case_durations) / len(case_durations),
        max_case_duration=max(case_durations),
        num_variants=len(variants),
    )


_STATS_COLUMNS = (
    ("Num. cases", "num_cases", "d"),
    ("Num. activities", "num_activities", "d"),
    ("Num. events", "num_events", "d"),
    ("Avg. case length", "avg_case_length", ".2f"),
    ("Max. case length", "max_case_length", "d"),
    ("Avg. event duration", "avg_event_duration", ".2f"),
    ("Max. event duration", "max_event_duration", ".2f"),
    ("Avg. case duration", "avg_case_duration", ".2f"),
    ("Max. case duration", "max_case_duration", ".2f"),
    ("Variants", "num_variants", "d"),
)


def stats_csv(stats: Mapping[str, LogStats]) -> str:
    """One CSV row per log, mirroring the statistics table's column set."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["Event log"] + [title for title, _, _ in _STATS_COLUMNS])
    for name, row in stats.items():
        writer.writerow([name] + [format(getattr(row, attr), fmt) for _, attr, fmt in _STATS_COLUMNS])
    return buffer.getvalue()


def stats_table(stats: Mapping[str, LogStats]) -> str:
    """Aligned-column text rendering of the statistics table."""
    header = ["Event log"] + [title for title, _, _ in _STATS_COLUMNS]
    rows = [
        [name] + [format(getattr(row, attr), fmt) for _, attr, fmt in _STATS_COLUMNS]
        for name, row in stats.items()
    ]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = []
    for cells in [header] + rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip())
    return "\n".join(lines) + "\n"
