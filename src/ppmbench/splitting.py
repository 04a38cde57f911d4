"""Chronological train/validation/test splitting and prefix/suffix sample generation."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .eventlog import EOC, EmptyLogError, Event, EventLog, Trace

PARTS = ("train", "validation", "test")


@dataclass(frozen=True)
class SplitLog:
    """Disjoint chronological partition of one event log.

    The three parts share the parent log's vocabularies so that label indices
    stay consistent between training and evaluation.
    """

    train: EventLog
    validation: EventLog
    test: EventLog

    def part(self, name: str) -> EventLog:
        if name not in PARTS:
            raise ValueError(f"unknown part {name!r}")
        return getattr(self, name)


def temporal_split(
    log: EventLog, fractions: tuple[float, float] = (0.64, 0.16)
) -> SplitLog:
    """Split traces chronologically by first-event timestamp.

    Traces are sorted ascending by the timestamp of their first event (stable
    sort: ties keep original log order) and cut at ``floor(train * n)`` and
    ``floor((train + val) * n)``; the test part takes the remainder. Purely
    deterministic, no randomness involved.
    """
    train_frac, val_frac = fractions
    if train_frac <= 0 or val_frac <= 0 or train_frac + val_frac >= 1:
        raise ValueError(f"invalid split fractions {fractions!r}")
    n = len(log.traces)
    if n == 0:
        raise EmptyLogError("cannot split an empty log")
    ordered = sorted(log.traces, key=lambda t: t.start_ms)
    cut_train = int(train_frac * n)
    cut_val = int((train_frac + val_frac) * n)
    parts = (ordered[:cut_train], ordered[cut_train:cut_val], ordered[cut_val:])
    train, validation, test = (
        EventLog(
            traces=tuple(traces),
            activity_vocab=log.activity_vocab,
            attribute_vocabs=log.attribute_vocabs,
        )
        for traces in parts
    )
    return SplitLog(train=train, validation=validation, test=test)


@dataclass(frozen=True)
class PrefixSample:
    """A view of the first ``k`` events of one trace, with every supervision
    target read from the trace on demand.

    ``prefix`` is the first ``k`` events; ``suffix_activities`` is the
    remaining activity-label sequence, terminated by the end-of-case label.
    Time targets are in seconds.
    """

    trace: Trace
    k: int

    @property
    def prefix(self) -> tuple[Event, ...]:
        return self.trace.events[: self.k]

    @property
    def case_id(self) -> str:
        return self.trace.case_id

    @property
    def prefix_activities(self) -> tuple[str, ...]:
        return tuple(ev.activity for ev in self.prefix)

    @property
    def next_activity(self) -> str:
        return self.trace.events[self.k].activity

    @property
    def next_time_delta(self) -> float:
        events = self.trace.events
        return (events[self.k].timestamp_ms - events[self.k - 1].timestamp_ms) / 1000.0

    @property
    def suffix_activities(self) -> tuple[str, ...]:
        return tuple(ev.activity for ev in self.trace.events[self.k :])

    @property
    def remaining_time(self) -> float:
        return (self.trace.end_ms - self.trace.events[self.k - 1].timestamp_ms) / 1000.0


def make_prefix_samples(log: EventLog, min_k: int = 1) -> list[PrefixSample]:
    """Generate every prefix sample of an EOC-augmented log.

    A trace of length ``n`` (end-of-case event included) yields samples for
    ``k = min_k .. n-1``; the end-of-case event is never a prefix head, so
    traces shorter than ``min_k + 1`` contribute nothing. The concatenation
    of prefix and suffix activities always reconstructs the full trace.
    """
    if min_k < 1:
        raise ValueError("min_k must be >= 1")
    if EOC not in log.activity_vocab:
        raise ValueError("log must be EOC-augmented before sampling")
    return [PrefixSample(trace, k) for trace in log.traces for k in range(min_k, len(trace))]


def split_manifest(split: SplitLog) -> str:
    """CSV manifest of (case_id, part) rows, for audit and reuse across runs."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["case_id", "part"])
    for part in PARTS:
        for trace in split.part(part).traces:
            writer.writerow([trace.case_id, part])
    return buffer.getvalue()


def write_split_manifest(split: SplitLog, path: str | Path) -> None:
    Path(path).write_text(split_manifest(split), encoding="utf-8")


def read_split_manifest(path: str | Path) -> dict[str, str]:
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["case_id", "part"]:
        raise ValueError(f"not a split manifest: header {header!r}")
    assignment: dict[str, str] = {}
    for row in reader:
        if not row:
            continue
        case_id, part = row
        if part not in PARTS:
            raise ValueError(f"unknown part {part!r} for case {case_id!r}")
        assignment[case_id] = part
    return assignment


def apply_split_manifest(log: EventLog, assignment: Mapping[str, str]) -> SplitLog:
    """Partition ``log`` according to a previously written manifest."""
    buckets: dict[str, list[Trace]] = {part: [] for part in PARTS}
    for trace in log.traces:
        part = assignment.get(trace.case_id)
        if part is None:
            raise ValueError(f"case {trace.case_id!r} missing from manifest")
        buckets[part].append(trace)
    extra = set(assignment) - {t.case_id for t in log.traces}
    if extra:
        raise ValueError(f"manifest names unknown cases: {sorted(extra)[:5]}")
    train, validation, test = (
        EventLog(
            traces=tuple(buckets[part]),
            activity_vocab=log.activity_vocab,
            attribute_vocabs=log.attribute_vocabs,
        )
        for part in PARTS
    )
    return SplitLog(train=train, validation=validation, test=test)
