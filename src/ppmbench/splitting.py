"""Chronological train/validation/test splitting and prefix/suffix sample generation."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomic import write_text_atomic
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


def valid_split_fractions(fractions: tuple[float, float]) -> bool:
    """Whether the train and validation fractions are positive and sum to less than 1."""
    train_frac, val_frac = fractions
    return train_frac > 0 and val_frac > 0 and train_frac + val_frac < 1


def temporal_split(
    log: EventLog, fractions: tuple[float, float] = (0.64, 0.16)
) -> SplitLog:
    """Split traces chronologically by first-event timestamp.

    Traces are sorted ascending by the timestamp of their first event (stable
    sort: ties keep original log order) and cut at ``floor(train * n)`` and
    ``floor((train + val) * n)``; the test part takes the remainder. Purely
    deterministic, no randomness involved.
    """
    if not valid_split_fractions(fractions):
        raise ValueError(f"invalid split fractions {fractions!r}")
    train_frac, val_frac = fractions
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


def check_prefix_samples(samples: Sequence[PrefixSample]) -> None:
    """``ValueError`` unless every sample's prefix holds 1 to all of its
    trace's events: the inputs a model scores or decodes from."""
    for sample in samples:
        if sample.k < 1:
            raise ValueError(f"sample of case {sample.case_id!r} has an empty prefix (k={sample.k})")
        if sample.k > len(sample.trace.events):
            raise ValueError(
                f"sample of case {sample.case_id!r}: prefix length {sample.k} exceeds its trace's "
                f"length {len(sample.trace.events)}"
            )


@dataclass(frozen=True)
class FlatPrefixes:
    """N prefixes of T traces as flat event columns: the layout in which a
    sample set is encoded, replayed, hashed and cut into contexts.

    ``events`` holds each trace's events once, up to its longest prefix, in
    order of first appearance: trace j's are ``events[starts[j]:starts[j + 1]]``.
    Per event, ``ms`` is its epoch ms, ``prev_ms`` its previous event's (its
    own at a case start) and ``first_ms`` its case start's. Prefix i is the
    first ``ks[i]`` events of trace ``trace_of[i]``; ``ends[i]`` is one past
    its last event."""

    events: list[Event]
    starts: np.ndarray  # (T + 1,)
    ms: np.ndarray
    prev_ms: np.ndarray
    first_ms: np.ndarray
    trace_of: np.ndarray
    ks: np.ndarray
    ends: np.ndarray

    @classmethod
    def of(cls, traces: Sequence[Sequence[Event]], trace_of: Sequence[int], ks: Sequence[int]) -> "FlatPrefixes":
        """Prefix i is ``traces[trace_of[i]][:ks[i]]``; a k outside
        0..len(trace) is a ``ValueError``."""
        trace_of = np.asarray(trace_of, dtype=np.int64)
        ks = np.asarray(ks, dtype=np.int64)
        lengths = np.array([len(events) for events in traces], dtype=np.int64)[trace_of]
        bad = (ks < 0) | (ks > lengths)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"prefix length {int(ks[i])} outside 0..{int(lengths[i])}")
        upto = np.zeros(len(traces), dtype=np.int64)
        np.maximum.at(upto, trace_of, ks)
        events = list(chain.from_iterable(events[:n] for events, n in zip(traces, upto.tolist())))
        starts = np.concatenate([[0], np.cumsum(upto)])
        ms = np.fromiter((ev.timestamp_ms for ev in events), dtype=np.int64, count=len(events))
        begin = np.repeat(starts[:-1], upto)  # the index of each event's case start
        previous = np.maximum(np.arange(len(events)) - 1, begin)
        return cls(events, starts, ms, ms[previous], ms[begin], trace_of, ks, starts[trace_of] + ks)

    @classmethod
    def of_samples(cls, samples: Iterable[PrefixSample]) -> "FlatPrefixes":
        """The samples' prefixes, in sample order; samples of one trace share its events."""
        slots: dict[int, int] = {}
        traces, trace_of, ks = [], [], []
        for sample in samples:
            slot = slots.setdefault(id(sample.trace), len(slots))
            if slot == len(traces):
                traces.append(sample.trace.events)
            trace_of.append(slot)
            ks.append(sample.k)
        return cls.of(traces, trace_of, ks)

    @cached_property
    def activities(self) -> list[str]:
        """The activity label of each event."""
        return [ev.activity for ev in self.events]

    def last_activities(self, m: int) -> list[tuple[str, ...]]:
        """The last ``min(m, ks[i])`` activity labels of each prefix i."""
        labels = self.activities
        return [tuple(labels[end - min(m, k) : end]) for end, k in zip(self.ends.tolist(), self.ks.tolist())]


def whole_prefix_sample(events: Sequence[Event]) -> PrefixSample:
    """The sample that holds all of ``events``: the one-sample batch in which
    a single prefix is scored or decoded. An empty prefix is a ``ValueError``."""
    events = tuple(events)
    if not events:
        raise ValueError("cannot score or decode an empty prefix")
    return PrefixSample(Trace(events[0].case_id, events), len(events))


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
    write_text_atomic(path, lambda: split_manifest(split))


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
