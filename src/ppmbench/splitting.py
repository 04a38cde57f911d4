"""Chronological train/validation/test splitting and prefix/suffix sample generation."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .atomic import write_text_atomic
from .eventlog import EOC, EmptyLogError, Event, EventLog, Trace, Vocabulary

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


@dataclass(frozen=True)
class FlatPrefixes:
    """N prefixes of T traces as flat event columns: the layout in which a
    sample set is encoded, replayed, hashed, cut into contexts and read for
    its targets.

    ``events`` holds each trace's events once, whole, in order: trace j's are
    ``events[starts[j]:starts[j + 1]]``. Per event, ``ms`` is its epoch ms,
    ``prev_ms`` its previous event's (its own at a case start) and
    ``first_ms`` its case start's. Prefix i is the first ``ks[i]`` events of
    trace ``trace_of[i]``; ``ends[i]`` is one past its last event, which is
    where its next event lies, if it has one. ``inside`` marks the events
    that lie in some prefix, each trace's events before its longest
    prefix's end: the events an input reads. Integer codes of their labels
    (:meth:`codes`) are built on first read, once per vocabulary."""

    events: list[Event]
    starts: np.ndarray  # (T + 1,)
    ms: np.ndarray
    prev_ms: np.ndarray
    first_ms: np.ndarray
    trace_of: np.ndarray
    ks: np.ndarray
    ends: np.ndarray
    inside: np.ndarray  # (E,) bool
    _codes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, traces: Sequence[Sequence[Event]], trace_of: Sequence[int], ks: Sequence[int]) -> "FlatPrefixes":
        """Prefix i is ``traces[trace_of[i]][:ks[i]]``; a k outside
        0..len(trace) is a ``ValueError``."""
        trace_of = np.asarray(trace_of, dtype=np.int64)
        ks = np.asarray(ks, dtype=np.int64)
        sizes = np.array([len(events) for events in traces], dtype=np.int64)
        bad = (ks < 0) | (ks > sizes[trace_of])
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"prefix length {int(ks[i])} outside 0..{int(sizes[trace_of[i]])}")
        events = list(chain.from_iterable(traces))
        starts = np.concatenate([[0], np.cumsum(sizes)])
        ms = np.fromiter((ev.timestamp_ms for ev in events), dtype=np.int64, count=len(events))
        begin = np.repeat(starts[:-1], sizes)  # the index of each event's case start
        at = np.arange(len(events))
        previous = np.maximum(at - 1, begin)
        ends = starts[trace_of] + ks
        reach = starts[:-1].copy()
        np.maximum.at(reach, trace_of, ends)  # one past each trace's longest prefix
        inside = at < np.repeat(reach, sizes)
        return cls(events, starts, ms, ms[previous], ms[begin], trace_of, ks, ends, inside)

    def codes(self, vocab: Vocabulary, attribute: str | None = None) -> np.ndarray:
        """The int64 index in ``vocab`` of each event's activity or, with
        ``attribute``, of its value of that attribute: -1 where it holds
        none, and at every event outside ``inside``, which no input reads.
        Built in one pass on first read for each vocabulary, and kept; a
        label of an event inside that lies outside ``vocab`` is an
        ``UnknownLabelError``."""
        key = (attribute, vocab.labels)
        found = self._codes.get(key)
        if found is None:
            events, taken = self.events, np.flatnonzero(self.inside).tolist()
            found = np.full(len(events), -1, dtype=np.int64)
            if attribute is None:
                found[taken] = vocab.indices((events[i].activity for i in taken), len(taken))
            else:
                held = [i for i in taken if attribute in events[i].attributes]
                found[held] = vocab.indices((events[i].attributes[attribute] for i in held), len(held))
            self._codes[key] = found
        return found

    def last_codes(self, vocab: Vocabulary, m: int) -> np.ndarray:
        """(N, m) int64: row i holds the :meth:`codes` of prefix i's last
        ``min(m, ks[i])`` activities, right-aligned after -1 in the empty slots."""
        back = np.arange(m, 0, -1)  # how far before its prefix's end each slot reads
        at = np.where(self.ks[:, None] >= back, self.ends[:, None] - back, -1)
        return np.append(self.codes(vocab), -1)[at]


def suffix_ids(columns: Sequence[np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For n = 1 .. len(columns), of rows whose codes ``columns[j][row]``
    (codes >= -1, as :meth:`FlatPrefixes.last_codes` holds them, read from
    the right) go back at least n places: those rows, one dense id per
    distinct tuple of their first n codes, ascending with the tuples read
    from ``columns[0]`` on, and the first row of each id. Row r goes back
    n places when ``columns[j][r] >= 0`` for every j < n. Each id stays
    below the number of rows, so tuples of any length fit int64."""
    rows = np.arange(len(columns[0]) if columns else 0)
    ids = np.zeros(len(rows), dtype=np.int64)
    for column in columns:
        codes = column[rows]
        held = codes >= 0
        rows, codes = rows[held], codes[held]
        _, first, ids = np.unique(ids[held] * (int(codes.max(initial=0)) + 1) + codes, return_index=True,
                                  return_inverse=True)
        yield rows, ids, rows[first]


class SampleSet(Sequence[PrefixSample]):
    """An immutable sequence of prefix samples that builds on first read, and
    then keeps, what its readers share: the samples' one :class:`FlatPrefixes`
    (:attr:`flat`), one check of their prefix lengths (:meth:`check`) and their
    target columns, each equal per sample to the :class:`PrefixSample` property
    of its name (times in float64 seconds from int64 ms). The columns read
    the layout: a prefix's next event lies at its end and its trace's last
    event just before the next trace's start. Reading a column is a
    ``ValueError``, naming the case, unless ``1 <= k < len(trace)``."""

    def __init__(self, samples: Iterable[PrefixSample] = ()):
        self._samples = tuple(samples)
        self._checked = False

    @classmethod
    def of(cls, samples: Iterable[PrefixSample]) -> "SampleSet":
        """``samples`` itself if it is a set, else a set of them."""
        return samples if isinstance(samples, SampleSet) else cls(samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __getitem__(self, i):
        return SampleSet(self._samples[i]) if isinstance(i, slice) else self._samples[i]

    @cached_property
    def _traces(self) -> tuple[list[tuple[Event, ...]], np.ndarray, np.ndarray, np.ndarray]:
        """The samples' distinct traces' events, in order of first appearance,
        and per sample its trace among them, its k and that trace's length:
        what :attr:`flat` lays out, read before it by :meth:`_reject`, since
        no layout holds a k outside ``0..len(trace)``."""
        traces = {id(sample.trace): sample.trace.events for sample in self._samples}
        slots = {key: slot for slot, key in enumerate(traces)}
        trace_of = np.array([slots[id(sample.trace)] for sample in self._samples], dtype=np.int64)
        ks = np.array([sample.k for sample in self._samples], dtype=np.int64)
        sizes = np.array([len(events) for events in traces.values()], dtype=np.int64)
        return list(traces.values()), trace_of, ks, sizes[trace_of]

    @cached_property
    def flat(self) -> FlatPrefixes:
        """The samples' prefixes, in sample order, over their distinct traces
        laid out whole, in order of first appearance."""
        return FlatPrefixes.of(*self._traces[:3])

    def _reject(self, cut: int) -> None:
        """``ValueError`` naming the first sample whose k lies outside
        ``1..len(trace) - cut``: a prefix to score (cut 0) or to read targets
        of (cut 1)."""
        ks, sizes = self._traces[2:]
        bad = np.flatnonzero((ks < 1) | (ks > sizes - cut))
        if not len(bad):
            return
        sample = f"sample of case {self._samples[bad[0]].case_id!r}"
        k, n = int(ks[bad[0]]), int(sizes[bad[0]])
        if cut:
            raise ValueError(f"{sample} has no target: its prefix length {k} lies outside 1..{n - 1}")
        if k < 1:
            raise ValueError(f"{sample} has an empty prefix (k={k})")
        raise ValueError(f"{sample}: prefix length {k} exceeds its trace's length {n}")

    def check(self) -> "SampleSet":
        """This set; ``ValueError`` unless every sample's prefix holds 1 to
        all of its trace's events: the inputs a model scores or decodes from."""
        if not self._checked:
            self._reject(0)
        self._checked = True
        return self

    @cached_property
    def _targets(self) -> tuple[FlatPrefixes, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:attr:`flat`, once every sample has a next event, each sample's trace's stop, and the time columns."""
        self._reject(1)
        flat = self.flat
        ms, ends, last = flat.ms, flat.ends, flat.ends - 1
        stops = flat.starts[flat.trace_of + 1]  # one past each sample's trace
        seconds = (ms[ends] - flat.prev_ms[ends], ms[stops - 1] - ms[last], ms[last] - flat.first_ms[last])
        return flat, stops, *(gap / 1000.0 for gap in seconds)

    next_time_deltas = property(lambda self: self._targets[2])
    remaining_times = property(lambda self: self._targets[3])
    elapsed_times = property(lambda self: self._targets[4])  # from the case start to the prefix's last event

    def next_activity_indices(self, vocab) -> np.ndarray:
        """The int64 index in ``vocab`` of each sample's next activity, the
        activity at its prefix's end, which :meth:`FlatPrefixes.codes` does
        not code after a trace's longest prefix."""
        events, ends = self._targets[0].events, self.flat.ends.tolist()
        return vocab.indices((events[end].activity for end in ends), len(ends))

    @cached_property
    def suffix_activities(self) -> list[tuple[str, ...]]:
        flat, stops = self._targets[:2]
        labels = [ev.activity for ev in flat.events]
        return [tuple(labels[end:stop]) for end, stop in zip(flat.ends.tolist(), stops.tolist())]


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
