"""Petri nets: JSON/PNML loading and timed-state token replay."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections import Counter, deque
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .eventlog import Event, Vocabulary
from .splitting import FlatPrefixes


@dataclass(frozen=True)
class Transition:
    tid: str
    label: str | None = None  # None marks a silent transition


@dataclass
class PetriNet:
    """Place/transition net with an initial marking.

    Arcs are (source id, target id) pairs and must connect a place with a
    transition. Transition order is significant: when several transitions
    carry the same label, replay fires the enabled one with the lowest index.
    """

    places: tuple[str, ...]
    transitions: tuple[Transition, ...]
    arcs: tuple[tuple[str, str], ...]
    initial_marking: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        place_idx = {p: i for i, p in enumerate(self.places)}
        trans_idx = {t.tid: i for i, t in enumerate(self.transitions)}
        if len(place_idx) != len(self.places):
            raise ValueError("duplicate place ids")
        if len(trans_idx) != len(self.transitions):
            raise ValueError("duplicate transition ids")
        self._place_idx = place_idx
        pre: list[Counter[int]] = [Counter() for _ in self.transitions]
        post: list[Counter[int]] = [Counter() for _ in self.transitions]
        for src, dst in self.arcs:
            if src in place_idx and dst in trans_idx:
                pre[trans_idx[dst]][place_idx[src]] += 1
            elif src in trans_idx and dst in place_idx:
                post[trans_idx[src]][place_idx[dst]] += 1
            else:
                raise ValueError(f"arc ({src!r}, {dst!r}) does not connect a place and a transition")
        for place, count in self.initial_marking.items():
            if place not in place_idx:
                raise ValueError(f"initial marking references unknown place {place!r}")
            if count < 0:
                raise ValueError(f"negative initial marking for {place!r}")
        # (place, tokens) per transition; repeated arcs move that many tokens
        self._pre = [sorted(c.items()) for c in pre]
        self._post = [sorted(c.items()) for c in post]
        self._silent = [i for i, t in enumerate(self.transitions) if t.label is None]
        self._by_label: dict[str, list[int]] = {}
        for i, t in enumerate(self.transitions):
            if t.label is not None:
                self._by_label.setdefault(t.label, []).append(i)
        self._table = _ReplayTable(self)

    @property
    def num_places(self) -> int:
        return len(self.places)

    def initial_vector(self) -> list[int]:
        marking = [0] * len(self.places)
        for place, count in self.initial_marking.items():
            marking[self._place_idx[place]] = count
        return marking

    def enabled(self, marking: Sequence[int], t: int) -> bool:
        return all(marking[p] >= n for p, n in self._pre[t])


def load_petri_json(source: str | Path | Mapping) -> PetriNet:
    """Load a net from the JSON shape ``{places, transitions, arcs, initial_marking}``."""
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        data = source
    return PetriNet(
        places=tuple(data["places"]),
        transitions=tuple(
            Transition(tid=t["id"], label=t.get("label")) for t in data["transitions"]
        ),
        arcs=tuple((a["from"], a["to"]) for a in data["arcs"]),
        initial_marking={k: int(v) for k, v in data.get("initial_marking", {}).items()},
    )


def load_pnml(source: str | Path) -> PetriNet:
    """Load the PNML subset: net/place/transition/arc elements, initialMarking text.

    Transitions without a name text are treated as silent.
    """
    root = ET.fromstring(Path(source).read_text(encoding="utf-8"))

    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    places: list[str] = []
    transitions: list[Transition] = []
    arcs: list[tuple[str, str]] = []
    marking: dict[str, int] = {}
    for node in root.iter():
        tag = local(node.tag)
        if tag == "place":
            pid = node.attrib["id"]
            places.append(pid)
            for sub in node.iter():
                if local(sub.tag) == "initialMarking":
                    text = "".join(t.text or "" for t in sub.iter() if local(t.tag) == "text")
                    if text.strip():
                        marking[pid] = int(text.strip())
        elif tag == "transition":
            label = None
            for sub in node.iter():
                if local(sub.tag) == "name":
                    text = "".join(t.text or "" for t in sub.iter() if local(t.tag) == "text")
                    label = text.strip() or None
                    break
            transitions.append(Transition(tid=node.attrib["id"], label=label))
        elif tag == "arc":
            arcs.append((node.attrib["source"], node.attrib["target"]))
    return PetriNet(
        places=tuple(places),
        transitions=tuple(transitions),
        arcs=tuple(arcs),
        initial_marking=marking,
    )


def load_petri_net(path: str | Path) -> PetriNet:
    path = Path(path)
    if path.suffix.lower() == ".pnml" or path.suffix.lower() == ".xml":
        return load_pnml(path)
    return load_petri_json(path)


@dataclass
class TimedStateVector:
    """Replay state of a net: decay values, token throughput, marking,
    attribute-value occurrence counts, plus the count of skipped events."""

    decay: np.ndarray  # in [0, 1] per place
    throughput: np.ndarray  # tokens that passed through each place
    marking: np.ndarray  # current tokens per place
    attribute_counts: dict[str, dict[str, int]]
    nonconforming: int = 0

    def to_vector(self, attribute_vocabs: Mapping[str, Vocabulary] | None = None) -> np.ndarray:
        """Flatten to one feature vector; attribute counts need vocabularies."""
        parts = [self.decay, self.throughput.astype(np.float64), self.marking.astype(np.float64)]
        for name, vocab in (attribute_vocabs or {}).items():
            counts = np.zeros(len(vocab), dtype=np.float64)
            for value, count in self.attribute_counts.get(name, {}).items():
                counts[vocab.index(value)] = count
            parts.append(counts)
        return np.concatenate(parts)

    @staticmethod
    def width(net: PetriNet, attribute_vocabs: Mapping[str, Vocabulary] | None = None) -> int:
        """Length of :meth:`to_vector` for a replay of ``net``."""
        return 3 * net.num_places + sum(len(v) for v in (attribute_vocabs or {}).values())


def _fire(net: PetriNet, marking: list[int], t: int) -> list[tuple[int, int]]:
    """Fire transition ``t`` on ``marking`` in place; returns the
    (place, tokens) pairs it put into places."""
    for p, n in net._pre[t]:
        marking[p] -= n
    for p, n in net._post[t]:
        marking[p] += n
    return net._post[t]


def _firing_sequence(
    net: PetriNet, marking: list[int], label: str, max_nodes: int = 10000
) -> list[int] | None:
    """Transitions that replay one ``label`` event: the shortest silent
    sequence after which a ``label`` transition is enabled, then the
    lowest-index enabled one.

    Breadth-first over markings, expanding silent transitions in index order,
    so the result is deterministic. Returns None when the label has no
    transition or no sequence exists within the search budget.
    """
    targets = net._by_label.get(label)
    if not targets:
        return None

    def labelled(m: Sequence[int]) -> int | None:
        return next((t for t in targets if net.enabled(m, t)), None)

    t = labelled(marking)
    if t is not None:
        return [t]
    start = tuple(marking)
    queue: deque[tuple[tuple[int, ...], list[int]]] = deque([(start, [])])
    seen = {start}
    while queue and len(seen) <= max_nodes:
        state, path = queue.popleft()
        for s in net._silent:
            if not net.enabled(state, s):
                continue
            nxt = list(state)
            _fire(net, nxt, s)
            key = tuple(nxt)
            if key in seen:
                continue
            t = labelled(key)
            if t is not None:
                return path + [s, t]
            seen.add(key)
            queue.append((key, path + [s]))
    return None


SKIPPED, START = 0, 1  # effect ids: an event that replay skips, a case start
REPLAY_ROWS = 1024  # rows per block of replay_states' array pass, which bounds its (rows, places) arrays


def _append(table: np.ndarray, n: int, row) -> np.ndarray:
    """``table`` with ``row`` written at index ``n``; its capacity doubles when full."""
    if n == len(table):
        table = np.concatenate([table, np.zeros_like(table)])
    table[n] = row
    return table


class _ReplayTable:
    """What replaying one event does on a net, for each (marking, label)
    pair, filled as replay reaches it; kept because the net never changes
    after construction.

    Markings are interned: ``ids`` maps each marking met to its row in
    ``markings``. ``effects`` maps (marking id, label) to (next marking id,
    effect id). Effect e adds row e of ``throughput`` to the throughput and
    visits the places of row e of ``touched``. Effect ``SKIPPED`` changes
    nothing and marks its event nonconforming; ``START`` puts the initial
    tokens at a case start."""

    def __init__(self, net: PetriNet):
        self.net = net
        initial = net.initial_vector()
        self.ids: dict[tuple[int, ...], int] = {}
        self.markings = np.zeros((16, len(initial)), dtype=np.int64)
        self.effects: dict[tuple[int, str], tuple[int, int]] = {}
        self.throughput = np.zeros((16, len(initial)), dtype=np.int64)
        self.touched = np.zeros((16, len(initial)), dtype=bool)
        self.throughput[START] = initial
        self.touched[START] = [tokens > 0 for tokens in initial]
        self.n_effects = 2
        self.initial = self._intern(tuple(initial))

    def _intern(self, marking: tuple[int, ...]) -> int:
        mid = self.ids.get(marking)
        if mid is None:
            mid = self.ids[marking] = len(self.ids)
            self.markings = _append(self.markings, mid, marking)
        return mid

    def effect(self, mid: int, label: str) -> tuple[int, int]:
        """(next marking id, effect id) of a ``label`` event at marking
        ``mid``: the firing sequence ``_firing_sequence`` gives, or
        ``SKIPPED`` without one."""
        key = (mid, label)
        found = self.effects.get(key)
        if found is None:
            marking = self.markings[mid].tolist()
            sequence = _firing_sequence(self.net, marking, label)
            if sequence is None:
                found = (mid, SKIPPED)
            else:
                delta = [0] * len(marking)
                for t in sequence:
                    for p, n in _fire(self.net, marking, t):
                        delta[p] += n
                eid = self.n_effects
                self.throughput = _append(self.throughput, eid, delta)
                self.touched = _append(self.touched, eid, [n > 0 for n in delta])
                self.n_effects += 1
                found = (self._intern(tuple(marking)), eid)
            self.effects[key] = found
        return found


@dataclass(frozen=True)
class TimedStates:
    """Replay states of S prefixes as arrays over the net's P places and the
    W values of some attribute vocabularies (one block per vocabulary, in
    its order). A place is ``visited`` once it has received a token;
    ``last_visit_ms`` is read only where it is. Decay is read at ``at_ms``.
    :meth:`decay` and :meth:`vectors` give rows ``rows`` (all by default), each as in the whole set's."""

    marking_ids: np.ndarray  # (S,) rows of the net's marking table
    throughput: np.ndarray  # (S, P) int64
    last_visit_ms: np.ndarray  # (S, P) int64
    visited: np.ndarray  # (S, P) bool
    attribute_counts: np.ndarray  # (S, W) int64
    nonconforming: np.ndarray  # (S,) int64
    at_ms: np.ndarray  # (S,) int64

    def decay(self, decay_seconds: float, rows=slice(None)) -> np.ndarray:
        """(len(rows), P) decay values: ``1 - (at - last_visit) / decay_T``
        clamped to [0, 1], and 0 for places never visited."""
        if not decay_seconds > 0:  # NaN too
            raise ValueError("decay_seconds must be positive")
        decay = (self.at_ms[rows, None] - self.last_visit_ms[rows]) / 1000.0
        decay /= decay_seconds
        np.subtract(1.0, decay, out=decay)
        np.clip(decay, 0.0, 1.0, out=decay)
        decay *= self.visited[rows]  # 0 for places never visited
        return decay

    def vectors(self, net: PetriNet, decay_seconds: float, dtype=np.float64, rows=slice(None)) -> np.ndarray:
        """(len(rows), 3P + W) rows laid out as :meth:`TimedStateVector.to_vector`,
        cast to ``dtype``."""
        places = self.throughput.shape[1]
        out = np.empty((len(self.at_ms[rows]), 3 * places + self.attribute_counts.shape[1]), dtype=dtype)
        out[:, :places] = self.decay(decay_seconds, rows)
        out[:, places : 2 * places] = self.throughput[rows]
        out[:, 2 * places : 3 * places] = net._table.markings[self.marking_ids[rows]]
        out[:, 3 * places :] = self.attribute_counts[rows]
        return out

    def step(self, net: PetriNet, rows, labels: Sequence[str], at_ms: np.ndarray, attribute_steps) -> "TimedStates":
        """The states at ``rows``, each advanced by one event: state
        ``rows[i]`` by label ``labels[i]`` at ``at_ms[i]``, adding row i of
        ``attribute_steps`` to its attribute counts; decay is then read at
        ``at_ms``."""
        table = net._table
        found = [table.effect(mid, label) for mid, label in zip(self.marking_ids[rows].tolist(), labels)]
        marking_ids, eids = np.array(found, dtype=np.int64).reshape(-1, 2).T
        touched = table.touched[eids]
        states = TimedStates(*(getattr(self, f.name)[rows] for f in fields(self)))  # fresh arrays, advanced in place
        states.throughput[...] += table.throughput[eids]
        np.copyto(states.last_visit_ms, at_ms[:, None], where=touched)
        states.visited[...] |= touched
        states.attribute_counts[...] += attribute_steps
        states.nonconforming[...] += eids == SKIPPED
        return replace(states, marking_ids=marking_ids, at_ms=at_ms)


def replay_states(
    net: PetriNet,
    flat: FlatPrefixes,
    at_ms: Sequence[int] | None = None,
    attribute_vocabs: Mapping[str, Vocabulary] | None = None,
) -> TimedStates:
    """Timed state i of prefix i of ``flat``, decay read at ``at_ms[i]``
    (None: at each prefix's last event), as ``replay_timed_state`` defines
    it; attribute counts are kept for the values of ``attribute_vocabs``
    alone, and a value outside its vocabulary is an ``UnknownLabelError``. A
    prefix of no events without ``at_ms`` is a ``ValueError``.

    Trace j's rows are a case start row, then a row for each of its events
    ``inside`` a prefix, the events replay walks. The traces are replayed in
    blocks of whole traces, each of at most ``REPLAY_ROWS`` rows (a longer
    trace is a block of its own), and each block writes the states of its
    traces' prefixes into the output arrays, so no (rows, places) array of
    the pass outgrows a block. In a block, a Python loop walks each trace's activity
    labels and looks up each one's effect in the net's ``_ReplayTable``;
    attribute hits are read from the layout's attribute codes
    (:meth:`~ppmbench.splitting.FlatPrefixes.codes`), one array write per
    attribute. Throughput, attribute and nonconforming counts are cumulative
    sums over the rows, restarted at each case start; a place's last visit
    is the running maximum of the rows that touched it, no visit when before
    the case start.
    """
    if at_ms is None and not flat.ks.all():
        raise ValueError("a prefix of no events has no last event to read its decay at")
    vocabs = list((attribute_vocabs or {}).items())
    offsets = np.cumsum([0] + [len(vocab) for _, vocab in vocabs]).tolist()
    places, n = net.num_places, len(flat.ks)
    table = net._table
    effects = table.effects
    labels = list(map(attrgetter("activity"), flat.events))
    bounds = flat.starts.tolist()
    before = np.concatenate([[0], np.cumsum(flat.inside)])  # the events inside before each event
    row_starts = before[flat.starts] + np.arange(len(bounds))  # each trace's case start row, then the row count
    walks = (flat.starts[:-1] + np.diff(before[flat.starts])).tolist()  # one past each trace's last event inside
    totals = np.empty((n, places + offsets[-1] + 1), dtype=np.int64)  # throughput, attribute and skip counts
    last_visit_ms, visited = np.empty((n, places), np.int64), np.empty((n, places), bool)
    marking_ids = np.empty(n, dtype=np.int64)
    at = flat.ms[flat.ends - 1] if at_ms is None else np.asarray(at_ms, dtype=np.int64)  # the last events, by default
    order = np.argsort(flat.trace_of, kind="stable")  # the prefixes, trace by trace
    grouped = flat.trace_of[order]
    cuts = [0]  # the first trace of each block, then the number of traces
    while cuts[-1] < len(walks):
        full = np.searchsorted(row_starts, row_starts[cuts[-1]] + REPLAY_ROWS, "right") - 1
        cuts.append(max(int(full), cuts[-1] + 1))
    for t0, t1 in zip(cuts, cuts[1:]):
        mids, eids = [], []  # the marking and the effect of each row
        for begin, walk in zip(bounds[t0:t1], walks[t0:t1]):
            mid = table.initial
            mids.append(mid)
            eids.append(START)
            for label in labels[begin:walk]:
                mid, eid = effects.get((mid, label)) or table.effect(mid, label)
                mids.append(mid)
                eids.append(eid)
        mids, eids = np.array(mids, dtype=np.int64), np.array(eids, dtype=np.int64)
        e0, e1, r0 = bounds[t0], bounds[t1], int(row_starts[t0])  # the block's events and its first row
        steps = np.zeros((len(eids) + 1, totals.shape[1]), dtype=np.int64)  # row 0 is the sum before any row
        steps[1:, :places] = table.throughput[eids]
        traces = np.repeat(np.arange(t0, t1), np.diff(flat.starts[t0 : t1 + 1]))  # the trace of each event
        for (name, vocab), offset in zip(vocabs, offsets):
            codes = flat.codes(vocab, name)[e0:e1]  # -1 outside the prefixes
            held = codes >= 0
            steps[(before[e0:e1] + traces + 2 - r0)[held], places + offset + codes[held]] = 1
        steps[1:, -1] = eids == SKIPPED
        np.cumsum(steps, axis=0, out=steps)
        sel = order[slice(*np.searchsorted(grouped, [t0, t1]))]
        trace_of = flat.trace_of[sel]
        first, rows = row_starts[trace_of] - r0, before[flat.ends[sel]] + trace_of - r0
        totals[sel] = steps[rows + 1] - steps[first]
        visits = np.where(table.touched[eids], np.arange(len(eids), dtype=np.int32)[:, None], np.int32(-1))
        np.maximum.accumulate(visits, axis=0, out=visits)
        last = visits[rows]
        visited[sel] = seen = last >= first[:, None]
        # a case start row at its trace's first event (any time for a trace walked by no prefix)
        starts = before[flat.starts[t0:t1]] - before[e0]
        ms = np.insert(flat.ms[e0:e1][flat.inside[e0:e1]], starts, np.append(flat.ms, 0)[flat.starts[t0:t1]])
        # the case starts at its first event; a prefix of no events, when it is read
        last_visit_ms[sel] = np.where(seen, np.where(flat.ks[sel, None] == 0, at[sel, None], ms[last]), 0)
        marking_ids[sel] = mids[rows]
    return TimedStates(marking_ids, totals[:, :places], last_visit_ms, visited, totals[:, places:-1], totals[:, -1], at)


def replay_timed_state(
    net: PetriNet,
    events: Sequence[Event],
    at_ms: int,
    decay_seconds: float,
) -> TimedStateVector:
    """Token-replay a prefix and report the timed state at ``at_ms``.

    Initial tokens count once toward throughput and are treated as deposited
    at the case start (the first event's timestamp; ``at_ms`` for an empty
    prefix). Firing a transition moves one token per arc; each place receiving
    a token records the firing time as its last visit. The decay value of a
    place is ``1 - (at - last_visit) / decay_T`` clamped to [0, 1], and 0 for
    places never visited. Each event fires the sequence ``_firing_sequence``
    finds; an event without one is skipped and counted as nonconforming, and
    the marking is left untouched. The state is read off :func:`replay_states`,
    with a vocabulary of every attribute value the events hold.
    """
    seen: dict[str, dict[str, None]] = {}
    for ev in events:
        for name, value in ev.attributes.items():
            seen.setdefault(name, {})[value] = None
    vocabs = {name: Vocabulary(values) for name, values in seen.items()}
    states = replay_states(net, FlatPrefixes.of([events], [0], [len(events)]), [at_ms], vocabs)
    counts = states.attribute_counts[0].tolist()
    attribute_counts = {}
    for name, vocab in vocabs.items():
        attribute_counts[name] = dict(zip(vocab.labels, counts))
        counts = counts[len(vocab) :]
    return TimedStateVector(
        decay=states.decay(decay_seconds)[0],
        throughput=states.throughput[0],
        marking=net._table.markings[states.marking_ids][0],
        attribute_counts=attribute_counts,
        nonconforming=int(states.nonconforming[0]),
    )
