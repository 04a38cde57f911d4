"""Petri nets: JSON/PNML loading and timed-state token replay."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .eventlog import Event, Vocabulary


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
    the marking is left untouched.
    """
    if decay_seconds <= 0:
        raise ValueError("decay_seconds must be positive")
    marking = net.initial_vector()
    throughput = list(marking)
    start_ms = events[0].timestamp_ms if events else at_ms
    last_visit: list[int | None] = [start_ms if tokens > 0 else None for tokens in marking]
    nonconforming = 0
    attribute_counts: dict[str, dict[str, int]] = {}
    for ev in events:
        for name, value in ev.attributes.items():
            attribute_counts.setdefault(name, {}).setdefault(value, 0)
            attribute_counts[name][value] += 1
        sequence = _firing_sequence(net, marking, ev.activity)
        if sequence is None:
            nonconforming += 1
            continue
        for t in sequence:
            for p, n in _fire(net, marking, t):
                throughput[p] += n
                last_visit[p] = ev.timestamp_ms

    decay = [
        0.0 if visit is None
        else min(1.0, max(0.0, 1.0 - (at_ms - visit) / 1000.0 / decay_seconds))
        for visit in last_visit
    ]
    return TimedStateVector(
        decay=np.array(decay, dtype=np.float64),
        throughput=np.array(throughput, dtype=np.int64),
        marking=np.array(marking, dtype=np.int64),
        attribute_counts=attribute_counts,
        nonconforming=nonconforming,
    )
