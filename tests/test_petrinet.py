import itertools
import json
import pickle
from collections import Counter, deque

import numpy as np
import pytest

from ppmbench.eventlog import Event, Vocabulary
from ppmbench.petrinet import (
    PetriNet,
    TimedStateVector,
    Transition,
    _firing_sequence,
    load_petri_net,
    load_pnml,
    replay_prefixes,
    replay_timed_state,
)

from conftest import generator_log

HOUR_MS = 3_600_000


def linear_net():
    """p0 -[A]-> p1 -[B]-> p2 with one initial token in p0."""
    return PetriNet(
        places=("p0", "p1", "p2"),
        transitions=(Transition("tA", "A"), Transition("tB", "B")),
        arcs=(("p0", "tA"), ("tA", "p1"), ("p1", "tB"), ("tB", "p2")),
        initial_marking={"p0": 1},
    )


def silent_net():
    """p0 -[A]-> p1 -[tau]-> p2 -[B]-> p3; B needs the silent hop."""
    return PetriNet(
        places=("p0", "p1", "p2", "p3"),
        transitions=(Transition("tA", "A"), Transition("tau", None), Transition("tB", "B")),
        arcs=(
            ("p0", "tA"), ("tA", "p1"),
            ("p1", "tau"), ("tau", "p2"),
            ("p2", "tB"), ("tB", "p3"),
        ),
        initial_marking={"p0": 1},
    )


def evs(acts, start_ms=1_600_000_000_000, gap_ms=HOUR_MS, attrs=None):
    return tuple(
        Event(case_id="c", activity=a, timestamp_ms=start_ms + i * gap_ms, attributes=dict(attrs or {}))
        for i, a in enumerate(acts)
    )


class TestNetConstruction:
    def test_arc_must_connect_place_and_transition(self):
        with pytest.raises(ValueError):
            PetriNet(
                places=("p0", "p1"),
                transitions=(Transition("t", "A"),),
                arcs=(("p0", "p1"),),
                initial_marking={},
            )

    def test_unknown_place_in_marking(self):
        with pytest.raises(ValueError):
            PetriNet(places=("p0",), transitions=(), arcs=(), initial_marking={"ghost": 1})

    def test_negative_marking(self):
        with pytest.raises(ValueError):
            PetriNet(places=("p0",), transitions=(), arcs=(), initial_marking={"p0": -1})


class TestLoading:
    def test_json(self, tmp_path):
        payload = {
            "places": ["p0", "p1"],
            "transitions": [{"id": "t0", "label": "A"}, {"id": "t1", "label": None}],
            "arcs": [{"from": "p0", "to": "t0"}, {"from": "t0", "to": "p1"}],
            "initial_marking": {"p0": 1},
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        net = load_petri_net(path)
        assert net.places == ("p0", "p1")
        assert net.transitions[1].label is None
        assert net.initial_marking == {"p0": 1}

    def test_pnml(self, tmp_path):
        pnml = """<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="n1" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="pg">
      <place id="p0"><initialMarking><text>1</text></initialMarking></place>
      <place id="p1"/>
      <transition id="t0"><name><text>A</text></name></transition>
      <transition id="t1"/>
      <arc id="a0" source="p0" target="t0"/>
      <arc id="a1" source="t0" target="p1"/>
      <arc id="a2" source="p1" target="t1"/>
    </page>
  </net>
</pnml>
"""
        path = tmp_path / "net.pnml"
        path.write_text(pnml)
        net = load_pnml(path)
        assert net.places == ("p0", "p1")
        assert net.transitions[0].label == "A"
        assert net.transitions[1].label is None  # unnamed -> silent
        assert net.initial_marking == {"p0": 1}


class TestReplay:
    def test_empty_prefix(self):
        net = linear_net()
        at = 1_600_000_000_000
        state = replay_timed_state(net, (), at, decay_seconds=3600.0)
        assert state.marking.tolist() == [1, 0, 0]
        assert state.throughput.tolist() == [1, 0, 0]  # initial tokens counted once
        assert state.decay.tolist() == [1.0, 0.0, 0.0]  # deposited at `at` itself
        assert state.attribute_counts == {}
        assert state.nonconforming == 0

    def test_single_fire(self):
        net = linear_net()
        events = evs(["A"])
        state = replay_timed_state(net, events, events[-1].timestamp_ms, decay_seconds=3600.0)
        assert state.marking.tolist() == [0, 1, 0]
        assert state.throughput.tolist() == [1, 1, 0]
        assert state.decay[1] == 1.0  # evaluated at the firing instant
        assert state.nonconforming == 0

    def test_decay_boundary_exact_zero(self):
        net = linear_net()
        events = evs(["A"])
        fired_at = events[-1].timestamp_ms
        decay_s = 1800.0
        state = replay_timed_state(net, events, fired_at + int(decay_s * 1000), decay_s)
        assert state.decay[1] == 0.0

    def test_nonconforming_skipped_and_counted(self):
        net = linear_net()
        events = evs(["B", "Z"])  # B not enabled at start; Z unknown label
        state = replay_timed_state(net, events, events[-1].timestamp_ms, 3600.0)
        assert state.nonconforming == 2
        assert state.marking.tolist() == [1, 0, 0]  # untouched

    def test_silent_transition_bridges(self):
        net = silent_net()
        events = evs(["A", "B"])
        state = replay_timed_state(net, events, events[-1].timestamp_ms, 3600.0)
        assert state.nonconforming == 0
        assert state.marking.tolist() == [0, 0, 0, 1]
        assert state.throughput.tolist() == [1, 1, 1, 1]

    def test_attribute_counts(self):
        events = evs(["A", "B"], attrs={"res": "r1"})
        state = replay_timed_state(linear_net(), events, events[-1].timestamp_ms, 3600.0)
        assert state.attribute_counts == {"res": {"r1": 2}}

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            replay_timed_state(linear_net(), (), 0, 0.0)


class TestReplayProperties:
    def test_bounds_on_random_replays(self):
        rng = np.random.default_rng(99)
        net = linear_net()
        labels = ["A", "B", "Z"]
        for _ in range(100):
            acts = [labels[int(rng.integers(3))] for _ in range(int(rng.integers(0, 6)))]
            events = evs(acts, gap_ms=int(rng.integers(1, 50)) * 60_000)
            last = events[-1].timestamp_ms if events else 1_600_000_000_000
            at = last + int(rng.integers(0, 7200)) * 1000
            state = replay_timed_state(net, events, at, decay_seconds=3600.0)
            assert np.all(state.decay >= 0.0) and np.all(state.decay <= 1.0)
            assert np.all(state.marking >= 0)
            assert np.all(state.throughput >= 0)

    def test_decay_non_increasing_between_visits(self):
        net = linear_net()
        events = evs(["A"])
        fired_at = events[-1].timestamp_ms
        previous = 2.0
        for offset_s in range(0, 7200, 600):
            state = replay_timed_state(net, events, fired_at + offset_s * 1000, 3600.0)
            assert state.decay[1] <= previous
            previous = state.decay[1]

    def test_to_vector_with_attribute_vocabs(self):
        from ppmbench.eventlog import MISSING

        events = evs(["A"], attrs={"res": "r1"})
        state = replay_timed_state(linear_net(), events, events[-1].timestamp_ms, 3600.0)
        vocabs = {"res": Vocabulary([MISSING, "r1", "r2"])}
        vec = state.to_vector(vocabs)
        assert vec.shape == (3 * 3 + 3,)
        assert vec[-3:].tolist() == [0.0, 1.0, 0.0]
        assert vec.shape == (TimedStateVector.width(linear_net(), vocabs),)
        assert len(state.to_vector()) == TimedStateVector.width(linear_net())


class TestSilentSearchDepth:
    def test_two_silent_hops(self):
        net = PetriNet(
            places=("p0", "p1", "p2", "p3", "p4"),
            transitions=(
                Transition("tA", "A"),
                Transition("tau1", None),
                Transition("tau2", None),
                Transition("tB", "B"),
            ),
            arcs=(
                ("p0", "tA"), ("tA", "p1"),
                ("p1", "tau1"), ("tau1", "p2"),
                ("p2", "tau2"), ("tau2", "p3"),
                ("p3", "tB"), ("tB", "p4"),
            ),
            initial_marking={"p0": 1},
        )
        events = evs(["A", "B"])
        state = replay_timed_state(net, events, events[-1].timestamp_ms, 3600.0)
        assert state.nonconforming == 0
        assert state.marking.tolist() == [0, 0, 0, 0, 1]

    def test_silent_loop_terminates_and_skips(self):
        # a silent self-cycle can never enable B; the search must give up
        # within its budget and the event is skipped, not looped forever
        net = PetriNet(
            places=("p0", "p1"),
            transitions=(
                Transition("tau_fwd", None),
                Transition("tau_back", None),
                Transition("tB", "B"),
            ),
            arcs=(
                ("p0", "tau_fwd"), ("tau_fwd", "p1"),
                ("p1", "tau_back"), ("tau_back", "p0"),
                # tB needs two tokens in p1 at once, which one token can't give
                ("p1", "tB"), ("p1", "tB"),
            ),
            initial_marking={"p0": 1},
        )
        events = evs(["B"])
        state = replay_timed_state(net, events, events[-1].timestamp_ms, 3600.0)
        assert state.nonconforming == 1


# ---------------------------------------------------------------------------
# Reference replay: the earlier numpy implementation, kept verbatim apart from
# reading the arcs from the net's public fields, so the list-based replay can
# be checked byte for byte against it.
# ---------------------------------------------------------------------------

def ref_structure(net):
    place_idx = {p: i for i, p in enumerate(net.places)}
    trans_idx = {t.tid: i for i, t in enumerate(net.transitions)}
    pre = [[] for _ in net.transitions]
    post = [[] for _ in net.transitions]
    for src, dst in net.arcs:
        if src in place_idx:
            pre[trans_idx[dst]].append(place_idx[src])
        else:
            post[trans_idx[src]].append(place_idx[dst])
    pre_counts = [sorted(Counter(p).items()) for p in pre]
    silent = [i for i, t in enumerate(net.transitions) if t.label is None]
    by_label = {}
    for i, t in enumerate(net.transitions):
        if t.label is not None:
            by_label.setdefault(t.label, []).append(i)
    initial = np.zeros(len(net.places), dtype=np.int64)
    for place, count in net.initial_marking.items():
        initial[place_idx[place]] = count
    return pre, post, pre_counts, silent, by_label, initial


def ref_enabled(pre_counts, marking, t):
    return all(marking[p] >= n for p, n in pre_counts[t])


def ref_silent_path_to_enable(structure, marking, label, max_nodes=10000):
    pre, post, pre_counts, silent, by_label, _ = structure
    targets = by_label.get(label, [])
    if not targets:
        return None

    def goal(m):
        return any(ref_enabled(pre_counts, m, t) for t in targets)

    if goal(marking):
        return []
    start = tuple(int(x) for x in marking)
    queue = deque([(start, [])])
    seen = {start}
    while queue and len(seen) <= max_nodes:
        state, path = queue.popleft()
        m = np.asarray(state, dtype=np.int64)
        for t in silent:
            if not ref_enabled(pre_counts, m, t):
                continue
            nxt = m.copy()
            for p in pre[t]:
                nxt[p] -= 1
            for p in post[t]:
                nxt[p] += 1
            key = tuple(int(x) for x in nxt)
            if key in seen:
                continue
            new_path = path + [t]
            if goal(nxt):
                return new_path
            seen.add(key)
            queue.append((key, new_path))
    return None


def ref_replay_timed_state(net, events, at_ms, decay_seconds):
    structure = ref_structure(net)
    pre, post, pre_counts, _, by_label, initial = structure
    marking = initial.copy()
    throughput = marking.copy()
    last_visit = np.full(net.num_places, np.nan)
    start_ms = events[0].timestamp_ms if events else at_ms
    last_visit[marking > 0] = float(start_ms)

    nonconforming = 0
    attribute_counts = {}

    def fire(t, when_ms):
        for p in pre[t]:
            marking[p] -= 1
        for p in post[t]:
            marking[p] += 1
            throughput[p] += 1
            last_visit[p] = float(when_ms)

    for ev in events:
        for name, value in ev.attributes.items():
            attribute_counts.setdefault(name, {}).setdefault(value, 0)
            attribute_counts[name][value] += 1
        candidates = [t for t in by_label.get(ev.activity, []) if ref_enabled(pre_counts, marking, t)]
        if not candidates:
            path = ref_silent_path_to_enable(structure, marking, ev.activity)
            if path is None:
                nonconforming += 1
                continue
            for t in path:
                fire(t, ev.timestamp_ms)
            candidates = [
                t for t in by_label.get(ev.activity, []) if ref_enabled(pre_counts, marking, t)
            ]
        fire(candidates[0], ev.timestamp_ms)

    decay = np.zeros(net.num_places, dtype=np.float64)
    for p in range(net.num_places):
        if not np.isnan(last_visit[p]):
            age = (at_ms - last_visit[p]) / 1000.0
            decay[p] = min(1.0, max(0.0, 1.0 - age / decay_seconds))
    return decay, throughput, marking, attribute_counts, nonconforming


def net_of(places, transitions, arcs, initial):
    return PetriNet(
        places=tuple(places),
        transitions=tuple(Transition(tid, label) for tid, label in transitions),
        arcs=tuple(arcs),
        initial_marking=initial,
    )


def and_net():
    """A splits into two branches (B, C) that D joins."""
    return net_of(
        ["p0", "p1", "p2", "p3", "p4", "p5"],
        [("tA", "A"), ("tB", "B"), ("tC", "C"), ("tD", "D")],
        [("p0", "tA"), ("tA", "p1"), ("tA", "p2"), ("p1", "tB"), ("tB", "p3"),
         ("p2", "tC"), ("tC", "p4"), ("p3", "tD"), ("p4", "tD"), ("tD", "p5")],
        {"p0": 1},
    )


def weighted_net():
    """A puts two tokens into p1; B takes both, C one; D loops p2 back to p0."""
    return net_of(
        ["p0", "p1", "p2"],
        [("tA", "A"), ("tB", "B"), ("tC", "C"), ("tD", "D")],
        [("p0", "tA"), ("tA", "p1"), ("tA", "p1"), ("p1", "tB"), ("p1", "tB"), ("tB", "p2"),
         ("p1", "tC"), ("tC", "p2"), ("p2", "tD"), ("tD", "p0")],
        {"p0": 1},
    )


def shared_label_net():
    """Two A transitions enabled together from p0 (lowest index wins); the
    second A also fires from p3 alone. B and C loop back to p0; Z is unknown."""
    return net_of(
        ["p0", "p1", "p2", "p3"],
        [("tA1", "A"), ("tA2", "A"), ("tB", "B"), ("tC", "C"), ("tA3", "A")],
        [("p0", "tA1"), ("tA1", "p1"), ("p0", "tA2"), ("tA2", "p2"),
         ("p1", "tB"), ("tB", "p0"), ("p2", "tC"), ("tC", "p3"),
         ("p3", "tA3"), ("tA3", "p0")],
        {"p0": 1},
    )


def silent_choice_net():
    """Silent moves route p0 to the B or C branch; a silent loop returns;
    two initial tokens."""
    return net_of(
        ["p0", "p1", "p2", "p3"],
        [("tau1", None), ("tau2", None), ("tB", "B"), ("tC", "C"), ("tau3", None), ("tA", "A")],
        [("p0", "tau1"), ("tau1", "p1"), ("p0", "tau2"), ("tau2", "p2"),
         ("p1", "tB"), ("tB", "p3"), ("p2", "tC"), ("tC", "p3"),
         ("p3", "tau3"), ("tau3", "p0"), ("p3", "tA"), ("tA", "p0")],
        {"p0": 2},
    )


def budget_net():
    """A silent generator adds a token to p1 at every firing; B needs p2,
    which nothing fills, so its search runs out of budget; C needs 5 tokens."""
    return net_of(
        ["p0", "p1", "p2", "p3"],
        [("gen", None), ("tB", "B"), ("tC", "C")],
        [("p0", "gen"), ("gen", "p0"), ("gen", "p1"), ("p2", "tB"), ("tB", "p3")]
        + [("p1", "tC")] * 5 + [("tC", "p3")],
        {"p0": 1},
    )


def all_sequences(labels, max_len):
    seqs = [()]
    for n in range(1, max_len + 1):
        seqs.extend(itertools.product(labels, repeat=n))
    return seqs


def assert_state_is(state, reference, context):
    """``state`` holds exactly what ``ref_replay_timed_state`` returned;
    ``context`` names the case in a failure."""
    decay, throughput, marking, counts, nonconforming = reference
    for name, got, want in (
        ("decay", state.decay, decay),
        ("throughput", state.throughput, throughput),
        ("marking", state.marking, marking),
    ):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, context)
    assert state.attribute_counts == counts, context
    assert state.nonconforming == nonconforming, context


class TestReplayMatchesReference:
    DECAY_S = 4 * 3600.0

    def assert_same(self, net, events, at_ms, decay_s):
        state = replay_timed_state(net, events, at_ms, decay_s)
        assert_state_is(state, ref_replay_timed_state(net, events, at_ms, decay_s), events)

    def check_prefix(self, net, events, decay_s):
        last = events[-1].timestamp_ms if events else 1_600_000_000_000
        self.assert_same(net, events, last, decay_s)
        self.assert_same(net, events, last + int(decay_s * 1000) + 1, decay_s)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generator_log_prefixes(self, seed):
        log, net = generator_log(seed, 400)
        decay_s = 30 * 86400.0
        for trace in log.traces:
            for k in range(len(trace.events) + 1):
                self.check_prefix(net, trace.events[:k], decay_s)

    @pytest.mark.parametrize(
        "make_net, labels",
        [
            (and_net, "ABCDZ"),
            (weighted_net, "ABCD"),
            (shared_label_net, "ABCZ"),
            (silent_choice_net, "ABC"),
            (linear_net, "ABZ"),
            (silent_net, "AB"),
        ],
    )
    def test_hand_built_nets(self, make_net, labels):
        net = make_net()
        for acts in all_sequences(labels, 4):
            self.check_prefix(net, evs(acts, attrs={"res": "r1"}), self.DECAY_S)

    def test_search_budget(self):
        net = budget_net()
        for acts in ((), ("B",), ("C", "B", "C")):
            self.check_prefix(net, evs(acts), self.DECAY_S)
        state = replay_timed_state(net, evs(["B", "C"]), 0, self.DECAY_S)
        assert state.nonconforming == 1  # B: no path within the budget; C: five silent steps

    def test_budget_boundary(self):
        # C needs five silent steps: small budgets cut the search where the
        # reference's does, larger ones find the same path
        net = budget_net()
        structure = ref_structure(net)
        found = []
        for max_nodes in range(10):
            want = ref_silent_path_to_enable(structure, structure[-1], "C", max_nodes)
            got = _firing_sequence(net, net.initial_vector(), "C", max_nodes)
            assert got == (None if want is None else want + [2]), max_nodes
            found.append(got is not None)
        assert found == [False] * 5 + [True] * 5


def state_bytes(state):
    return (
        state.decay.dtype, state.decay.tobytes(), state.throughput.dtype, state.throughput.tobytes(),
        state.marking.dtype, state.marking.tobytes(), state.attribute_counts, state.nonconforming,
    )


class TestReplayPrefixes:
    """One replay per trace gives, at each requested k, the state the
    reference replay of ``events[:k]`` reports at the k-th event, byte for
    byte, whatever the order of ``ks`` and whatever the net's memo holds."""

    DECAY_S = 4 * 3600.0

    def check(self, net, events, decay_s, *orders):
        """Replays ``events`` once per order of prefix lengths; returns the
        states of the last order."""
        reference = {}
        for ks in orders:
            states = replay_prefixes(net, events, ks, decay_s)
            assert len(states) == len(ks)
            for k, state in zip(ks, states):
                if k not in reference:
                    at_ms = events[k - 1].timestamp_ms
                    reference[k] = ref_replay_timed_state(net, events[:k], at_ms, decay_s)
                assert_state_is(state, reference[k], (events, ks, k))
        return states

    @staticmethod
    def orders(n, rng):
        """Ascending, shuffled, and drawn with repeats."""
        ascending = list(range(1, n + 1))
        shuffled = [int(k) for k in rng.permutation(ascending)]
        repeated = [int(k) for k in rng.choice(ascending, size=2 * n)]
        return ascending, shuffled, repeated

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generator_log_traces(self, seed):
        log, net = generator_log(seed, 400)
        rng = np.random.default_rng(seed)
        for trace in log.traces:
            self.check(net, trace.events, 30 * 86400.0, *self.orders(len(trace.events), rng))

    @pytest.mark.parametrize(
        "make_net, labels",
        [
            (and_net, "ABCDZ"),
            (weighted_net, "ABCD"),
            (shared_label_net, "ABCZ"),
            (silent_choice_net, "ABC"),
            (linear_net, "ABZ"),
            (silent_net, "AB"),
        ],
    )
    def test_hand_built_nets(self, make_net, labels):
        net = make_net()
        rng = np.random.default_rng(0)
        for acts in all_sequences(labels, 4)[1:]:
            self.check(net, evs(acts, attrs={"res": "r1"}), self.DECAY_S, *self.orders(len(acts), rng))

    def test_search_budget(self):
        net = budget_net()
        states = self.check(net, evs(["B", "C", "B", "C"]), self.DECAY_S, [4, 1, 2, 3, 2])
        assert [s.nonconforming for s in states] == [2, 1, 1, 2, 1]  # each B; each C takes five silent steps
        assert net._sequences[((1, 0, 0, 0), "B")] is None  # an exhausted search is kept too

    def test_cold_and_warm_memo_agree(self):
        log, net = generator_log(2, 200)
        assert net._sequences == {}
        cold = [list(map(state_bytes, self.check(net, t.events, self.DECAY_S, range(1, len(t) + 1))))
                for t in log.traces]
        entries = len(net._sequences)
        assert entries > 0
        copy = pickle.loads(pickle.dumps(net))  # a --jobs worker receives the memo with the net
        for replaying in (net, copy):
            warm = [
                list(map(state_bytes, replay_prefixes(replaying, t.events, range(1, len(t) + 1), self.DECAY_S)))
                for t in log.traces
            ]
            assert warm == cold
            assert len(replaying._sequences) == entries

    def test_nets_in_turn_share_no_entry(self):
        # the three nets have three places and start at (1, 0, 0), so a memo
        # keyed on (marking, label) alone would hand one net's firing
        # sequence to another: A is transition 0 in two nets and 1 in the
        # third, and weighted_net's A puts two tokens into p1
        reordered = net_of(
            ["p0", "p1", "p2"], [("tB", "B"), ("tA", "A")],
            [("p0", "tA"), ("tA", "p1"), ("p1", "tB"), ("tB", "p2")], {"p0": 1},
        )
        nets = [linear_net(), reordered, weighted_net()]
        for acts in all_sequences("AB", 3)[1:]:
            for net in nets:
                self.check(net, evs(acts), self.DECAY_S, range(1, len(acts) + 1))
        assert [net._sequences[((1, 0, 0), "A")] for net in nets] == [[0], [1], [0]]
        assert [net._sequences.get(((0, 1, 0), "B")) for net in nets] == [[1], [0], None]

    def test_prefix_lengths_must_lie_in_the_trace(self):
        events = evs("AB")
        assert replay_prefixes(linear_net(), events, [], self.DECAY_S) == []
        for ks in ([0], [3], [1, 3]):
            with pytest.raises(ValueError, match="prefix length"):
                replay_prefixes(linear_net(), events, ks, self.DECAY_S)
        with pytest.raises(ValueError, match="decay_seconds"):
            replay_prefixes(linear_net(), events, [1], 0.0)
