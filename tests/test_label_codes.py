"""Integer label codes on the sample layout: the n-gram hash and the Markov
counts read them in array passes, and give the bits of the per-event loops
over label strings that they replaced, kept here as references."""

from collections import Counter

import numpy as np
import pytest

from ppmbench.encoding import _gram_code, ngram_hash_codes, ngram_hash_encode
from ppmbench.eventlog import Event, Trace, UnknownLabelError, Vocabulary
from ppmbench.models import REPLAY_CHUNK, MarkovPredictor, TrainConfig, load_predictor, save_predictor
from ppmbench.petrinet import SKIPPED, START, TimedStates, replay_states
from ppmbench.splitting import PARTS, FlatPrefixes, PrefixSample, SampleSet, make_prefix_samples, temporal_split

from conftest import flat_labels, generator_log, last_labels, markov_tables, prefix_activities


def ref_ngram_hash_prefixes(labels, ends, ks, max_n, dim, seed=0, dtype=np.float64):
    """The one-pass label loop that ``ngram_hash_prefixes`` ran: it walks the
    labels, restarting at each prefix start, and writes each row at its
    prefix's last label."""
    labels, ends, ks = tuple(labels), np.asarray(ends).tolist(), np.asarray(ks).tolist()
    resets = {end - k for end, k in zip(ends, ks)}
    rows_at: dict[int, list[int]] = {}
    for row, (end, k) in enumerate(zip(ends, ks)):
        if k:
            rows_at.setdefault(end - 1, []).append(row)
    out = np.zeros((len(ends), dim), dtype=dtype)
    vec = [0.0] * dim
    begin = 0
    for last in range(max(rows_at, default=-1) + 1):
        if last in resets:
            vec, begin = [0.0] * dim, last
        for length in range(1, min(max_n, last + 1 - begin) + 1):
            slot_hash, sign = _gram_code(labels[last + 1 - length : last + 1], seed)
            vec[slot_hash % dim] += sign
        for row in rows_at.get(last, ()):
            out[row] = vec
    return out


def ref_markov_tables(samples, vocab, order):
    """The Counter loop that ``MarkovPredictor.fit`` ran: per sample, every
    order of its last ``order`` labels counts its next activity and adds its
    next delta, contexts and classes kept in order of first appearance."""
    tables = [{} for _ in range(order + 1)]
    for sample in samples:
        labels = prefix_activities(sample)
        context = labels[max(0, len(labels) - order) :]
        target, delta = vocab.index(sample.next_activity), sample.next_time_delta
        for j in range(len(context) + 1):
            ctx = context[len(context) - j :]
            counts, delta_sum = tables[j].get(ctx) or (Counter(), 0.0)
            counts[target] += 1
            tables[j][ctx] = (counts, delta_sum + delta)
    return tables


def ref_replay_states(net, flat, attribute_vocabs):
    """The per-event loop that ``replay_states`` ran, decay read at each
    prefix's last event: it walks every event, looks up its effect and, for
    each attribute it holds, its value's column."""
    vocabs = [(name, vocab) for name, vocab in attribute_vocabs.items()]
    offsets = np.cumsum([0] + [len(vocab) for _, vocab in vocabs]).tolist()
    table = net._table
    marking_ids, effect_ids, hits = [], [], []
    bounds = flat.starts.tolist()
    for begin, stop in zip(bounds, bounds[1:]):
        mid = table.initial
        marking_ids.append(mid)
        effect_ids.append(START)
        for ev in flat.events[begin:stop]:
            mid, eid = table.effect(mid, ev.activity)
            marking_ids.append(mid)
            effect_ids.append(eid)
            for (name, vocab), offset in zip(vocabs, offsets):
                if name in ev.attributes:
                    hits += (len(effect_ids) - 1, offset + vocab.index(ev.attributes[name]))
    places, width = net.num_places, offsets[-1]
    effect_ids = np.array(effect_ids, dtype=np.int64)
    n_rows = len(effect_ids)
    steps = np.zeros((n_rows + 1, places + width + 1), dtype=np.int64)
    steps[1:, :places] = table.throughput[effect_ids]
    hits = np.array(hits, dtype=np.int64).reshape(-1, 2)
    steps[hits[:, 0] + 1, places + hits[:, 1]] = 1
    steps[1:, -1] = effect_ids == SKIPPED
    np.cumsum(steps, axis=0, out=steps)
    first = flat.starts[flat.trace_of] + flat.trace_of
    rows = flat.ends + flat.trace_of
    totals = steps[rows + 1] - steps[first]
    visits = np.where(table.touched[effect_ids], np.arange(n_rows)[:, None], -1)
    np.maximum.accumulate(visits, axis=0, out=visits)
    last = visits[rows]
    visited = last >= first[:, None]
    starts = flat.starts[:-1]
    ms = np.insert(flat.ms, starts, np.append(flat.ms, 0)[starts])
    return TimedStates(
        marking_ids=np.array(marking_ids, dtype=np.int64)[rows],
        throughput=totals[:, :places],
        last_visit_ms=np.where(visited, ms[last], 0),
        visited=visited,
        attribute_counts=totals[:, places:-1],
        nonconforming=totals[:, -1],
        at_ms=ms[rows],
    )


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def part_sample_sets(seed):
    """The generator log (with its Resource attribute), and the prefix
    samples of each split part plus a shuffled, repeated mix of all three."""
    log, _ = generator_log(seed, 80)
    split = temporal_split(log)
    parts = [make_prefix_samples(split.part(part)) for part in PARTS]
    mix = [s for samples in parts for s in samples]
    rng = np.random.default_rng(seed)
    return log, parts + [[mix[i] for i in rng.choice(len(mix), size=len(mix) // 2)]]


def edge_layout():
    """A layout with prefixes of no events, one-event traces, and a trace of no events."""
    traces = [(), evs("A"), evs("BCAB"), evs("C"), evs("AACBC")]
    trace_of = [2, 1, 2, 0, 3, 4, 2, 1, 4, 4]
    ks = [4, 1, 0, 0, 1, 5, 2, 0, 1, 3]
    return FlatPrefixes.of(traces, trace_of, ks)


def evs(labels, case="c"):
    """Events of ``labels``, a minute apart, with Resource r0 and r1 in turn."""
    return tuple(
        Event(case, a, 1_600_000_000_000 + 60_000 * i, {"Resource": f"r{i % 2}"}) for i, a in enumerate(labels)
    )


class TestNgramHashCodes:
    """Hashing codes in array passes gives the label loop's bits on every
    split part, a shuffled mix, prefixes of no events and one-event traces,
    in float64 and float32, down to one slot."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("max_n, dim", [(1, 7), (3, 64), (4, 1), (2, 16)])
    def test_every_part_and_a_shuffled_mix_hash_as_the_label_loop(self, seed, max_n, dim):
        log, sets = part_sample_sets(seed)
        vocab = log.activity_vocab
        for samples in sets:
            flat = SampleSet(samples).flat
            for dtype in (np.float64, np.float32):
                expected = ref_ngram_hash_prefixes(flat_labels(flat), flat.ends, flat.ks, max_n, dim, seed, dtype)
                coded = ngram_hash_codes(flat.codes(vocab), vocab.labels, flat.ends, flat.ks, max_n, dim, seed, dtype)
                assert same_bits(coded, expected)

    @pytest.mark.parametrize("max_n, dim", [(1, 1), (2, 5), (6, 32)])
    def test_empty_prefixes_and_one_event_traces(self, max_n, dim):
        flat = edge_layout()
        vocab = Vocabulary(["C", "A", "B"])
        for dtype in (np.float64, np.float32):
            expected = ref_ngram_hash_prefixes(flat_labels(flat), flat.ends, flat.ks, max_n, dim, 3, dtype)
            assert not expected[flat.ks == 0].any()
            coded = ngram_hash_codes(flat.codes(vocab), vocab.labels, flat.ends, flat.ks, max_n, dim, 3, dtype)
            assert same_bits(coded, expected)
        empty = FlatPrefixes.of([()], [0, 0], [0, 0])
        empty_rows = ngram_hash_codes(empty.codes(vocab), vocab.labels, empty.ends, empty.ks, 2, 4)
        assert same_bits(empty_rows, np.zeros((2, 4)))
        assert same_bits(ngram_hash_encode(["A"], max_n, dim), ref_ngram_hash_prefixes(["A"], [1], [1], max_n, dim)[0])

    def test_a_prefix_outside_the_labels_is_rejected(self):
        for ends, ks in (([3], [3]), ([1], [2]), ([1], [-1])):
            with pytest.raises(ValueError, match="outside the 2 labels"):
                ngram_hash_codes([0, 1], ["A", "B"], ends, ks, 2, 8)


class TestLayoutCodes:
    def test_codes_and_last_codes_read_the_labels(self):
        flat = edge_layout()
        vocab = Vocabulary(["C", "A", "B"])
        assert flat.codes(vocab).tolist() == [vocab.index(label) for label in flat_labels(flat)]
        assert flat.codes(vocab) is flat.codes(Vocabulary(["C", "A", "B"]))  # built once per vocabulary
        for m in (0, 1, 3, 6):
            events = [flat.events[e - k : e] for e, k in zip(flat.ends.tolist(), flat.ks.tolist())]
            expected = [tuple(ev.activity for ev in p[max(0, len(p) - m) :]) for p in events]
            assert last_labels(flat, vocab, m) == expected
        resources = Vocabulary(["r1", "r0"])
        held = [int(ev.attributes["Resource"] == "r0") for ev in flat.events]
        assert flat.codes(resources, "Resource").tolist() == held
        stripped = FlatPrefixes.of([(Event("c", "A", 0), *evs("B"))], [0], [2])
        assert stripped.codes(resources, "Resource").tolist() == [-1, 1]

    def test_an_unknown_label_is_named(self):
        flat = edge_layout()
        with pytest.raises(UnknownLabelError, match="'B'"):
            flat.codes(Vocabulary(["A", "C"]))
        with pytest.raises(UnknownLabelError, match="'r1'"):
            flat.codes(Vocabulary(["r0"]), "Resource")


class TestMarkovCounts:
    """Counting with ``np.unique`` and ``np.add.at`` builds the Counter
    loop's tables, contexts in order of first appearance and delta sums
    included, and a checkpoint reloads the same parameter bytes."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_tables_and_sidecars_equal_the_counter_loop(self, seed, tmp_path):
        log, sets = part_sample_sets(seed)
        for i, samples in enumerate(sets):
            for order in (0, 1, 2, 4):
                predictor = MarkovPredictor(log.activity_vocab, TrainConfig(order=order, alpha=0.5))
                predictor.fit(samples, [], seed=0)
                expected, tables = ref_markov_tables(samples, log.activity_vocab, order), markov_tables(predictor)
                assert [list(t) for t in tables] == [list(t) for t in expected]
                for table, ref in zip(tables, expected):
                    for (counts, delta_sum), (ref_counts, ref_sum) in zip(table.values(), ref.values()):
                        assert counts == ref_counts
                        assert type(delta_sum) is float and delta_sum.hex() == ref_sum.hex()
                save_predictor(predictor, tmp_path / f"fit{i}-{order}", seed=seed)
                loaded = load_predictor(tmp_path / f"fit{i}-{order}")
                assert loaded.params.keys() == predictor.params.keys()
                assert all(same_bits(loaded.params[k], v) for k, v in predictor.params.items())
                assert sum(tables[0][()][0].values()) == len(samples)  # the unigram holds every sample

    def test_an_unknown_label_is_named(self):
        vocab = Vocabulary(["A", "B", "[EOC]"])
        trace = Trace("c", evs("AQB"))
        predictor = MarkovPredictor(vocab, TrainConfig(order=2))
        with pytest.raises(UnknownLabelError, match="'Q'"):
            predictor.fit([PrefixSample(trace, 2)], [], seed=0)
        predictor.fit([PrefixSample(Trace("c", evs("AB")), 1)], [], seed=0)
        with pytest.raises(UnknownLabelError, match="'Q'"):
            predictor.predict_batch([PrefixSample(trace, 3)])


class TestReplayAttributeCodes:
    """Replay reads attribute hits from the layout's attribute codes and
    gives the per-event loop's states on every split part and a shuffled
    mix, whole and in ``REPLAY_CHUNK`` ranges, with about one event in four
    stripped of its attributes."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_states_equal_the_per_event_loop(self, seed):
        log, sets = part_sample_sets(seed)
        _, net = generator_log(seed, 1)
        rng = np.random.default_rng(seed)
        stripped = {}
        for samples in sets:
            for sample in samples:
                trace = sample.trace
                if id(trace) not in stripped:
                    events = tuple(Event(ev.case_id, ev.activity, ev.timestamp_ms, {} if rng.random() < 0.25 else
                                         ev.attributes) for ev in trace.events)
                    stripped[id(trace)] = Trace(trace.case_id, events)
        vocabs = {"Resource": log.attribute_vocabs["Resource"]}
        for samples in sets:
            samples = SampleSet(PrefixSample(stripped[id(s.trace)], s.k) for s in samples)
            for part in [samples] + [samples[s : s + REPLAY_CHUNK] for s in range(0, len(samples), REPLAY_CHUNK)]:
                states = replay_states(net, part.flat, None, vocabs)
                expected = ref_replay_states(net, part.flat, vocabs)
                for name in TimedStates.__dataclass_fields__:
                    assert same_bits(getattr(states, name), getattr(expected, name)), name
