"""Shared fixtures and helpers: the ticketing-log excerpt, synthetic process
logs, deterministic stub predictors, and reference model inputs."""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ppmbench.eventlog import MISSING, Event, EventLog, Trace, Vocabulary, augment_eoc, parse_csv
from ppmbench.models import EventHypotheses, Predictor
from ppmbench.petrinet import PetriNet, load_petri_json
from ppmbench.splitting import SampleSet

TABLE1_CSV = """case_id,activity,timestamp,Resource
Case2118,Assign seriousness,14-01-2010 07:52:50,Resource 2
Case2118,Take in charge ticket,09-02-2010 13:01:11,Resource 21
Case2118,Resolve ticket,17-02-2010 07:44:53,Resource 21
Case2118,Closed,17-02-2020 07:44:59,Resource 21
Case2088,Assign seriousness,04-02-2010 08:37:45,Resource 2
Case2088,Take in charge ticket,04-02-2010 09:01:28,Resource 2
Case2088,Create SW anomaly,04-02-2010 09:01:35,Resource 2
Case2088,Resolve ticket,16-03-2010 13:08:40,Resource 2
Case2088,Closed,31-03-2010 11:08:53,Resource 5
"""


@pytest.fixture
def table1_csv() -> str:
    return TABLE1_CSV


def make_linear_log(
    n_traces: int = 200,
    acts: tuple[str, ...] = ("A", "B", "C", "D"),
    gap_s: int = 86400,
    start_ms: int = 1_500_000_000_000,
    stagger_ms: int = 3_600_000,
) -> EventLog:
    """Deterministic process: every case runs the same activity chain with
    fixed gaps; case start times are staggered so the chronological split is
    unambiguous."""
    traces = []
    for i in range(n_traces):
        base = start_ms + i * stagger_ms
        events = tuple(
            Event(case_id=f"c{i}", activity=a, timestamp_ms=base + j * gap_s * 1000)
            for j, a in enumerate(acts)
        )
        traces.append(Trace(case_id=f"c{i}", events=events))
    return EventLog(traces=tuple(traces), activity_vocab=Vocabulary(sorted(set(acts))))


def make_random_log(rng: np.random.Generator, n_traces: int, n_acts: int = 4) -> EventLog:
    """Random traces over a small alphabet with random positive gaps."""
    labels = [chr(ord("A") + i) for i in range(n_acts)]
    traces = []
    for i in range(n_traces):
        t = 1_500_000_000_000 + int(rng.integers(0, 10_000)) * 60_000
        events = []
        for _ in range(int(rng.integers(1, 6))):
            events.append(
                Event(
                    case_id=f"c{i}",
                    activity=labels[int(rng.integers(0, n_acts))],
                    timestamp_ms=t,
                )
            )
            t += int(rng.integers(1, 72)) * 3_600_000
        traces.append(Trace(case_id=f"c{i}", events=tuple(events)))
    return EventLog(traces=tuple(traces), activity_vocab=Vocabulary(labels))


@functools.cache
def _perfbench_generator():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generator.py"
    spec = importlib.util.spec_from_file_location("perfbench_generator", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def generator_log(seed: int, cases: int) -> tuple[EventLog, PetriNet]:
    """An EOC-augmented log from the benchmark's Helpdesk-shaped generator
    (a Resource attribute, whole-second timestamps), with its Petri net."""
    generator = _perfbench_generator()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        generator.write_csv(generator.generate(seed, cases), path)
        log = parse_csv(path)
    return augment_eoc(log), load_petri_json(generator.petri_net_json())


def prefix_activities(sample) -> tuple[str, ...]:
    """The activity labels of a prefix sample's events."""
    return tuple(e.activity for e in sample.prefix)


def flat_labels(flat) -> list[str]:
    """The activity label of each event of a ``FlatPrefixes`` layout."""
    return [ev.activity for ev in flat.events]


def markov_tables(predictor) -> list[dict[tuple[str, ...], tuple[Counter, float]]]:
    """A fitted Markov model's parameters read as label-keyed tables, one per
    order: each context's labels, in the parameters' row order, map to its
    next-activity counts by class index and its delta sum."""
    labels, tables = predictor.activity_vocab.labels, []
    for j in range(predictor.config.order + 1):
        contexts, counts, sums = (predictor.params[f"o{j}:{name}"] for name in ("contexts", "counts", "delta_sums"))
        tables.append({
            tuple(labels[c] for c in context): (Counter({k: n for k, n in enumerate(row) if n}), delta_sum)
            for context, row, delta_sum in zip(contexts.tolist(), counts.tolist(), sums.tolist())
        })
    return tables


def last_labels(flat, vocab, m) -> list[tuple[str, ...]]:
    """The labels of each prefix's last ``m`` activity codes of a layout."""
    return [tuple(vocab.label(c) for c in row if c >= 0) for row in flat.last_codes(vocab, m).tolist()]


@pytest.fixture
def linear_log() -> EventLog:
    return augment_eoc(make_linear_log())


class EventPredictor(Predictor):
    """Base of the stub predictors, which define ``predict(events)``: their
    start, which ``hypotheses`` and the default ``predict_batch`` read,
    scores each prefix or hypothesis with one ``predict`` call, as event
    tuples."""

    def _start(self, samples):
        return EventHypotheses(self, [s.prefix for s in samples])


class FixedDistributionModel(EventPredictor):
    """Stub predictor that always emits the same distribution; useful for
    decode-strategy tests."""

    time_target = "next"

    def __init__(self, vocab: Vocabulary, probs, delta: float = 3600.0):
        self.activity_vocab = vocab
        self.probs = np.asarray(probs, dtype=np.float64)
        self.delta = delta

    def predict(self, events):
        return self.probs.copy(), self.delta


class HashedRandomModel(EventPredictor):
    """Deterministic pseudo-random predictor: the distribution is a pure
    function of (seed, prefix activities), so decoding is reproducible."""

    time_target = "next"

    def __init__(self, vocab: Vocabulary, seed: int):
        self.activity_vocab = vocab
        self.seed = seed

    def predict(self, events):
        acts = "\x1f".join(e.activity for e in events).encode("utf-8")
        digest = hashlib.blake2b(
            acts, digest_size=8, key=self.seed.to_bytes(8, "little")
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        probs = rng.dirichlet(np.ones(len(self.activity_vocab)))
        return probs, float(rng.uniform(60.0, 86400.0))


# ---------------------------------------------------------------------------
# Model inputs: a model's start, and references that do not run it on the
# whole sample set. ``ref_batch_inputs`` is the per-trace encode that the flat
# pass replaced: it encodes each trace's prefixes alone, then argsorts the
# rows into sample order.
# ---------------------------------------------------------------------------

def start_inputs(model, samples):
    """The inputs ``X`` and mask ``M`` (None for none) of the model's start of
    ``samples``, every row cut from it."""
    return model._start(SampleSet.of(samples)).inputs()


class DenseInputs:
    """Inputs ``X`` and mask ``M`` (None for none) held whole, as each model
    held its sample sets' before its batches and blocks cut their own: what
    ``_infer`` and ``_blocked_outputs`` read of hypotheses. ``ids`` is
    nonzero where the mask is set, all that a recurrent model's
    ``_batch_lengths`` reads of it."""

    def __init__(self, X, M):
        self.X, self.M = X, M
        self.ids = None if M is None else M.astype(np.int32)

    def __len__(self):
        return len(self.X)

    def inputs(self, idx=slice(None)):
        return self.X[idx], None if self.M is None else self.M[idx]


def ref_encode_trace(encoder, events, ks):
    events = events[: max(ks)]
    ms = np.fromiter((ev.timestamp_ms for ev in events), dtype=np.int64, count=len(events))
    attributes = [
        [vocab.index(ev.attributes.get(name, MISSING)) for name, vocab in encoder.attribute_vocabs.items()]
        for ev in events
    ]
    rows = encoder.encode_rows(
        np.array([encoder.activity_vocab.index(ev.activity) for ev in events]),
        np.array(attributes, dtype=np.int64),
        ms,
        np.concatenate([ms[:1], ms[:-1]]),
        ms[:1],
    )
    rows = np.concatenate([np.zeros((1, rows.shape[1])), rows])
    ids = encoder.windows(np.asarray(ks) + 1, ks)
    return rows[ids], ids != 0


def ref_batch_inputs(model, samples):
    by_trace = {}
    for i, sample in enumerate(samples):
        by_trace.setdefault(id(sample.trace), []).append(i)
    groups = list(by_trace.values())
    parts = [ref_encode_trace(model.encoder, samples[g[0]].trace.events, [samples[i].k for i in g]) for g in groups]
    back = np.argsort([i for group in groups for i in group])
    X = np.concatenate([x.astype(model.dtype) for x, _ in parts])[back]
    return X, np.concatenate([m for _, m in parts])[back]


def reference_inputs(model, samples):
    """``ref_batch_inputs`` of an encoder model; for the timed-state mlp and
    the autoencoder, the inputs of each sample's start alone, stacked."""
    if model.encoder is not None:
        return ref_batch_inputs(model, samples)
    return np.concatenate([start_inputs(model, [sample])[0] for sample in samples]), None
