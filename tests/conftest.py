"""Shared fixtures and helpers: the ticketing-log excerpt, synthetic process
logs, and deterministic stub predictors."""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ppmbench.eventlog import Event, EventLog, Trace, Vocabulary, augment_eoc, parse_csv
from ppmbench.petrinet import PetriNet, load_petri_json

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


@pytest.fixture
def linear_log() -> EventLog:
    return augment_eoc(make_linear_log())


class FixedDistributionModel:
    """Stub predictor that always emits the same distribution; useful for
    decode-strategy tests."""

    time_target = "next"

    def __init__(self, vocab: Vocabulary, probs, delta: float = 3600.0):
        self.activity_vocab = vocab
        self.probs = np.asarray(probs, dtype=np.float64)
        self.delta = delta

    def predict(self, events):
        return self.probs.copy(), self.delta


class HashedRandomModel:
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
