"""Finite-difference verification of every shipped architecture at desk scale
(float64, hidden sizes 4-8, short sequences). Used by the CLI gradcheck
subcommand and the acceptance suite."""

from __future__ import annotations

import numpy as np

from . import nnkernel as nn
from .eventlog import MISSING, Event, EventLog, Trace, Vocabulary, augment_eoc
from .models import TrainConfig, _reconstruction_loss, build_predictor
from .splitting import make_prefix_samples

GRADCHECK_GATE = 1e-4
GRADCHECK_ARCHITECTURES = ("mlp", "rnn", "lstm", "gru", "autoencoder")


def _tiny_samples(seed: int = 0):
    """A few short traces with varied activities, gaps and values of one
    attribute, ``res``; enough structure to exercise every parameter. The
    attribute values come from a generator of their own, so the activities
    and gaps do not depend on them."""
    rng = np.random.default_rng(seed)
    values = np.random.default_rng([seed, 1])
    acts = ("A", "B", "C")
    resources = Vocabulary((MISSING, "r1", "r2"))
    traces = []
    base = 1_600_000_000_000
    for i in range(4):
        length = 3 + int(rng.integers(0, 2))  # 3 or 4 real events, seq len <= 5 with EOC
        t = base + i * 7_200_000
        events = []
        for j in range(length):
            t += int(rng.integers(1, 5)) * 3_600_000
            res = resources.label(int(values.integers(1, 3)))
            events.append(
                Event(case_id=f"c{i}", activity=acts[int(rng.integers(0, 3))], timestamp_ms=t, attributes={"res": res})
            )
        traces.append(Trace(case_id=f"c{i}", events=tuple(events)))
    log = EventLog(traces=tuple(traces), activity_vocab=Vocabulary(acts), attribute_vocabs={"res": resources})
    log = augment_eoc(log)
    return make_prefix_samples(log), log.activity_vocab, log.attribute_vocabs


def architecture_gradcheck(arch: str, seed: int = 0) -> float:
    """Max relative gradient error of one architecture's shipped training
    loss; for the autoencoder, the larger of its fine-tune loss and its
    layerwise reconstruction loss. The lstm and gru learn an activity
    embedding, the lstm also reads a one-hot attribute, and the rnn and gru
    regress the remaining time."""
    if arch not in GRADCHECK_ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}")
    samples, vocab, attribute_vocabs = _tiny_samples(seed)
    config = TrainConfig(
        hidden=6,
        layers=2,
        time_target="remaining" if arch in ("rnn", "gru") else "next",
        embedding_dim=3 if arch in ("lstm", "gru") else None,
        attributes=("res",) if arch == "lstm" else (),
        ngram_dim=10,
        ae_hidden=(8, 5),
    )
    predictor = build_predictor(arch, config, vocab, attribute_vocabs)
    predictor.dtype = np.float64
    start, y_act, y_time = predictor._fit_arrays(samples)[0]
    X, M = start.inputs()
    rng = np.random.default_rng(seed)
    params = predictor._build_params(rng)
    error = nn.gradcheck(lambda p: predictor._batch_loss(p, X, M, y_act, y_time), params)
    if arch == "autoencoder":
        recon = {
            "We": params["enc0:W"],
            "be": params["enc0:b"],
            "Wd": nn.glorot_uniform(rng, config.ae_hidden[0], config.ngram_dim, np.float64),
            "bd": np.zeros(config.ngram_dim),
        }
        error = max(error, nn.gradcheck(lambda p: _reconstruction_loss(p, X), recon))
    return error


def all_gradchecks(seed: int = 0) -> dict[str, float]:
    return {arch: architecture_gradcheck(arch, seed) for arch in GRADCHECK_ARCHITECTURES}
