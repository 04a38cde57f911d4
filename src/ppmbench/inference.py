"""Suffix decoding: argmax, random sampling and beam search as one search over
hypotheses. The recursive remaining-time pathway is
``SuffixPrediction.remaining_time``; a model trained on remaining time
reports it directly from ``predict``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eventlog import EOC, MISSING, Event
from .models import Predictor


@dataclass(frozen=True)
class DecodeConfig:
    strategy: str = "argmax"  # "argmax" | "random" | "beam"
    beam_width: int = 1
    max_len: int = 100
    seed: int = 0
    length_normalize: bool = False  # beam scoring; off = plain composed probability

    def __post_init__(self):
        if self.strategy not in ("argmax", "random", "beam"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


@dataclass(frozen=True)
class SuffixPrediction:
    """A decoded activity suffix with per-step time deltas (seconds).

    ``activities`` ends with the end-of-case label unless the length limit cut
    decoding short, in which case ``truncated`` is set. ``remaining_time`` is
    the sum of the step deltas, the end-of-case step included.
    """

    activities: tuple[str, ...]
    time_deltas: tuple[float, ...]
    remaining_time: float
    cumulative_log_prob: float
    truncated: bool = False


def _check_distribution(probs: np.ndarray) -> None:
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("model output is not a probability vector")
    mass = float(probs.sum())
    if not math.isfinite(mass) or np.any(probs < -1e-9) or abs(mass - 1.0) > 1e-6:
        raise ValueError(f"model output is not a distribution (sum={mass!r})")


def _extend(events: tuple[Event, ...], activity: str, delta: float, attr_names) -> tuple[Event, ...]:
    last = events[-1]
    predicted = Event(
        case_id=last.case_id,
        activity=activity,
        timestamp_ms=last.timestamp_ms + int(round(delta * 1000.0)),
        attributes={name: MISSING for name in attr_names},
    )
    return events + (predicted,)


def _log(p: float) -> float:
    return math.log(max(p, 1e-300))


@dataclass
class _Hypothesis:
    """A partial suffix: the prefix extended by its decoded events, the
    chosen vocabulary indices, their time deltas and the summed log-probability."""

    events: tuple[Event, ...]
    tokens: tuple[int, ...] = ()
    deltas: tuple[float, ...] = ()
    log_prob: float = 0.0
    finished: bool = False


def _choices(strategy: str, probs: np.ndarray, rng) -> Sequence[int]:
    """The vocabulary indices a hypothesis is extended by in one step."""
    if strategy == "argmax":
        return (int(np.argmax(probs)),)
    if strategy == "random":
        return (int(rng.choice(len(probs), p=probs / probs.sum())),)
    return range(len(probs))


def decode_suffix(model: Predictor, prefix: Sequence[Event], cfg: DecodeConfig) -> SuffixPrediction:
    """Decode the activity suffix of a prefix with the configured strategy.

    One search serves every strategy. Each step predicts once per unfinished
    hypothesis and scores one candidate per strategy choice: argmax the most
    probable label (ties go to the lowest vocabulary index; seed-independent),
    random one draw from the full distribution of a generator seeded by
    ``cfg.seed``, beam every label. The search then keeps the ``beam_width``
    best candidates (1 for argmax and random), ranked by score descending,
    then by lowest token sequence; finished hypotheses stay in the running.
    Only the unfinished survivors get their predicted event, which takes the
    previous timestamp plus the predicted delta and the missing-marker for
    all attributes. Decoding stops when every hypothesis has reached the
    end-of-case label or after ``max_len`` steps; the best finished
    hypothesis wins over any unfinished one, which is flagged truncated.
    """
    events = tuple(prefix)
    if not events:
        raise ValueError("cannot decode from an empty prefix")
    attr_names = tuple(events[-1].attributes)
    vocab = model.activity_vocab
    eoc = vocab.index(EOC)
    rng = np.random.default_rng(cfg.seed) if cfg.strategy == "random" else None
    width = cfg.beam_width if cfg.strategy == "beam" else 1

    def rank(h: _Hypothesis) -> tuple:
        score = h.log_prob / len(h.tokens) if cfg.length_normalize and h.tokens else h.log_prob
        return (-score, h.tokens)

    hypotheses = [_Hypothesis(events)]
    for _ in range(cfg.max_len):
        if all(h.finished for h in hypotheses):
            break
        candidates: list[_Hypothesis] = []
        for h in hypotheses:
            if h.finished:
                candidates.append(h)
                continue
            probs, delta = model.predict(h.events)
            _check_distribution(probs)
            step_delta = float(delta) if (delta is not None and model.time_target == "next") else 0.0
            for idx in _choices(cfg.strategy, probs, rng):
                candidates.append(
                    _Hypothesis(
                        h.events,
                        h.tokens + (idx,),
                        h.deltas + (step_delta,),
                        h.log_prob + _log(float(probs[idx])),
                        idx == eoc,
                    )
                )
        candidates.sort(key=rank)
        hypotheses = candidates[:width]
        for h in hypotheses:
            if not h.finished:  # a candidate of this step still holds its parent's events
                h.events = _extend(h.events, vocab.label(h.tokens[-1]), h.deltas[-1], attr_names)
    best = min(hypotheses, key=lambda h: (not h.finished, *rank(h)))
    return SuffixPrediction(
        activities=tuple(vocab.label(i) for i in best.tokens),
        time_deltas=best.deltas,
        remaining_time=sum(best.deltas),
        cumulative_log_prob=best.log_prob,
        truncated=not best.finished,
    )
