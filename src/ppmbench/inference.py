"""Suffix decoding (argmax, random sampling, beam search) and remaining-time
computation, recursive or direct."""

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


def decode_suffix(model: Predictor, prefix: Sequence[Event], cfg: DecodeConfig) -> SuffixPrediction:
    """Decode the activity suffix of a prefix with the configured strategy.

    Every step re-encodes the extended prefix: the predicted event takes the
    previous timestamp plus the predicted delta and the missing-marker for all
    attributes. Decoding stops at the end-of-case label or after ``max_len``
    steps (then flagged truncated). Argmax breaks ties toward the lowest
    vocabulary index and is seed-independent; random draws from the full
    distribution of a generator seeded by ``cfg.seed``.
    """
    events = tuple(prefix)
    if not events:
        raise ValueError("cannot decode from an empty prefix")
    attr_names = tuple(events[-1].attributes)
    if cfg.strategy == "beam":
        return _beam_decode(model, events, cfg, attr_names)

    rng = np.random.default_rng(cfg.seed) if cfg.strategy == "random" else None
    activities: list[str] = []
    deltas: list[float] = []
    log_prob = 0.0
    vocab = model.activity_vocab
    for _ in range(cfg.max_len):
        probs, delta = model.predict(events)
        _check_distribution(probs)
        if cfg.strategy == "argmax":
            choice = int(np.argmax(probs))
        else:
            choice = int(rng.choice(len(probs), p=probs / probs.sum()))
        label = vocab.label(choice)
        step_delta = float(delta) if (delta is not None and model.time_target == "next") else 0.0
        activities.append(label)
        deltas.append(step_delta)
        log_prob += _log(float(probs[choice]))
        if label == EOC:
            return SuffixPrediction(
                activities=tuple(activities),
                time_deltas=tuple(deltas),
                remaining_time=sum(deltas),
                cumulative_log_prob=log_prob,
            )
        events = _extend(events, label, step_delta, attr_names)
    return SuffixPrediction(
        activities=tuple(activities),
        time_deltas=tuple(deltas),
        remaining_time=sum(deltas),
        cumulative_log_prob=log_prob,
        truncated=True,
    )


@dataclass
class _Beam:
    events: tuple[Event, ...]
    tokens: tuple[int, ...]
    deltas: tuple[float, ...]
    log_prob: float
    finished: bool


def _beam_score(beam: _Beam, length_normalize: bool) -> float:
    if length_normalize and beam.tokens:
        return beam.log_prob / len(beam.tokens)
    return beam.log_prob


def _beam_decode(model, events, cfg, attr_names) -> SuffixPrediction:
    vocab = model.activity_vocab
    eoc_idx = vocab.index(EOC)
    beams = [_Beam(events=events, tokens=(), deltas=(), log_prob=0.0, finished=False)]
    for _ in range(cfg.max_len):
        if all(b.finished for b in beams):
            break
        candidates: list[_Beam] = []
        for beam in beams:
            if beam.finished:
                candidates.append(beam)
                continue
            probs, delta = model.predict(beam.events)
            _check_distribution(probs)
            step_delta = float(delta) if (delta is not None and model.time_target == "next") else 0.0
            for idx in range(len(probs)):
                tokens = beam.tokens + (idx,)
                lp = beam.log_prob + _log(float(probs[idx]))
                if idx == eoc_idx:
                    candidates.append(
                        _Beam(beam.events, tokens, beam.deltas + (step_delta,), lp, True)
                    )
                else:
                    candidates.append(
                        _Beam(
                            _extend(beam.events, vocab.label(idx), step_delta, attr_names),
                            tokens,
                            beam.deltas + (step_delta,),
                            lp,
                            False,
                        )
                    )
        # deterministic pruning: score descending, then lowest token sequence
        candidates.sort(key=lambda b: (-_beam_score(b, cfg.length_normalize), b.tokens))
        beams = candidates[: cfg.beam_width]
    best = min(
        beams, key=lambda b: (not b.finished, -_beam_score(b, cfg.length_normalize), b.tokens)
    )
    return SuffixPrediction(
        activities=tuple(vocab.label(i) for i in best.tokens),
        time_deltas=best.deltas,
        remaining_time=sum(best.deltas),
        cumulative_log_prob=best.log_prob,
        truncated=not best.finished,
    )


def remaining_time_recursive(suffix_pred: SuffixPrediction) -> float:
    """Remaining time as the sum of the predicted step deltas, the
    end-of-case step included."""
    return float(sum(suffix_pred.time_deltas))


def remaining_time_direct(model: Predictor, prefix: Sequence[Event]) -> float:
    """Single-regression remaining time, inverse-normalized, clamped at >= 0.

    Requires a model trained with the remaining-time target.
    """
    if model.time_target != "remaining":
        raise ValueError("model was not trained with a remaining-time head")
    _, value = model.predict(prefix)
    if value is None:
        raise ValueError("model emitted no time prediction")
    return max(0.0, float(value))
