"""Suffix decoding: argmax, random sampling and beam search as one search over
the hypotheses of every prefix at once. Each step scores every unfinished
hypothesis in one model call, and a prefix leaves the batch when its search
ends. The recursive remaining-time pathway is
``SuffixPrediction.remaining_time``; a model trained on remaining time
reports it directly from ``predict_batch``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eventlog import EOC, Event
from .models import EventHypotheses, Predictor


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
        for name in ("beam_width", "max_len", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


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


def _check_distributions(probs: np.ndarray) -> None:
    """``ValueError`` unless each row is finite, has no entry below -1e-9
    and sums to 1 within 1e-6."""
    if probs.ndim != 2 or probs.shape[1] == 0:
        raise ValueError("model output is not a probability vector")
    mass = probs.sum(axis=1)
    off = ~(np.abs(mass - 1.0) <= 1e-6) | (probs < -1e-9).any(axis=1)  # a NaN or infinite sum is off too
    if off.any():
        raise ValueError(f"model output is not a distribution (sum={float(mass[off][0])!r})")


@dataclass
class _Hypothesis:
    """A partial suffix: the chosen vocabulary indices, their time deltas,
    the summed log-probability, and, while unfinished, its row in the
    model's hypotheses."""

    tokens: tuple[int, ...]
    deltas: tuple[float, ...]
    log_prob: float
    finished: bool
    row: int


def _best_children(probs, order, log_prob: float, length: int, width: int) -> list[tuple[int, float]]:
    """(token, log-probability) of the ``width`` best one-token extensions
    of a hypothesis, ranked by score (log-probability / ``length``)
    descending, then token. ``order`` lists the tokens by descending
    probability, along which the score cannot rise, so the walk stops at the
    first score below the ``width``-th, past any tie that rounding made."""
    kept = []
    for idx in order.tolist():
        child = log_prob + math.log(max(float(probs[idx]), 1e-300))
        if len(kept) >= width and child / length < kept[width - 1][0]:
            break
        kept.append((child / length, idx, child))
    kept.sort(key=lambda c: (-c[0], c[1]))
    return [(idx, child) for _, idx, child in kept[:width]]


def decode_suffixes(
    model: Predictor, prefixes: Sequence[Sequence[Event]], cfg: DecodeConfig
) -> list[SuffixPrediction]:
    """Decode the activity suffix of each prefix, as :func:`decode_suffix`
    does, in one search over the hypotheses of all of them; prefix i draws
    from its own generator, seeded by ``cfg.seed ^ i``.

    Each step makes one call over every unfinished hypothesis: ``predict``
    of ``model.hypotheses`` (which a neural model batches), or one
    ``model.predict`` per hypothesis for a model that is not a
    :class:`Predictor`. One vectorised check then rejects any row that is not
    a distribution with ``ValueError``.
    """
    prefixes = [tuple(p) for p in prefixes]
    if not all(prefixes):
        raise ValueError("cannot decode from an empty prefix")
    if not prefixes:
        return []
    eoc = model.activity_vocab.index(EOC)
    width = cfg.beam_width if cfg.strategy == "beam" else 1
    if cfg.strategy == "random":
        rngs = [np.random.default_rng(cfg.seed ^ i) for i in range(len(prefixes))]

    def rank(h: _Hypothesis) -> tuple:
        score = h.log_prob / len(h.tokens) if cfg.length_normalize and h.tokens else h.log_prob
        return (-score, h.tokens)

    rows = model.hypotheses(prefixes) if isinstance(model, Predictor) else EventHypotheses(model, prefixes)
    beams = [[_Hypothesis((), (), 0.0, False, i)] for i in range(len(prefixes))]
    for _ in range(cfg.max_len):
        probs, times = rows.predict()
        _check_distributions(probs)
        step_deltas = np.nan_to_num(times, nan=0.0) if model.time_target == "next" else np.zeros(len(probs))
        if cfg.strategy == "beam":
            order = np.argsort(-probs, axis=1, kind="stable")
        elif cfg.strategy == "argmax":
            choice = probs.argmax(axis=1)
        survivors: list[_Hypothesis] = []
        for i, beam in enumerate(beams):
            if all(h.finished for h in beam):
                continue
            candidates = []
            for h in beam:
                if h.finished:
                    candidates.append(h)
                    continue
                r = h.row
                if cfg.strategy == "beam":
                    length = len(h.tokens) + 1 if cfg.length_normalize else 1
                    children = _best_children(probs[r], order[r], h.log_prob, length, width)
                else:
                    idx = int(choice[r]) if cfg.strategy == "argmax" else int(
                        rngs[i].choice(probs.shape[1], p=probs[r] / probs[r].sum())
                    )
                    children = [(idx, h.log_prob + math.log(max(float(probs[r, idx]), 1e-300)))]
                delta = float(step_deltas[r])
                candidates.extend(
                    _Hypothesis(h.tokens + (idx,), h.deltas + (delta,), lp, idx == eoc, r) for idx, lp in children
                )
            candidates.sort(key=rank)
            beams[i] = candidates[:width]
            survivors += [h for h in beams[i] if not h.finished]  # candidates of this step: rows of their parents
        if not survivors:
            break
        rows = rows.extend(
            [h.row for h in survivors], [h.tokens[-1] for h in survivors], [h.deltas[-1] for h in survivors]
        )
        for row, h in enumerate(survivors):
            h.row = row
    results = []
    for beam in beams:
        best = min(beam, key=lambda h: (not h.finished, *rank(h)))
        results.append(
            SuffixPrediction(
                activities=tuple(model.activity_vocab.label(i) for i in best.tokens),
                time_deltas=best.deltas,
                remaining_time=sum(best.deltas),
                cumulative_log_prob=best.log_prob,
                truncated=not best.finished,
            )
        )
    return results


def decode_suffix(model: Predictor, prefix: Sequence[Event], cfg: DecodeConfig) -> SuffixPrediction:
    """Decode the activity suffix of a prefix with the configured strategy.

    One search serves every strategy. Each step predicts for every
    unfinished hypothesis and scores its candidates: argmax the most probable
    label (ties go to the lowest vocabulary index; seed-independent), random
    one draw from the full distribution of a generator seeded by
    ``cfg.seed``, beam the ``beam_width`` best labels of each hypothesis
    (no other label could survive pruning). The search then keeps the
    ``beam_width`` best candidates (1 for argmax and random), ranked by score
    descending, then by lowest token sequence; finished hypotheses stay in
    the running. Only the unfinished survivors get their predicted event,
    which takes the previous timestamp plus the predicted delta and the
    missing-marker for all attributes. Decoding stops when every hypothesis
    has reached the end-of-case label or after ``max_len`` steps; the best
    finished hypothesis wins over any unfinished one, which is flagged
    truncated. This is the one-prefix call of :func:`decode_suffixes`.
    """
    return decode_suffixes(model, [prefix], cfg)[0]
