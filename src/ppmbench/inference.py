"""Suffix decoding: argmax, random sampling and beam search as one search over
the hypotheses of every prefix sample at once. The live hypotheses are held
as arrays, and each step scores every unfinished one in one model call, then
ranks, prunes and extends all of them in a few array passes; a sample leaves
the arrays when its search ends. The recursive remaining-time pathway is
``SuffixPrediction.remaining_time``; a model trained on remaining time
reports it directly from ``predict_batch``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eventlog import EOC, Event
from .models import EventHypotheses, Predictor
from .splitting import PrefixSample, SampleSet, whole_prefix_sample


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


def _log_probs(p: np.ndarray) -> np.ndarray:
    """``math.log(max(p, 1e-300))`` of each entry. ``np.log`` is not used: it
    may round an entry otherwise, and the scores must not depend on it."""
    return np.fromiter(map(math.log, np.maximum(p, 1e-300).tolist()), dtype=np.float64, count=p.size)


def _contenders(probs: np.ndarray, log_prob: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, token) of every child that may rank among the ``width`` best of
    its row's parent, whose summed log-probability is ``log_prob[row]``. The
    children are screened on ``np.log``, which lies within a few ulps of
    ``math.log``; the screen keeps each row's ``width`` best and everything
    within a margin of the ``width``-th, far wider than that error, so no
    child the exact scores would keep is dropped."""
    approx = log_prob[:, None] + np.log(np.maximum(probs, 1e-300))
    width = min(width, probs.shape[1])
    kth = np.take_along_axis(approx, np.argsort(-approx, axis=1, kind="stable")[:, width - 1 : width], axis=1)
    return np.nonzero(approx >= kth - 1e-12 * (1.0 + np.abs(kth)))


def _ranked(sample: np.ndarray, score: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hypotheses ordered by sample, then by ``keys`` (the last first),
    then by score descending, then by their order here, with each one's place
    within its sample. Hypotheses are held in token-sequence order within
    each sample, so the stable sort breaks a tie as a tuple comparison does."""
    order = np.lexsort((-score, *keys, sample))
    ranked = sample[order]
    return order, np.arange(len(order)) - np.searchsorted(ranked, ranked)


def decode_suffixes(
    model: Predictor, samples: Sequence[PrefixSample], cfg: DecodeConfig
) -> list[SuffixPrediction]:
    """Decode the activity suffix of each sample's prefix, as
    :func:`decode_suffix` does, in one search over the hypotheses of all of
    them; sample i draws from its own generator, seeded by ``cfg.seed ^ i``.
    A sample with ``k < 1``, or with ``k`` beyond its trace's length, is a
    ``ValueError``.

    The live hypotheses are arrays, one entry per hypothesis: its sample,
    its tokens and time deltas, one column per step so far (padded with -1
    and 0 past its length), its summed log-probability, its length and
    whether it is finished. They are held by sample, then by token sequence,
    and the unfinished ones are the rows of the model's hypotheses in that
    order. Argmax takes each row's ``argmax``; random draws once per sample,
    the one per-sample loop of a step. Beam screens every parent's children
    on ``np.log`` and scores only those that may survive with ``math.log``;
    one stable ``np.lexsort`` by sample and score descending, over the
    candidates in token-sequence order, then keeps each sample's
    ``beam_width`` best. A sample leaves the arrays when its search ends.

    The search starts from ``model.hypotheses(samples)``, whose ``predict``
    is what ``predict_batch`` scores, and each step makes one call over every
    unfinished hypothesis: ``predict`` of the hypotheses, or one
    ``model.predict`` per hypothesis for an object that is not a
    :class:`Predictor` but has ``activity_vocab`` and ``predict(events)``.
    One vectorised check then rejects any row that is not a distribution
    with ``ValueError``.
    """
    samples = SampleSet.of(samples).check()
    if not samples:
        return []
    duck = not isinstance(model, Predictor)
    start = EventHypotheses(model, [s.prefix for s in samples]) if duck else model.hypotheses(samples)
    return _search(model, start, len(samples), cfg)


def _search(model, rows, n: int, cfg: DecodeConfig) -> list[SuffixPrediction]:
    """The search of :func:`decode_suffixes` from ``rows``, the start of its
    n samples, which the search reads and never changes."""
    vocab = model.activity_vocab
    eoc = vocab.index(EOC)
    width = cfg.beam_width if cfg.strategy == "beam" else 1
    if cfg.strategy == "random":
        rngs = [np.random.default_rng(cfg.seed ^ i) for i in range(n)]

    def score(log_prob, length):
        return log_prob / length if cfg.length_normalize else log_prob

    sample, log_prob = np.arange(n), np.zeros(n)
    tokens, deltas = np.empty((n, 0), dtype=np.int64), np.empty((n, 0))
    length, finished = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    results: list[SuffixPrediction | None] = [None] * n
    for step in range(cfg.max_len):
        probs, times = rows.predict()
        _check_distributions(probs)
        step_deltas = np.nan_to_num(times, nan=0.0) if model.time_target == "next" else np.zeros(len(probs))
        # the candidates: each child's parent (``origin``), the parent's row
        # of ``probs``, its token, summed log-probability and delta
        parents = np.flatnonzero(~finished)  # parent r scores on row r
        if cfg.strategy == "beam":
            row, token = _contenders(probs, log_prob[parents], width)
        else:
            row = np.arange(len(parents))
            if cfg.strategy == "argmax":
                token = probs.argmax(axis=1)
            else:
                draws = zip(sample[parents].tolist(), probs)
                token = np.array([rngs[i].choice(len(p), p=p / p.sum()) for i, p in draws], dtype=np.int64)
        origin, delta = parents[row], step_deltas[row]
        candidate_log_prob = log_prob[origin] + _log_probs(probs[row, token])
        if cfg.strategy == "beam":
            # finished hypotheses stay in the running, with token -1 (none
            # added). Every parent has the step's one length, and a finished
            # hypothesis is shorter or as long and differs from each parent,
            # so (origin, token) orders the candidates by token sequence
            carried = np.flatnonzero(finished)
            origin = np.concatenate([origin, carried])
            token = np.concatenate([token, np.full(len(carried), -1)])
            candidate_log_prob = np.concatenate([candidate_log_prob, log_prob[carried]])
            delta = np.concatenate([delta, np.zeros(len(carried))])
            row = np.concatenate([row, np.full(len(carried), -1)])
            canonical = np.argsort(origin * (probs.shape[1] + 1) + token + 1, kind="stable")
            scores = score(candidate_log_prob[canonical], length[origin[canonical]] + (token[canonical] >= 0))
            order, place = _ranked(sample[origin[canonical]], scores)
            kept = np.zeros(len(canonical), dtype=bool)
            kept[order[place < width]] = True
            keep = canonical[kept]
            origin, token, candidate_log_prob, delta, row = (
                a[keep] for a in (origin, token, candidate_log_prob, delta, row)
            )
        sample, log_prob = sample[origin], candidate_log_prob
        length = length[origin] + (token >= 0)
        finished = finished[origin] | (token == eoc)
        tokens = np.column_stack([tokens[origin], token])
        deltas = np.column_stack([deltas[origin], delta])
        # a sample is done when no hypothesis of it is unfinished, or at max_len
        searching = np.zeros(n, dtype=bool)
        if step < cfg.max_len - 1:
            searching[sample[~finished]] = True
        done = ~searching[sample]
        if done.any():
            index = np.flatnonzero(done)
            order, place = _ranked(sample[index], score(log_prob[index], length[index]), ~finished[index])
            best = index[order[place == 0]]
            for i, n_tokens, row_tokens, row_deltas, lp, ended in zip(
                *(a[best].tolist() for a in (sample, length, tokens, deltas, log_prob, finished))
            ):
                steps = tuple(row_deltas[:n_tokens])
                results[i] = SuffixPrediction(
                    activities=tuple(vocab.labels[t] for t in row_tokens[:n_tokens]),
                    time_deltas=steps,
                    remaining_time=sum(steps),
                    cumulative_log_prob=lp,
                    truncated=not ended,
                )
            live = np.flatnonzero(~done)
            sample, tokens, deltas, log_prob, length, finished, token, delta, row = (
                a[live] for a in (sample, tokens, deltas, log_prob, length, finished, token, delta, row)
            )
        if not len(sample):
            break
        rows = rows.extend(row[~finished], token[~finished], delta[~finished])
    return results


def decode_suffix(model: Predictor, prefix: Sequence[Event], cfg: DecodeConfig) -> SuffixPrediction:
    """Decode the activity suffix of a prefix with the configured strategy.

    One search serves every strategy. Each step predicts for every
    unfinished hypothesis and picks its children: argmax the most probable
    label (ties go to the lowest vocabulary index; seed-independent), random
    one draw from the full distribution of a generator seeded by
    ``cfg.seed``, beam every label that may rank among the hypothesis's
    ``beam_width`` best. A child's summed log-probability adds
    ``math.log(max(p, 1e-300))`` of its label's probability ``p``. The search
    then keeps the ``beam_width`` best candidates (1 for argmax and random),
    ranked by score descending, then by lowest token sequence; finished
    hypotheses stay in the running. Only the unfinished survivors get their
    predicted event, which takes the previous timestamp plus the predicted
    delta and the missing-marker for all attributes. Decoding stops when
    every hypothesis has reached the end-of-case label or after ``max_len``
    steps; the best finished hypothesis wins over any unfinished one, which
    is flagged truncated. This is :func:`decode_suffixes` of one sample that
    holds the whole prefix; an empty prefix is a ``ValueError``.
    """
    return decode_suffixes(model, [whole_prefix_sample(prefix)], cfg)[0]
