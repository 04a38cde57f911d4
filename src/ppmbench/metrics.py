"""Evaluation metrics: accuracy, multiclass Brier score, normalized
Damerau-Levenshtein similarity, MAE, and the end-to-end test protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .eventlog import EOC, EventLog, SECONDS_PER_DAY
# decode_suffix stays bound here: perfbench's tracer patches it by name
from .inference import DecodeConfig, _search, decode_suffix  # noqa: F401
from .models import Predictor
from .splitting import SampleSet, make_prefix_samples

ALL_TASKS = ("next_activity", "suffix", "next_time", "remaining_time")


def accuracy(predictions: Sequence, truths: Sequence) -> float:
    """Proportion of exact label matches."""
    if len(predictions) != len(truths) or not len(truths):
        raise ValueError("need equal, non-zero numbers of predictions and truths")
    hits = sum(1 for p, t in zip(predictions, truths) if p == t)
    return hits / len(truths)


def brier(probs, truths: Sequence[int]) -> float:
    """Multiclass Brier score, in [0, 2]: the mean over the rows of ``probs``
    of the squared distance to the one-hot truth. Python's ``sum`` adds the
    rows left to right, so the score equals that of a per-sample loop."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or len(probs) != len(truths) or not len(truths):
        raise ValueError("need equal, non-zero numbers of predictions and truths")
    off = ~(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6)  # a NaN or infinite sum is off too
    if off.any():
        raise ValueError(f"prediction does not sum to 1: {float(probs[off][0].sum())!r}")
    squared = (probs - np.eye(probs.shape[1])[truths]) ** 2
    return sum(squared.sum(axis=1).tolist()) / len(truths)


def dl_distance(a: Sequence, b: Sequence) -> int:
    """Restricted (optimal string alignment) Damerau-Levenshtein distance:
    insertions, deletions, substitutions, and adjacent transpositions."""
    m, n = len(a), len(b)
    if m == 0:
        return n
    if n == 0:
        return m
    d = [list(range(n + 1))] + [[i] + [0] * n for i in range(1, m + 1)]
    for i in range(1, m + 1):
        row, above = d[i], d[i - 1]
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            best = min(above[j] + 1, row[j - 1] + 1, above[j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                best = min(best, d[i - 2][j - 2] + 1)
            row[j] = best
    return d[m][n]


def dl_similarity(predicted: Sequence[str], truth: Sequence[str]) -> float:
    """1 - distance / max(|predicted|, |truth|), in [0, 1]; both empty -> 1.

    The end-of-case terminator is a protocol artifact, not a process activity,
    so it is stripped from both sequences.
    """
    pred = [x for x in predicted if x != EOC]
    true = [x for x in truth if x != EOC]
    if not pred and not true:
        return 1.0
    return 1.0 - dl_distance(pred, true) / max(len(pred), len(true))


def mae(predictions: Sequence[float], truths: Sequence[float], unit: str = "days") -> float:
    """Mean absolute error of second-valued inputs, reported in days
    (``unit="days"``) or in the inputs' own unit (``unit="raw"``)."""
    if unit not in ("days", "raw"):
        raise ValueError(f"unknown unit {unit!r}")
    if len(predictions) != len(truths) or not len(truths):
        raise ValueError("need equal, non-zero numbers of predictions and truths")
    scale = SECONDS_PER_DAY if unit == "days" else 1.0
    errors = np.abs(np.subtract(predictions, truths, dtype=np.float64))
    return sum(errors.tolist()) / len(truths) / scale


@dataclass
class MetricsReport:
    """Per-task scores with sample counts; absent tasks stay None."""

    accuracy: float | None = None
    brier: float | None = None
    dl_similarity: float | None = None
    mae_next: float | None = None
    mae_remaining: float | None = None
    truncated_suffixes: int | None = None  # decodes cut at max_len; never a metrics.csv row
    truncated_prefixes: int | None = None  # scored prefixes longer than the encoder window; never a metrics.csv row
    nonconforming_prefixes: int | None = None  # scored prefixes whose replay skipped an event; never a metrics.csv row
    n_samples: dict[str, int] = field(default_factory=dict)

    def as_rows(self) -> list[tuple[str, str, float, int]]:
        """(task, metric, value, n) rows for CSV emission, fixed order."""
        rows = []
        for task, metric, value in (
            ("next_activity", "accuracy", self.accuracy),
            ("next_activity", "brier", self.brier),
            ("suffix", "dl_similarity", self.dl_similarity),
            ("next_time", "mae_days", self.mae_next),
            ("remaining_time", "mae_days", self.mae_remaining),
        ):
            if value is not None:
                rows.append((task, metric, value, self.n_samples.get(task, 0)))
        return rows


def evaluate_protocol(
    model: Predictor,
    test: EventLog,
    decode_cfg: DecodeConfig,
    tasks: Sequence[str] = ALL_TASKS,
    min_k: int = 1,
) -> MetricsReport:
    """Evaluate a fitted model over every prefix sample of the test part, in
    one :class:`~ppmbench.splitting.SampleSet` that every task reads.

    The model's one start of the samples, ``model.hypotheses``, serves
    every task: its ``predict()``, as ``predict_batch`` scores, gives next
    activity and the time heads, and the ``decode_suffixes`` search from it,
    whose first step reads those same scores, decodes all their suffixes,
    sample i with the seed ``decode_cfg.seed XOR i``;
    ``truncated_suffixes`` counts those cut at the length limit, and
    ``truncated_prefixes`` the scored prefixes longer than the model's
    encoder window (None without an encoder) and ``nonconforming_prefixes``
    those whose Petri-net replay skipped an event (None without a replay),
    as the start counts them. A
    ``"next"`` model scores next time from its delta head and remaining time
    as the sum of the decoded step deltas; a ``"remaining"`` model scores
    remaining time from its direct head, clamped at 0, and skips next time; a
    model without a time head skips both.
    """
    for task in tasks:
        if task not in ALL_TASKS:
            raise ValueError(f"unknown task {task!r}")
    samples = SampleSet(make_prefix_samples(test, min_k))
    if not samples:
        raise ValueError("test set yields no prefix samples")
    n = len(samples)

    want_next = "next_activity" in tasks
    want_suffix = "suffix" in tasks
    want_time = "next_time" in tasks and model.time_target == "next"
    want_remaining = "remaining_time" in tasks and model.time_target is not None
    direct = model.time_target == "remaining"
    scoring = want_next or want_time or (want_remaining and direct)
    decoding = want_suffix or (want_remaining and not direct)

    report = MetricsReport()
    if scoring or decoding:
        start = model.hypotheses(samples.check())
        report.truncated_prefixes = start.truncated_prefixes
        report.nonconforming_prefixes = start.nonconforming_prefixes
    if scoring:
        probs, times = start.predict()
    if want_next:
        truth = samples.next_activity_indices(model.activity_vocab).tolist()
        report.accuracy = accuracy(probs.argmax(axis=1).tolist(), truth)
        report.brier = brier(probs, truth)
        report.n_samples["next_activity"] = n
    if want_time:
        scored = ~np.isnan(times)
        if scored.any():
            report.mae_next = mae(times[scored], samples.next_time_deltas[scored])
            report.n_samples["next_time"] = int(scored.sum())
    if decoding:
        decoded = _search(model, start, n, decode_cfg, (probs, times) if scoring else None)
        report.truncated_suffixes = sum(d.truncated for d in decoded)
        if want_suffix:
            sims = [dl_similarity(d.activities, suffix) for d, suffix in zip(decoded, samples.suffix_activities)]
            report.dl_similarity = sum(sims) / n
            report.n_samples["suffix"] = n
    if want_remaining:
        if not direct:
            remaining = [d.remaining_time for d in decoded]
        elif np.isnan(times).any():
            raise ValueError("model emitted no time prediction")
        else:
            remaining = np.maximum(times, 0.0)
        report.mae_remaining = mae(remaining, samples.remaining_times)
        report.n_samples["remaining_time"] = n
    return report
