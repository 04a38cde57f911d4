"""Evaluation metrics: accuracy, multiclass Brier score, normalized
Damerau-Levenshtein similarity, MAE, and the end-to-end test protocol."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .eventlog import EOC, EventLog, SECONDS_PER_DAY
from .inference import DecodeConfig, decode_suffix
from .models import Predictor
from .splitting import make_prefix_samples

ALL_TASKS = ("next_activity", "suffix", "next_time", "remaining_time")


def accuracy(predictions: Sequence, truths: Sequence) -> float:
    """Proportion of exact label matches."""
    if len(predictions) != len(truths) or not truths:
        raise ValueError("need equal, non-zero numbers of predictions and truths")
    hits = sum(1 for p, t in zip(predictions, truths) if p == t)
    return hits / len(truths)


def brier(prob_vectors: Sequence[np.ndarray], truths: Sequence[int]) -> float:
    """Multiclass Brier score: mean over samples of the squared distance
    between the predicted distribution and the one-hot truth; range [0, 2]."""
    if len(prob_vectors) != len(truths) or not truths:
        raise ValueError("need equal, non-zero numbers of predictions and truths")
    total = 0.0
    for probs, truth in zip(prob_vectors, truths):
        probs = np.asarray(probs, dtype=np.float64)
        mass = float(probs.sum())
        if not np.isfinite(mass) or abs(mass - 1.0) > 1e-6:
            raise ValueError(f"prediction does not sum to 1: {mass!r}")
        onehot = np.zeros_like(probs)
        onehot[truth] = 1.0
        total += float(((probs - onehot) ** 2).sum())
    return total / len(truths)


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


def dl_similarity(
    predicted: Sequence[str],
    truth: Sequence[str],
    strip_eoc: bool = True,
    divisor: str = "max",
) -> float:
    """1 - distance / max(|predicted|, |truth|), in [0, 1]; both empty -> 1.

    The end-of-case terminator is a protocol artifact, not a process activity,
    so it is stripped from both sequences by default. ``divisor="mean"`` is
    available for sensitivity runs.
    """
    pred = list(predicted)
    true = list(truth)
    if strip_eoc:
        pred = [x for x in pred if x != EOC]
        true = [x for x in true if x != EOC]
    if not pred and not true:
        return 1.0
    if divisor == "max":
        denom = max(len(pred), len(true))
    elif divisor == "mean":
        denom = (len(pred) + len(true)) / 2.0
    else:
        raise ValueError(f"unknown divisor {divisor!r}")
    return 1.0 - dl_distance(pred, true) / denom


def mae(predictions: Sequence[float], truths: Sequence[float], unit: str = "days") -> float:
    """Mean absolute error; second-valued inputs are reported in days by default."""
    if len(predictions) != len(truths) or not truths:
        raise ValueError("need equal, non-zero numbers of predictions and truths")
    scale = SECONDS_PER_DAY if unit == "days" else 1.0
    total = sum(abs(p - t) for p, t in zip(predictions, truths))
    return total / len(truths) / scale


@dataclass
class MetricsReport:
    """Per-task scores with sample counts; absent tasks stay None."""

    accuracy: float | None = None
    brier: float | None = None
    dl_similarity: float | None = None
    mae_next: float | None = None
    mae_remaining: float | None = None
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
    """Evaluate a fitted model over every prefix sample of the test part.

    Suffixes are decoded per prefix with a per-sample seed derived as
    ``decode_cfg.seed XOR sample index``. The model's ``time_target`` decides
    the time tasks: a ``"next"`` model scores next time from its delta head
    and remaining time as the sum of the decoded step deltas; a
    ``"remaining"`` model scores remaining time from its direct head (the
    time value of the same ``predict`` call as next activity, clamped at 0)
    and skips next time; a model without a time head skips both.
    """
    for task in tasks:
        if task not in ALL_TASKS:
            raise ValueError(f"unknown task {task!r}")
    samples = make_prefix_samples(test, min_k)
    if not samples:
        raise ValueError("test set yields no prefix samples")
    vocab = model.activity_vocab

    pred_labels: list[str] = []
    true_labels: list[str] = []
    prob_rows: list[np.ndarray] = []
    truth_idx: list[int] = []
    sims: list[float] = []
    next_pred: list[float] = []
    next_true: list[float] = []
    rem_pred: list[float] = []
    rem_true: list[float] = []

    want_next = "next_activity" in tasks
    want_suffix = "suffix" in tasks
    want_time = "next_time" in tasks and model.time_target == "next"
    want_remaining = "remaining_time" in tasks and model.time_target is not None
    direct = model.time_target == "remaining"

    for i, sample in enumerate(samples):
        if want_next or want_time or (want_remaining and direct):
            probs, delta = model.predict(sample.prefix)
            probs = np.asarray(probs, dtype=np.float64)
            if want_next:
                pred_labels.append(vocab.label(int(np.argmax(probs))))
                true_labels.append(sample.next_activity)
                prob_rows.append(probs)
                truth_idx.append(vocab.index(sample.next_activity))
            if want_time and delta is not None:
                next_pred.append(float(delta))
                next_true.append(sample.next_time_delta)
        if want_suffix or (want_remaining and not direct):
            per_sample = replace(decode_cfg, seed=decode_cfg.seed ^ i)
            suffix_pred = decode_suffix(model, sample.prefix, per_sample)
            if want_suffix:
                sims.append(dl_similarity(suffix_pred.activities, sample.suffix_activities))
        if want_remaining:
            if direct and delta is None:
                raise ValueError("model emitted no time prediction")
            rem_pred.append(max(0.0, float(delta)) if direct else suffix_pred.remaining_time)
            rem_true.append(sample.remaining_time)

    report = MetricsReport()
    if want_next:
        report.accuracy = accuracy(pred_labels, true_labels)
        report.brier = brier(prob_rows, truth_idx)
        report.n_samples["next_activity"] = len(true_labels)
    if want_suffix:
        report.dl_similarity = sum(sims) / len(sims)
        report.n_samples["suffix"] = len(sims)
    if want_time and next_true:
        report.mae_next = mae(next_pred, next_true)
        report.n_samples["next_time"] = len(next_true)
    if want_remaining:
        report.mae_remaining = mae(rem_pred, rem_true)
        report.n_samples["remaining_time"] = len(rem_true)
    return report
