"""Model zoo behind one interface: next-activity distribution plus optional
time regression from a raw event prefix. Contains the Markov count-based
baseline, feedforward and recurrent networks, and the stacked autoencoder
classifier."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import nnkernel as nn
from .atomic import write_text_atomic
# ngram_hash_encode and replay_timed_state stay bound here: perfbench's tracer patches them by name
from .encoding import Normalizer, PrefixEncoder, ngram_hash_codes, ngram_hash_encode, ngram_hash_extend
from .eventlog import MISSING, Event, Vocabulary
from .petrinet import PetriNet, TimedStates, TimedStateVector, replay_states, replay_timed_state
from .splitting import PrefixSample, SampleSet, SplitLog, make_prefix_samples, suffix_ids, whole_prefix_sample

ARCHITECTURES = ("markov", "mlp", "rnn", "lstm", "gru", "autoencoder")
INPUT_MODES = ("padded_flat", "single_event", "timed_state")  # what the mlp reads

SIDECAR_VERSION = 2


@dataclass
class TrainConfig:
    """Hyperparameters shared by the trainable predictors; everything has a
    desk-scale default and can be overridden per model."""

    hidden: int = 64
    layers: int = 2
    batch_size: int = 32
    epochs: int = 100
    patience: int = 10
    lr: float = 0.01
    momentum: float = 0.9
    clip_norm: float | None = 5.0
    lr_decay: float = 0.5  # multiplied in when validation stalls
    lr_patience: int = 5
    time_target: str | None = "next"  # "next" | "remaining" | None
    embedding_dim: int | None = None  # None -> one-hot activities
    attributes: tuple[str, ...] = ()
    include_time: bool = True
    window: int | None = None
    max_len: int | None = None
    # mlp only
    input_mode: str = "padded_flat"  # one of INPUT_MODES
    decay_seconds: float | None = None  # timed_state horizon; None -> max train case duration
    # markov only
    order: int = 2
    alpha: float = 0.0
    # autoencoder only
    ngram_k: int = 3
    ngram_dim: int = 64
    hash_seed: int = 0
    ae_hidden: tuple[int, ...] = (32, 16)
    pretrain_epochs: int = 15
    freeze_epochs: int = 5

    def __post_init__(self):
        """Every size and count is an ``int``, not a ``bool``, in its range,
        ``attributes`` a list of names; anything else is a ``ValueError``."""
        names = self.attributes
        if not (isinstance(names, (list, tuple)) and all(isinstance(name, str) for name in names)):
            raise ValueError(f"attributes must be a list of attribute names, got {self.attributes!r}")
        if not isinstance(self.ae_hidden, (list, tuple)):
            raise ValueError(f"ae_hidden must be a list of sizes, got {self.ae_hidden!r}")
        self.attributes = tuple(self.attributes)
        self.ae_hidden = tuple(self.ae_hidden)
        if self.time_target not in (None, "next", "remaining"):
            raise ValueError(f"unknown time_target {self.time_target!r}")
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"unknown input_mode {self.input_mode!r}")

        def at_least(name, value, low):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not value >= low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")

        sizes = (
            "hidden", "layers", "epochs", "batch_size", "patience", "lr_patience", "ngram_k", "ngram_dim"
        )
        for name in sizes:
            at_least(name, getattr(self, name), 1)
        for name in ("embedding_dim", "window", "max_len"):
            if getattr(self, name) is not None:
                at_least(name, getattr(self, name), 1)
        for size in self.ae_hidden:
            at_least("ae_hidden entry", size, 1)
        for name in ("order", "pretrain_epochs", "freeze_epochs"):
            at_least(name, getattr(self, name), 0)
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if self.decay_seconds is not None and not self.decay_seconds > 0:
            raise ValueError(f"decay_seconds must be > 0, got {self.decay_seconds!r}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr!r}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be null or > 0, got {self.clip_norm!r}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must lie in (0, 1], got {self.lr_decay!r}")
        if not (type(self.hash_seed) is int and 0 <= self.hash_seed < 2**64):
            raise ValueError(f"hash_seed must be an integer in [0, 2**64), got {self.hash_seed!r}")


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch losses and the retained best epoch.

    ``wall_clock_seconds`` (the whole fit) and ``epoch_seconds`` (each epoch
    of the last training stage, its validation included) are informational
    and excluded from reproducibility comparisons (:meth:`core`); everything
    else is bit-reproducible for a fixed seed. ``grad_norms`` (each epoch's
    mean global gradient norm before clipping), ``clipped_batches`` (each
    epoch's count of batches whose gradient was clipped) and
    ``learning_rates`` (the rate each epoch ran at) describe the last SGD
    stage; they stay outside :meth:`core` too, and a model that trains no
    SGD stage (Markov) leaves them empty. ``stage_clipped_batches`` holds
    ``clipped_batches`` of each SGD stage that runs before the last one, in
    order (the autoencoder's layerwise pretraining and frozen-encoder
    stages; a stage of no epochs has ``()``); it is ``()`` for the other
    models. ``truncated_prefixes`` counts the training and validation
    prefixes longer than a ``PrefixEncoder`` model's window, whose oldest
    events its inputs leave out (None for a model without one); it stays
    outside :meth:`core` too.
    """

    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    best_epoch: int
    wall_clock_seconds: float
    epoch_seconds: tuple[float, ...]
    seed: int
    grad_norms: tuple[float, ...] = ()
    clipped_batches: tuple[int, ...] = ()
    learning_rates: tuple[float, ...] = ()
    stage_clipped_batches: tuple[tuple[int, ...], ...] = ()
    truncated_prefixes: int | None = None

    def core(self) -> dict:
        return {
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "best_epoch": self.best_epoch,
            "seed": self.seed,
        }


class Predictor:
    """Interface of training and inference; each method takes a
    :class:`~ppmbench.splitting.SampleSet` or a sequence that it wraps in one.
    ``fit`` rejects a sample with ``k`` outside 1..len(trace) - 1 (no target)
    with ``ValueError`` before it changes the predictor. A subclass turns
    samples into inputs in one place, :meth:`_start`, the hypotheses a
    decode starts from; a neural ``fit`` trains on its training set's.
    ``hypotheses`` is the start of a fitted predictor: its ``predict()``
    gives float64 activity probabilities (N, C) over the vocabulary
    (end-of-case included) and non-negative times (N,) in seconds (meaning
    set by ``time_target``; NaN for none), and ``extend(parents, tokens,
    deltas)`` steps rows ``parents`` by one decoded event each into new
    arrays, never changing the start. ``predict_batch`` is ``predict()`` of
    the start of checked samples: ``k`` outside 1..len(trace) is a
    ``ValueError``.

    A checkpoint of a model with ``params``, ``config`` and vocabularies is
    one path for every model: ``<prefix>.npz`` holds the parameters, and the
    JSON sidecar the config, the vocabularies with their ``vocab_sha256``
    and the model's :meth:`_sidecar_state`. Loading checks what every
    parameter holds, then the model's own :meth:`_load` checks the arrays
    against its config."""

    activity_vocab: Vocabulary
    time_target: str | None = None
    architecture: str = "?"

    def fit(
        self,
        train_samples: Sequence[PrefixSample],
        val_samples: Sequence[PrefixSample],
        seed: int = 0,
    ) -> TrainReport:
        raise NotImplementedError

    def predict_batch(self, samples: Sequence[PrefixSample]) -> tuple[np.ndarray, np.ndarray]:
        return self.hypotheses(SampleSet.of(samples).check()).predict()

    def hypotheses(self, samples: Sequence[PrefixSample]):
        self._check_fitted()
        return self._start(SampleSet.of(samples))

    def _check_fitted(self) -> None:
        """``RuntimeError`` unless the predictor can score: one with ``params`` once it holds some."""
        if not getattr(self, "params", True):
            raise RuntimeError("predictor used before fit()")

    def _start(self, samples: SampleSet):
        raise NotImplementedError

    def predict(self, events: Sequence[Event]) -> tuple[np.ndarray, float | None]:
        """``predict_batch`` of the sample holding ``events``: probabilities
        (C,) and time (None for none). An empty prefix is a ``ValueError``."""
        probs, times = self.predict_batch([whole_prefix_sample(events)])
        return probs[0], None if np.isnan(times[0]) else float(times[0])

    # checkpointing ---------------------------------------------------------
    def _vocab_sha256(self) -> str:
        attributes = {k: list(v.labels) for k, v in self.attribute_vocabs.items()}
        blob = json.dumps({"activities": list(self.activity_vocab.labels), "attributes": attributes}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def _sidecar_state(self) -> dict:
        """The sidecar fields of a model's own state; none by default."""
        return {}

    def _save(self, path_prefix: Path, seed: int) -> list[Path]:
        """``<prefix>.npz`` with the parameters plus the JSON sidecar; the
        directory exists."""
        npz = path_prefix.with_suffix(".npz")
        nn.save_params(npz, self.params, {"architecture": self.architecture})
        sidecar = {
            "format_version": SIDECAR_VERSION,
            "architecture": self.architecture,
            "seed": seed,
            "config": asdict(self.config),
            "activity_vocab": list(self.activity_vocab.labels),
            "attribute_vocabs": {k: list(v.labels) for k, v in self.attribute_vocabs.items()},
            "vocab_sha256": self._vocab_sha256(),
            **self._sidecar_state(),
        }
        return [npz, _write_sidecar(path_prefix, sidecar)]

    def _restore(self, sidecar: Mapping, path_prefix: Path) -> None:
        """Load what :meth:`_save` wrote into a predictor built from the
        sidecar's architecture, config and vocabularies. Vocabularies that do
        not match their ``vocab_sha256``, or a parameter that is not numeric
        or holds a NaN or an infinity, are a ``ValueError``; then
        :meth:`_load` checks the parameters against the model."""
        if sidecar.get("vocab_sha256") != self._vocab_sha256():
            raise ValueError("checkpoint vocabularies do not match their vocab_sha256")
        params, _ = nn.load_params(path_prefix.with_suffix(".npz"))
        for name in sorted(params):
            if params[name].dtype.kind not in "biuf":
                raise ValueError(f"checkpoint parameter {name!r} holds {params[name].dtype}, not numbers")
            if not np.isfinite(params[name]).all():
                raise ValueError(f"checkpoint parameter {name!r} holds a NaN or an infinity")
        self._load(sidecar, params)

    def _load(self, sidecar: Mapping, params: dict[str, np.ndarray]) -> None:
        """Take the sidecar's state and ``params``, a ``ValueError`` unless
        they are what the model's config and vocabularies build."""
        raise NotImplementedError


def _write_sidecar(path_prefix: Path, sidecar: dict) -> Path:
    path = path_prefix.with_suffix(".json")
    return write_text_atomic(path, lambda: json.dumps(sidecar, indent=2, sort_keys=True))


def _stacked(rows, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities (N, C) and times (N,), NaN for no time, of (probabilities, time) rows."""
    probs = np.array([p for p, _ in rows], dtype=np.float64)
    times = np.array([np.nan if t is None else t for _, t in rows], dtype=np.float64)
    return probs.reshape(len(rows), n_classes), times


MAX_STEP_MS = 2**53  # a decoded event lies at most this many ms after the one before it


def _decoded_ms(last_ms, deltas) -> np.ndarray:
    """Timestamps of decoded events ``deltas`` seconds after ``last_ms``: each
    step rounded to the millisecond, half to even as ``round`` does, and
    clipped to [0, ``MAX_STEP_MS``], so a huge or infinite predicted delta
    still gives an int64 timestamp."""
    steps = np.rint(np.minimum(np.asarray(deltas, dtype=np.float64), MAX_STEP_MS) * 1000.0)
    return last_ms + np.clip(steps, 0, MAX_STEP_MS).astype(np.int64)


def _extend(events: tuple[Event, ...], activity: str, delta: float) -> tuple[Event, ...]:
    """``events`` plus one decoded event ``delta`` seconds after the last, as
    :func:`_decoded_ms` places it, with every attribute missing."""
    last = events[-1]
    decoded = Event(
        case_id=last.case_id,
        activity=activity,
        timestamp_ms=int(_decoded_ms(last.timestamp_ms, [delta])[0]),
        attributes={name: MISSING for name in last.attributes},
    )
    return events + (decoded,)


class EventHypotheses:
    """Decode hypotheses kept as event tuples, each scored by one
    ``model.predict`` call: how an object that is not a :class:`Predictor`,
    but has ``activity_vocab`` and ``predict(events)``, decodes."""

    truncated_prefixes: int | None = None  # the events are read whole

    def __init__(self, model, prefixes):
        self.model = model
        self.events = [tuple(p) for p in prefixes]

    def predict(self) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities (N, C) and times (N,) of the hypotheses, NaN for no time."""
        return _stacked([self.model.predict(e) for e in self.events], len(self.model.activity_vocab))

    def extend(self, parents, tokens, deltas) -> "EventHypotheses":
        """Row j: hypothesis ``parents[j]`` extended by a decoded event with
        activity index ``tokens[j]``, ``deltas[j]`` seconds after its last event."""
        label = self.model.activity_vocab.label
        events = [_extend(self.events[p], label(t), d) for p, t, d in zip(parents, tokens, deltas)]
        return type(self)(self.model, events)


# ---------------------------------------------------------------------------
# Markov baseline (count-based oracle)
# ---------------------------------------------------------------------------

class MarkovPredictor(Predictor):
    """Backoff n-gram model over activity sequences; doubles as the
    enumeration oracle for the neural models.

    Its parameters hold, for each order ``j`` up to ``order``, the distinct
    contexts (the last ``j`` activity codes of a training prefix) in order
    of first appearance as ``o{j}:contexts`` (n, j), their next-activity
    counts ``o{j}:counts`` (n, C) int64 and their sums of next-event deltas
    ``o{j}:delta_sums`` (n,) float64. Prediction backs off from the longest
    context with observations, one order at a time down to the unigram:
    P(a | context) = (count(context, a) + alpha) / (count(context) + alpha |A|),
    and the time estimate is that context's mean delta. With no observations
    at any order the distribution is uniform (the pure-smoothing limit) and
    there is no time estimate.

    Both read the prefixes' last ``order`` activity codes
    (:meth:`~ppmbench.splitting.FlatPrefixes.last_codes`). ``fit`` groups
    each order's contexts with ``np.unique`` and adds up the counts and, in
    sample order, the deltas with ``np.add.at``. A prefix's row depends only
    on its context, so a batch runs each distinct context's walk once,
    through a memo that ``fit`` and loading clear, and gathers."""

    architecture = "markov"

    def __init__(self, activity_vocab: Vocabulary, config: TrainConfig | None = None):
        self.activity_vocab = activity_vocab
        self.attribute_vocabs: dict[str, Vocabulary] = {}
        self.config = config or TrainConfig()
        self.time_target = "next"
        self.params: dict[str, np.ndarray] = {}
        self._rows: list[dict[tuple[int, ...], int]] = [{} for _ in range(self.config.order + 1)]
        self._memo: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}

    def fit(self, train_samples, val_samples, seed=0) -> TrainReport:
        start = time.perf_counter()
        train, val = SampleSet.of(train_samples), SampleSet.of(val_samples)
        truth, val_truth = (samples.next_activity_indices(self.activity_vocab) for samples in (train, val))
        tails = train.flat.last_codes(self.activity_vocab, self.config.order)
        self._take(self._count(tails, truth, train.next_time_deltas))
        train_nll = self._mean_nll(train, truth)
        val_nll = self._mean_nll(val, val_truth) if val else train_nll
        seconds = time.perf_counter() - start
        return TrainReport(train_losses=(train_nll,), val_losses=(val_nll,), best_epoch=0,
                           wall_clock_seconds=seconds, epoch_seconds=(seconds,), seed=seed)

    def _count(self, tails: np.ndarray, truth: np.ndarray, deltas: np.ndarray) -> dict[str, np.ndarray]:
        """The parameters of samples whose last codes are ``tails`` (N, order),
        next activities ``truth`` and next deltas ``deltas``."""
        params, order = {}, tails.shape[1]
        for j, (rows, ids, first) in enumerate(_context_groups(tails)):
            ordered = np.argsort(first)  # the ids in order of first appearance
            ids, first = np.argsort(ordered)[ids], first[ordered]
            counts = np.zeros((len(first), len(self.activity_vocab)), dtype=np.int64)
            np.add.at(counts, (ids, truth[rows]), 1)
            delta_sums = np.zeros(len(first))
            np.add.at(delta_sums, ids, deltas[rows])  # in index order: the sums of a loop over the samples
            params.update({f"o{j}:contexts": tails[first, order - j :], f"o{j}:counts": counts,
                           f"o{j}:delta_sums": delta_sums})
        return params

    def _take(self, params: dict[str, np.ndarray]) -> None:
        """Hold ``params``, index each order's contexts and clear the memo."""
        self.params, self._memo = params, {}
        self._rows = [
            {context: row for row, context in enumerate(map(tuple, params[f"o{j}:contexts"].tolist()))}
            for j in range(self.config.order + 1)
        ]

    def _mean_nll(self, samples, truth) -> float:
        if not samples:
            return 0.0
        probs, _ = self.predict_batch(samples)
        picked = np.maximum(probs[np.arange(len(samples)), truth], 1e-12)
        return -sum(np.log(picked).tolist()) / len(samples)

    def _row(self, context: tuple[int, ...]) -> tuple[np.ndarray, float]:
        """Probabilities (C,) and time (NaN for none) of the backoff walk
        from a context of codes, -1 in its empty slots."""
        k, alpha = len(self.activity_vocab), float(self.config.alpha)
        context = tuple(c for c in context if c >= 0)
        for j in range(len(context), -1, -1):
            row = self._rows[j].get(context[len(context) - j :])
            if row is not None:
                counts = self.params[f"o{j}:counts"][row]
                total = int(counts.sum())
                delta_sum = float(self.params[f"o{j}:delta_sums"][row])
                return (counts + alpha) / (total + alpha * k), max(0.0, delta_sum / total)
        return np.full(k, 1.0 / k, dtype=np.float64), np.nan

    def _start(self, samples):
        return _MarkovHypotheses(self, samples.flat.last_codes(self.activity_vocab, self.config.order))

    def _load(self, sidecar, params):
        """Orders 0 .. ``order`` must each hold int64 ``contexts`` (n, j) of
        distinct codes of the vocabulary, int64 ``counts`` (n, C) >= 0 with
        at least one observation per context, and float64 ``delta_sums``
        (n,) >= 0; anything else is a ``ValueError``."""
        n_classes, names = len(self.activity_vocab), ("contexts", "counts", "delta_sums")
        expected = {f"o{j}:{name}" for j in range(self.config.order + 1) for name in names}
        if params.keys() != expected:
            raise ValueError(f"markov checkpoint holds {sorted(params)}, order {self.config.order} needs "
                             f"{sorted(expected)}")
        for j in range(self.config.order + 1):
            contexts, counts, delta_sums = (params[f"o{j}:{name}"] for name in names)
            n = contexts.shape[:1]
            for name, array, shape, dtype in zip(names, (contexts, counts, delta_sums),
                                                 (n + (j,), n + (n_classes,), n), (np.int64, np.int64, np.float64)):
                if array.shape != shape or array.dtype != dtype:
                    raise ValueError(f"markov checkpoint o{j}:{name} is {array.dtype} {array.shape}, "
                                     f"not {np.dtype(dtype)} {shape}")
            if ((contexts < 0) | (contexts >= n_classes)).any():
                raise ValueError(f"markov checkpoint o{j}:contexts holds a code outside the {n_classes} activities")
            if len(np.unique(contexts, axis=0)) < len(contexts):
                raise ValueError(f"markov checkpoint o{j}:contexts repeats a context")
            if (counts < 0).any() or (counts.sum(axis=1) < 1).any():
                raise ValueError(f"markov checkpoint o{j}:counts needs counts >= 0 and an observation per context")
            if (delta_sums < 0).any():
                raise ValueError(f"markov checkpoint o{j}:delta_sums holds a negative delta sum")
        self._take(params)


def _context_groups(tails: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For j = 0 .. m, the rows of ``tails`` (N, m) whose codes, read from
    the right, go back j places, a dense id per distinct context of j codes
    and the first row of each id: every row in one empty context at j = 0,
    then :func:`~ppmbench.splitting.suffix_ids`."""
    every = np.arange(len(tails))
    columns = [tails[:, -j] for j in range(1, tails.shape[1] + 1)]
    return [(every, np.zeros(len(every), dtype=np.int64), every[:1]), *suffix_ids(columns)]


class _MarkovHypotheses:
    """Markov decode hypotheses: each carries its context, its last
    ``order`` codes (-1 in the empty slots), stepped by one code per decoded
    event."""

    truncated_prefixes: int | None = None  # no encoder window

    def __init__(self, model: MarkovPredictor, contexts: np.ndarray):
        self.model, self.contexts = model, contexts

    def predict(self) -> tuple[np.ndarray, np.ndarray]:
        """Each distinct context's row, read from the model's memo (which a
        new context joins), gathered to the hypotheses."""
        model, memo = self.model, self.model._memo
        _, ids, first = _context_groups(self.contexts + 1)[-1]  # the empty slots count as code 0
        rows = [memo.get(c) or memo.setdefault(c, model._row(c)) for c in map(tuple, self.contexts[first].tolist())]
        probs, times = _stacked(rows, len(model.activity_vocab))
        return probs[ids], times[ids]

    def extend(self, parents, tokens, deltas) -> "_MarkovHypotheses":
        """Each parent's context shifted by its code, to the last ``order`` codes."""
        return _MarkovHypotheses(self.model, np.column_stack([self.contexts[parents], tokens])[:, 1:])


# ---------------------------------------------------------------------------
# shared neural plumbing
# ---------------------------------------------------------------------------

POOL_BATCHES = 32  # batches per length-sorted pool of a recurrent model's epoch
REPLAY_CHUNK = 256  # samples per timed-state replay pass; bounds the pass's (events, places) arrays
START_INT32 = ("throughput", "attribute_counts", "nonconforming")  # TimedStates counts a start holds narrower
ROW_BLOCK = 64  # rows per block of the forward that scores hypotheses (see _NeuralPredictor._blocked_outputs)


def _epoch_batches(rng, n_train: int, batch_size: int, lengths: np.ndarray | None = None) -> list[np.ndarray]:
    """The index batches of one epoch: consecutive slices of
    ``rng.permutation(n_train)``, or with ``lengths``, slices of it after
    each pool of ``POOL_BATCHES`` batches is sorted stably by length, run in
    the order of a second permutation drawn from ``rng``."""
    order = rng.permutation(n_train)
    if lengths is not None:
        pool = POOL_BATCHES * batch_size
        for s in range(0, n_train, pool):
            chunk = order[s : s + pool]
            order[s : s + pool] = chunk[np.argsort(lengths[chunk], kind="stable")]
    batches = [order[s : s + batch_size] for s in range(0, n_train, batch_size)]
    if lengths is None:
        return batches
    return [batches[i] for i in rng.permutation(len(batches))]


def _sgd_train(
    params: dict[str, np.ndarray],
    batch_step: Callable[[dict, np.ndarray], tuple[float, dict]],
    val_loss_fn: Callable[[dict], float] | None,
    n_train: int,
    config: TrainConfig,
    seed: int,
    lengths: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], TrainReport]:
    """Mini-batch SGD with per-epoch validation, early stopping, and
    best-validation checkpointing. Deterministic for a fixed seed. A
    non-finite batch loss or gradient norm stops training with a
    ``ValueError`` that names the epoch, before the update it would feed.
    The call's one :class:`nn.SGD` copies the parameters that the first
    batch's gradients name into one flat buffer and rebinds them in
    ``params`` to views of it; it takes each batch's gradient norm as one
    float64 dot over the concatenated gradients. The caller's arrays are
    never written, and each training stage (the autoencoder's pretraining
    and frozen-encoder stages) gets a buffer of its own. ``val_loss_fn``
    scores the parameters after each epoch (a neural model through its
    inference forward, :meth:`_NeuralPredictor._blocked_outputs`); without
    it the epoch's mean training loss stands in. Each
    ``config.lr_patience`` stalled epochs multiply the learning rate by
    ``config.lr_decay``.

    Batch order: each epoch draws one permutation of the training rows and
    cuts it into batches of ``config.batch_size``. A recurrent model, whose
    kernel steps only the columns where some row of its batch has a real
    step, passes each row's prefix length as ``lengths``: then the
    permutation is cut into pools of ``POOL_BATCHES`` batches, each pool is
    sorted stably by length before its batches are cut, and the batches run
    in a second permutation's order (see :func:`_epoch_batches`)."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    opt = nn.SGD(config.lr, config.momentum, config.clip_norm)
    train_hist: list[float] = []
    val_hist: list[float] = []
    epoch_seconds: list[float] = []
    grad_norms: list[float] = []
    clipped_batches: list[int] = []
    learning_rates: list[float] = []
    best_val = np.inf
    best_epoch = 0
    best_params = {k: v.copy() for k, v in params.items()}
    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        total = norms = 0.0
        clipped = 0
        batches = _epoch_batches(rng, n_train, config.batch_size, lengths)
        for idx in batches:
            loss, grads = batch_step(params, idx)
            if not np.isfinite(loss):
                raise ValueError(f"non-finite training loss {loss!r} in epoch {epoch}")
            try:
                norm = opt.step(params, grads)
            except ValueError as error:
                raise ValueError(f"{error} in epoch {epoch}") from error
            total += loss
            norms += norm
            clipped += opt.clip_norm is not None and norm > opt.clip_norm
        train_loss = total / max(len(batches), 1)
        train_hist.append(train_loss)
        grad_norms.append(norms / max(len(batches), 1))
        clipped_batches.append(clipped)
        learning_rates.append(opt.lr)
        val = val_loss_fn(params) if val_loss_fn is not None else train_loss
        val_hist.append(val)
        epoch_seconds.append(time.perf_counter() - epoch_start)
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
        stalled = epoch - best_epoch
        if stalled >= config.patience:
            break
        if config.lr_decay < 1.0 and stalled > 0 and stalled % config.lr_patience == 0:
            opt.lr *= config.lr_decay
    report = TrainReport(
        train_losses=tuple(train_hist),
        val_losses=tuple(val_hist),
        best_epoch=best_epoch,
        wall_clock_seconds=time.perf_counter() - start,
        epoch_seconds=tuple(epoch_seconds),
        seed=seed,
        grad_norms=tuple(grad_norms),
        clipped_batches=tuple(clipped_batches),
        learning_rates=tuple(learning_rates),
    )
    return best_params, report


class _NeuralPredictor(Predictor):
    """Encoder handling, the shared output heads, the fit/predict scaffolding,
    and the checkpoint state (encoder, time normalizer, parameter shapes)
    shared by the numpy models. Subclasses provide
    parameter construction and the body: the network that maps the inputs to
    one feature vector per row, and its backward.

    The heads read that feature vector: a softmax activity head
    (``head_act``) and, with a time target, a linear time head
    (``head_time``), trained jointly on the unweighted sum of their losses."""

    def __init__(
        self,
        activity_vocab: Vocabulary,
        attribute_vocabs: Mapping[str, Vocabulary] | None = None,
        config: TrainConfig | None = None,
    ):
        self.activity_vocab = activity_vocab
        self.attribute_vocabs = dict(attribute_vocabs or {})
        self.config = config or TrainConfig()
        self.time_target = self.config.time_target
        self.params: dict[str, np.ndarray] = {}
        self.encoder: PrefixEncoder | None = None
        self.time_norm: Normalizer | None = None
        self.dtype = np.float32

    # hooks -------------------------------------------------------------
    def _prepare(self, train: SampleSet) -> None:
        self.encoder = self._make_encoder().fit(train)

    def _build_params(self, rng) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def _pretrain(self, params, start, y_act, rng, seed: int) -> tuple[dict[str, np.ndarray], tuple]:
        """Training stages that run before the shared one on the training
        set's ``start``, and each stage's ``clipped_batches``; none by default."""
        return params, ()

    def _body(self, params, X, M):
        """Feature vectors (B, F) of a batch and the cache for the backward."""
        raise NotImplementedError

    def _body_backward(self, params, cache, dfeatures) -> dict[str, np.ndarray]:
        """Gradients of the body's parameters given the feature gradient."""
        raise NotImplementedError

    def _batch_lengths(self, hypotheses):
        """Per-row lengths of ``hypotheses`` by which :func:`_sgd_train`
        buckets the training batches and :meth:`_blocked_outputs` orders its
        blocks, or None for plain shuffled batches (the default)."""
        return None

    # shared --------------------------------------------------------------
    def _make_encoder(self) -> PrefixEncoder:
        cfg = self.config
        attr_vocabs = {name: self.attribute_vocabs[name] for name in cfg.attributes}
        return PrefixEncoder(
            self.activity_vocab,
            activity_mode="index" if cfg.embedding_dim else "onehot",
            attribute_vocabs=attr_vocabs,
            include_time=cfg.include_time,
            window=cfg.window,
            max_len=cfg.max_len,
        )

    def _fit_arrays(self, train_samples, val_samples=()):
        """Read every target of both sample sets, fit the input encoding and the time normalizer
        on the training set, and return each set's start as training holds it (the hypotheses its
        inputs are cut from, :meth:`_NeuralHypotheses.for_training`), activity indices and time targets."""
        sets, target = (SampleSet.of(train_samples), SampleSet.of(val_samples)), self.config.time_target
        if not sets[0]:
            raise ValueError("no training samples")
        y_acts = [s.next_activity_indices(self.activity_vocab) for s in sets]
        y_times = [target and (s.next_time_deltas if target == "next" else s.remaining_times) for s in sets]
        self._prepare(sets[0])
        if target is not None:
            self.time_norm = Normalizer("log").fit(y_times[0])
            y_times = [self.time_norm.transform(y_time) for y_time in y_times]
        return [(self._start(s).for_training(), y_act, y_time) for s, y_act, y_time in zip(sets, y_acts, y_times)]

    def _init_heads(self, rng, n_features: int) -> dict[str, np.ndarray]:
        n_classes = len(self.activity_vocab)
        params = {
            "head_act:W": nn.glorot_uniform(rng, n_features, n_classes, self.dtype),
            "head_act:b": np.zeros(n_classes, dtype=self.dtype),
        }
        if self.config.time_target is not None:
            params["head_time:W"] = nn.glorot_uniform(rng, n_features, 1, self.dtype)
            params["head_time:b"] = np.zeros(1, dtype=self.dtype)
        return params

    def _outputs(self, params, X, M):
        """Body then heads: activity logits, the time prediction (None
        without a time head), and the caches of both."""
        features, body_cache = self._body(params, X, M)
        logits, act_cache = nn.affine_forward(features, params["head_act:W"], params["head_act:b"])
        tpred = time_cache = None
        if "head_time:W" in params:
            tpred, time_cache = nn.affine_forward(features, params["head_time:W"], params["head_time:b"])
        return logits, tpred, (body_cache, act_cache, time_cache)

    def _head_loss(self, params, X, M, y_act, y_time):
        """Multitask loss of a batch (unweighted sum of the task losses), the
        heads' gradients, the body cache and the gradient on the features.
        The time loss counts when the model has a time head and ``y_time``
        is given."""
        logits, tpred, (body_cache, act_cache, time_cache) = self._outputs(params, X, M)
        ce, dlogits = nn.softmax_cross_entropy(logits, y_act)
        losses = [ce]
        dfeatures, act_grads = nn.affine_backward(act_cache, dlogits)
        grads = {"head_act:W": act_grads["W"], "head_act:b": act_grads["b"]}
        if tpred is not None and y_time is not None:
            mae, dtpred = nn.mae_loss(tpred[:, 0], y_time)
            losses.append(mae)
            dtime, time_grads = nn.affine_backward(time_cache, dtpred[:, None])
            dfeatures = dfeatures + dtime
            grads.update({f"head_time:{k}": v for k, v in time_grads.items()})
        return nn.combine_losses(losses), grads, body_cache, dfeatures

    def _batch_loss(self, params, X, M, y_act, y_time):
        """Training loss of one batch and its gradient for every parameter."""
        loss, grads, body_cache, dfeatures = self._head_loss(params, X, M, y_act, y_time)
        grads.update(self._body_backward(params, body_cache, dfeatures))
        return loss, grads

    def fit(self, train_samples, val_samples, seed=0) -> TrainReport:
        """Train on the start of the training samples: each batch cuts its
        inputs from it as it is read (:meth:`_NeuralHypotheses.inputs`), and
        the validation loss reads the validation start through
        :meth:`_blocked_outputs`, so no inputs of a whole sample set are held."""
        began = time.perf_counter()
        (start, y_act, y_time), (val_start, y_act_val, y_time_val) = self._fit_arrays(train_samples, val_samples)
        val_loss = None
        if len(val_start):

            def val_loss(p):  # the inference forward: no backward cache, and no padded row counts
                logits, tpred = self._blocked_outputs(p, val_start)
                losses = [nn.softmax_cross_entropy(logits, y_act_val)[0]]
                if tpred is not None and y_time_val is not None:
                    losses.append(nn.mae_loss(tpred[:, 0], y_time_val)[0])
                return nn.combine_losses(losses)

        rng = np.random.default_rng(seed)
        params, stage_clipped_batches = self._pretrain(self._build_params(rng), start, y_act, rng, seed)

        def batch_step(p, idx):
            X, M = start.inputs(idx)
            return self._batch_loss(p, X, M, y_act[idx], None if y_time is None else y_time[idx])

        self.params, report = _sgd_train(
            params, batch_step, val_loss, len(start), self.config, seed, self._batch_lengths(start)
        )
        truncated = start.truncated_prefixes
        return replace(
            report,
            wall_clock_seconds=time.perf_counter() - began,
            stage_clipped_batches=stage_clipped_batches,
            truncated_prefixes=None if truncated is None else truncated + val_start.truncated_prefixes,
        )

    def _blocked_outputs(self, params, hypotheses):
        """The activity logits and the time predictions (None without a time
        head) of the rows of ``hypotheses`` under ``params``, in the rows'
        order. The plain :meth:`_outputs` runs on consecutive blocks of
        ``ROW_BLOCK`` rows, each cut from ``hypotheses`` as it is read
        (:meth:`_NeuralHypotheses.inputs`), the last filled up with copies of
        its last row, under that row's mask, whose outputs are dropped: every
        row goes through products of one shape, so its outputs do not depend
        on the batch it came in, and a forward holds one block's inputs and
        arrays at a time. A recurrent model's rows are blocked longest first
        (a stable sort by :meth:`_batch_lengths`), so each block steps from
        about its own rows' first column, and the copies share the shortest
        row's columns. No rows give no logits and, with a time head, no
        time predictions."""
        n = len(hypotheses)
        if not n:
            empty = np.zeros((0, len(self.activity_vocab)), self.dtype)
            return empty, np.zeros((0, 1), self.dtype) if "head_time:W" in params else None
        lengths = self._batch_lengths(hypotheses)
        rows = np.arange(n) if lengths is None else np.argsort(-lengths, kind="stable")
        filled = np.append(rows, np.repeat(rows[-1:], -n % ROW_BLOCK))  # the last row repeated
        outputs = [
            self._outputs(params, *hypotheses.inputs(filled[s : s + ROW_BLOCK]))[:2] for s in range(0, n, ROW_BLOCK)
        ]
        logits = np.concatenate([logits for logits, _ in outputs])[:n]
        tpred = None if outputs[0][1] is None else np.concatenate([tpred for _, tpred in outputs])[:n]
        if lengths is not None:  # back to the rows' order
            back = np.argsort(rows)
            logits, tpred = logits[back], None if tpred is None else tpred[back]
        return logits, tpred

    def _infer(self, hypotheses):
        """The float64 softmax of the activity logits of the rows of
        ``hypotheses`` and their time predictions in seconds, clamped at 0
        (NaN without a time head), from :meth:`_blocked_outputs` under the
        fitted parameters."""
        logits, tpred = self._blocked_outputs(self.params, hypotheses)
        probs = nn.softmax(logits.astype(np.float64))
        times = np.full(len(probs), np.nan)
        if tpred is not None and self.time_norm is not None:
            times = np.fmax(0.0, self.time_norm.inverse(tpred[:, 0]))
        return probs, times

    def _start(self, samples):
        """Hypotheses that start from the samples' encoder windows, in sample
        order: the feature rows of their traces' events, encoded in one pass,
        and each window's int32 row ids (:meth:`PrefixEncoder.encode_flat`),
        from which each batch or block cuts the windows it reads; no window
        reads past its prefix. Their case starts, last timestamps and lengths
        come from the same flat event columns, so a start reads the events
        once."""
        flat = samples.flat
        last = flat.ends - 1
        rows, ids = self.encoder.encode_flat(flat, self.dtype)
        return _WindowHypotheses(self, rows, ids, flat.first_ms[last], flat.ms[last], flat.ks)

    # checkpointing ---------------------------------------------------------
    def _sidecar_state(self) -> dict:
        return {
            "encoder": self.encoder.state() if self.encoder else None,
            "time_norm": self.time_norm.state() if self.time_norm else None,
            "extra": {},
        }

    def _load(self, sidecar, params):
        """Load the encoders; a parameter whose name or shape differs from
        what the restored config builds is a ``ValueError``."""
        if sidecar.get("encoder"):
            self.encoder = PrefixEncoder.from_state(sidecar["encoder"], self.activity_vocab, self.attribute_vocabs)
        if sidecar.get("time_norm"):
            self.time_norm = Normalizer.from_state(sidecar["time_norm"])
        expected = self._build_params(np.random.default_rng(0))
        for name in sorted(expected.keys() | params.keys()):
            want = expected[name].shape if name in expected else None
            found = params[name].shape if name in params else None
            if want != found:
                raise ValueError(f"checkpoint parameter {name!r} has shape {found}, the config builds {want}")
        self.params = params


class _NeuralHypotheses:
    """Hypotheses of a neural model, scored by the model's ``_infer``:
    :meth:`inputs` gives the network inputs ``X`` and mask ``M`` (None for
    none) of some of them, here rows of the input array ``X`` that each
    carries. A start's are the inputs that ``fit`` trains on and
    ``predict_batch`` scores. A subclass carries what stepping its inputs by
    one decoded event needs, and its ``extend`` takes that step for every
    surviving hypothesis at once, into new arrays. ``truncated_prefixes``
    counts the hypotheses whose inputs leave out some of their events (None
    when the inputs read every event)."""

    truncated_prefixes: int | None = None

    def __init__(self, model, X):
        self.model, self.X = model, X

    def __len__(self) -> int:
        return len(self.X)

    def inputs(self, idx=slice(None)):
        """``X`` and ``M`` of the hypotheses ``idx`` (all by default), in that order."""
        return self.X[idx], None

    def for_training(self) -> "_NeuralHypotheses":
        """What training reads of the hypotheses, their inputs, without what
        a decode step needs (a timed-state start's replay states)."""
        return _NeuralHypotheses(self.model, self.X)

    def predict(self):
        return self.model._infer(self)


class _WindowHypotheses(_NeuralHypotheses):
    """Hypotheses of a ``PrefixEncoder`` model. They share a table of
    feature rows, whose row 0 is a zero row, and each carries its window as
    int32 ids of ``max_len`` rows of that table (0 in the padding slots), its
    case start, its last timestamp and its length; :meth:`inputs` cuts the
    windows it is asked for. ``extend`` appends each decoded event's row,
    from ``encode_rows`` as for a training prefix, to a copy of the table,
    and shifts its parent's ids left by one slot to take it; every slot
    before the last ``min(length, limit)`` is zeroed, as in ``windows``.
    ``truncated_prefixes`` counts the hypotheses longer than the encoder's
    ``limit``."""

    def __init__(self, model, rows, ids, first_ms, last_ms, lengths):
        self.model, self.rows, self.ids = model, rows, ids
        self.first_ms, self.last_ms, self.lengths = first_ms, last_ms, lengths
        self.truncated_prefixes = int((lengths > model.encoder.limit).sum())

    def __len__(self) -> int:
        return len(self.ids)

    def inputs(self, idx=slice(None)):
        ids = self.ids[idx]
        return np.take(self.rows, ids, axis=0), ids != 0

    def for_training(self) -> "_WindowHypotheses":
        return self  # the rows and ids are the inputs; the rest is one number per hypothesis

    def extend(self, parents, tokens, deltas):
        encoder = self.model.encoder
        n = len(parents)
        first_ms, last_ms = self.first_ms[parents], self.last_ms[parents]
        ms = _decoded_ms(last_ms, deltas)
        lengths = self.lengths[parents] + 1
        missing = [vocab.index(MISSING) for vocab in encoder.attribute_vocabs.values()]
        attributes = np.full((n, len(missing)), missing, dtype=np.int64)
        decoded = encoder.encode_rows(np.asarray(tokens), attributes, ms, last_ms, first_ms)
        rows = np.concatenate([self.rows, decoded.astype(self.rows.dtype)])
        shifted = np.column_stack([self.ids[parents][:, 1:], np.arange(len(self.rows), len(rows), dtype=np.int32)])
        ids = np.where(encoder.window_mask(lengths), shifted, 0).astype(np.int32)
        return _WindowHypotheses(self.model, rows, ids, first_ms, ms, lengths)


class _ReplayHypotheses(_NeuralHypotheses):
    """Hypotheses of a timed-state MLP. Each carries its replay state
    (marking, throughput, last visits, attribute counts, last timestamp) and
    the attribute counts a decoded event adds: every attribute its last real
    event holds, as missing."""

    def __init__(self, model, X, states: TimedStates, decoded_counts: np.ndarray):
        super().__init__(model, X)
        self.states, self.decoded_counts = states, decoded_counts

    def extend(self, parents, tokens, deltas):
        model, decoded_counts = self.model, self.decoded_counts[parents]
        labels = [model.activity_vocab.label(t) for t in tokens]
        at_ms = _decoded_ms(self.states.at_ms[parents], deltas)
        states = self.states.step(model.petri_net, parents, labels, at_ms, decoded_counts)
        X = states.vectors(model.petri_net, model.decay_seconds, model.dtype)
        return _ReplayHypotheses(model, X, states, decoded_counts)


class _NgramHypotheses(_NeuralHypotheses):
    """Hypotheses of the autoencoder. Each carries its hashed n-gram vector,
    which is its input row (small integers, exact in the model's dtype), and
    its last ``ngram_k - 1`` activity codes (-1 in the empty slots)."""

    def __init__(self, model, X, tails):
        super().__init__(model, X)
        self.tails = tails

    def extend(self, parents, tokens, deltas):
        cfg, labels = self.model.config, self.model.activity_vocab.labels
        X, tails = ngram_hash_extend(self.X[parents], self.tails[parents], tokens, labels, cfg.ngram_k, cfg.hash_seed)
        return _NgramHypotheses(self.model, X, tails)


class RecurrentPredictor(_NeuralPredictor):
    """Stacked recurrent network (vanilla RNN, LSTM, or GRU) over padded
    prefixes; the last real timestep's hidden state feeds a softmax activity
    head and a linear time head trained jointly with early stopping."""

    def __init__(self, cell: str, activity_vocab, attribute_vocabs=None, config=None):
        if cell not in nn.CELLS:
            raise ValueError(f"unknown cell {cell!r}")
        super().__init__(activity_vocab, attribute_vocabs, config)
        self.cell = cell
        self.architecture = cell

    def _build_params(self, rng):
        cfg = self.config
        params: dict[str, np.ndarray] = {}
        in_dim = self.encoder.num_features
        if cfg.embedding_dim:
            params["emb"] = nn.glorot_uniform(
                rng, len(self.activity_vocab), cfg.embedding_dim, self.dtype
            )
            in_dim += cfg.embedding_dim - 1  # the embedding replaces the index column
        for layer in range(cfg.layers):
            cell_params = nn.init_cell(self.cell, rng, in_dim, cfg.hidden, self.dtype)
            params.update({f"l{layer}:{k}": v for k, v in cell_params.items()})
            in_dim = cfg.hidden
        params.update(self._init_heads(rng, cfg.hidden))
        return params

    def _body(self, params, X, M):
        """The last timestep's hidden state of the top layer."""
        idx, current, layer_caches = None, X, []
        if self.config.embedding_dim:
            group = self.encoder.layout.group("activity")
            idx = X[:, :, group.start].astype(np.int64)
            dense = np.delete(X, group.start, axis=2)
            current = np.concatenate([params["emb"][idx], dense], axis=2).astype(X.dtype)
        for layer in range(self.config.layers):
            lp = {name: params[f"l{layer}:{name}"] for name in ("U", "W", "b")}
            current, caches = nn.sequence_forward(self.cell, lp, current, M)
            layer_caches.append(caches)
        return current[:, -1, :], (layer_caches, idx, X.shape[1])

    def _batch_lengths(self, hypotheses):
        # the kernel steps a batch from its longest prefix's first column on
        return (hypotheses.ids != 0).sum(axis=1)

    def _body_backward(self, params, cache, dfeatures):
        cfg = self.config
        layer_caches, idx, T = cache
        grads: dict[str, np.ndarray] = {}
        B, H = dfeatures.shape
        upstream = np.zeros((B, T, H), dtype=dfeatures.dtype)
        upstream[:, -1, :] = dfeatures
        for layer in reversed(range(cfg.layers)):
            lp = {name: params[f"l{layer}:{name}"] for name in ("U", "W", "b")}
            # the first layer's input gradient is read only by an embedding
            upstream, layer_grads = nn.sequence_backward(
                self.cell, lp, layer_caches[layer], upstream, input_grad=layer > 0 or bool(cfg.embedding_dim)
            )
            grads.update({f"l{layer}:{k}": v for k, v in layer_grads.items()})
        if cfg.embedding_dim:
            demb = upstream[:, :, : cfg.embedding_dim]
            grads["emb"] = nn.embedding_backward(params["emb"], idx, demb)
        return grads


class MLPPredictor(_NeuralPredictor):
    """Feedforward network with ReLU hidden layers over a flat prefix
    encoding: the flattened padded prefix, the single most recent event, or
    the timed state of a Petri-net token replay."""

    architecture = "mlp"

    def __init__(
        self,
        activity_vocab,
        attribute_vocabs=None,
        config=None,
        petri_net: PetriNet | None = None,
    ):
        super().__init__(activity_vocab, attribute_vocabs, config)
        if needs_petri_net(self.architecture, self.config) and petri_net is None:
            raise ValueError("timed_state input needs a Petri net")
        self.petri_net = petri_net
        self.decay_seconds = self.config.decay_seconds

    def _make_encoder(self) -> PrefixEncoder:
        encoder = super()._make_encoder()
        if self.config.input_mode == "single_event":
            encoder.window = 1
            encoder.max_len = 1
        return encoder

    def _prepare(self, train) -> None:
        if self.config.input_mode == "timed_state":
            self.decay_seconds = self.config.decay_seconds
            if self.decay_seconds is None:  # this fit's longest training case
                self.decay_seconds = max(float(np.max(train.elapsed_times + train.remaining_times)), 1.0)
            self.encoder = None
        else:
            super()._prepare(train)

    def _timed_state_vocabs(self) -> dict[str, Vocabulary]:
        return {name: self.attribute_vocabs[name] for name in self.config.attributes}

    def _start(self, samples):
        """Timed-state hypotheses start from the replay states of the
        samples' prefixes, read at each prefix's last event with the
        configured attributes. Each consecutive range of ``REPLAY_CHUNK``
        samples is a set of its own, laid out and replayed in one pass (an
        empty set in one pass of no samples). Its states, input rows and the
        attributes its prefixes' last events hold, which a decoded event
        counts as missing, are copied into arrays of every sample's row
        before the next pass, so only one range's states are held twice; the
        counts are held as int32 (``START_INT32``), cast exactly by ``vectors``."""
        if self.config.input_mode != "timed_state":
            return super()._start(samples)
        net, vocabs, n = self.petri_net, self._timed_state_vocabs(), len(samples)
        X, columns = np.empty((n, TimedStateVector.width(net, vocabs)), self.dtype), None
        offsets = np.cumsum([0] + [len(vocab) for vocab in vocabs.values()]).tolist()
        decoded_counts = np.zeros((n, offsets[-1]), np.int32)
        for s in range(0, max(n, 1), REPLAY_CHUNK):
            flat = samples[s : s + REPLAY_CHUNK].flat
            part = replay_states(net, flat, None, vocabs)
            X[s : s + REPLAY_CHUNK] = part.vectors(net, self.decay_seconds, self.dtype)
            arrays = [getattr(part, f.name) for f in fields(TimedStates)]
            columns = columns or [
                np.empty((n,) + a.shape[1:], np.int32 if f.name in START_INT32 else a.dtype)
                for f, a in zip(fields(TimedStates), arrays)
            ]
            for column, a in zip(columns, arrays):
                column[s : s + REPLAY_CHUNK] = a
            for (name, vocab), offset in zip(vocabs.items(), offsets):
                held = flat.codes(vocab, name)[flat.ends - 1] >= 0
                decoded_counts[s : s + REPLAY_CHUNK, offset + vocab.index(MISSING)] = held
        states = TimedStates(*columns)
        return _ReplayHypotheses(self, X, states, decoded_counts)

    def _build_params(self, rng):
        cfg = self.config
        if cfg.input_mode == "timed_state":
            in_dim = TimedStateVector.width(self.petri_net, self._timed_state_vocabs())
        else:
            in_dim = self.encoder.num_features * self.encoder.max_len
        params: dict[str, np.ndarray] = {}
        for layer in range(cfg.layers):
            params.update({f"l{layer}:{k}": v for k, v in nn.init_dense(rng, in_dim, cfg.hidden, self.dtype).items()})
            in_dim = cfg.hidden
        params.update(self._init_heads(rng, cfg.hidden))
        return params

    def _body(self, params, X, M):
        current = X.reshape(X.shape[0], X.shape[1] * X.shape[2]) if X.ndim == 3 else X
        layer_caches = []
        for layer in range(self.config.layers):
            z, a_cache = nn.affine_forward(current, params[f"l{layer}:W"], params[f"l{layer}:b"])
            current, r_cache = nn.relu_forward(z)
            layer_caches.append((a_cache, r_cache))
        return current, layer_caches

    def _body_backward(self, params, cache, dfeatures):
        grads: dict[str, np.ndarray] = {}
        upstream = dfeatures
        for layer in reversed(range(self.config.layers)):
            a_cache, r_cache = cache[layer]
            upstream = nn.relu_backward(r_cache, upstream)
            upstream, layer_grads = nn.affine_backward(a_cache, upstream)
            grads.update({f"l{layer}:{k}": v for k, v in layer_grads.items()})
        return grads

    def _sidecar_state(self) -> dict:
        return {**super()._sidecar_state(), "extra": {"decay_seconds": self.decay_seconds}}

    def _load(self, sidecar, params):
        """A timed-state sidecar's ``decay_seconds`` must be a finite
        positive number; anything else is a ``ValueError``."""
        decay_seconds = (sidecar.get("extra") or {}).get("decay_seconds")
        finite = type(decay_seconds) in (int, float) and math.isfinite(decay_seconds)
        if self.config.input_mode == "timed_state" and not (finite and decay_seconds > 0):
            raise ValueError(f"timed-state checkpoint decay_seconds {decay_seconds!r}, not a finite positive number")
        self.decay_seconds = decay_seconds
        super()._load(sidecar, params)


def _reconstruction_loss(params, x):
    """MSE reconstruction of ``x`` through one tanh encoder layer (``We``,
    ``be``) and its linear decoder (``Wd``, ``bd``), with its gradient."""
    z, ecache = nn.affine_forward(x, params["We"], params["be"])
    h = np.tanh(z)
    recon, dcache = nn.affine_forward(h, params["Wd"], params["bd"])
    loss, drecon = nn.mse_loss(recon, x)
    dh, dgrads = nn.affine_backward(dcache, drecon)
    _, egrads = nn.affine_backward(ecache, dh * (1.0 - h * h))
    return loss, {"We": egrads["W"], "be": egrads["b"], "Wd": dgrads["W"], "bd": dgrads["b"]}


class AutoencoderPredictor(_NeuralPredictor):
    """Stacked undercomplete autoencoder over hashed n-gram prefix vectors,
    pretrained layerwise on reconstruction, then topped with a softmax
    next-activity head (frozen-encoder warmup, then finetuning). Predicts the
    activity only; no time head."""

    architecture = "autoencoder"

    def __init__(self, activity_vocab, attribute_vocabs=None, config=None):
        config = replace(config or TrainConfig(), time_target=None)
        super().__init__(activity_vocab, attribute_vocabs, config)
        dims = [self.config.ngram_dim, *self.config.ae_hidden]
        for smaller, larger in zip(dims[1:], dims):
            if smaller >= larger:
                raise ValueError(
                    f"undercompleteness violated: hidden {smaller} >= input {larger}"
                )
        self.recon_losses: list[tuple[float, ...]] = []

    def _prepare(self, train) -> None:
        self.encoder = None

    def _start(self, samples):
        """Hypotheses that start from the samples' hashed n-gram vectors in
        the model's dtype, hashed in array passes over their layout's
        activity codes, and each prefix's last ``ngram_k - 1`` codes; no mask."""
        flat, vocab, cfg = samples.flat, self.activity_vocab, self.config
        k, dim, seed = cfg.ngram_k, cfg.ngram_dim, cfg.hash_seed
        X = ngram_hash_codes(flat.codes(vocab), vocab.labels, flat.ends, flat.ks, k, dim, seed, self.dtype)
        return _NgramHypotheses(self, X, flat.last_codes(vocab, k - 1))

    def _build_params(self, rng):
        params: dict[str, np.ndarray] = {}
        in_dim = self.config.ngram_dim
        for layer, hidden in enumerate(self.config.ae_hidden):
            params[f"enc{layer}:W"] = nn.glorot_uniform(rng, in_dim, hidden, self.dtype)
            params[f"enc{layer}:b"] = np.zeros(hidden, dtype=self.dtype)
            in_dim = hidden
        params.update(self._init_heads(rng, in_dim))
        return params

    def _pretrain(self, params, start, y_act, rng, seed):
        """Greedy layerwise reconstruction pretraining of the encoder stack,
        then a head warmup with the encoder frozen."""
        cfg, X = self.config, start.X

        clipped = []  # each stage's clipped_batches

        def stage(params, batch_step, n_train, epochs, seed):
            """One SGD stage and its per-epoch losses; a stage of no epochs
            leaves the parameters as they are."""
            if epochs < 1:
                clipped.append(())
                return params, ()
            config = TrainConfig(
                epochs=epochs, patience=epochs, batch_size=cfg.batch_size,
                lr=cfg.lr, momentum=cfg.momentum, clip_norm=cfg.clip_norm,
            )
            params, report = _sgd_train(params, batch_step, None, n_train, config, seed)
            clipped.append(report.clipped_batches)
            return params, report.train_losses

        self.recon_losses = []
        current = X
        for layer, hidden in enumerate(cfg.ae_hidden):
            in_dim = current.shape[1]
            layer_params = {
                "We": params[f"enc{layer}:W"],
                "be": params[f"enc{layer}:b"],
                "Wd": nn.glorot_uniform(rng, hidden, in_dim, self.dtype),
                "bd": np.zeros(in_dim, dtype=self.dtype),
            }
            layer_params, losses = stage(
                layer_params,
                lambda p, idx, data=current: _reconstruction_loss(p, data[idx]),
                current.shape[0],
                cfg.pretrain_epochs,
                seed + layer + 1,
            )
            params[f"enc{layer}:W"] = layer_params["We"]
            params[f"enc{layer}:b"] = layer_params["be"]
            self.recon_losses.append(losses)
            current = np.tanh(current @ layer_params["We"] + layer_params["be"])

        def head_step(p, idx):  # the encoder stays frozen: only the heads get gradients
            loss, grads, _, _ = self._head_loss(p, X[idx], None, y_act[idx], None)
            return loss, grads

        params, _ = stage(params, head_step, X.shape[0], cfg.freeze_epochs, seed + 101)
        return params, tuple(clipped)

    def _body(self, params, X, M):
        current = X
        layer_caches = []
        for layer in range(len(self.config.ae_hidden)):
            z, a_cache = nn.affine_forward(current, params[f"enc{layer}:W"], params[f"enc{layer}:b"])
            current = np.tanh(z)
            layer_caches.append((a_cache, current))
        return current, layer_caches

    def _body_backward(self, params, cache, dfeatures):
        grads = {}
        upstream = dfeatures
        for layer in reversed(range(len(self.config.ae_hidden))):
            a_cache, activated = cache[layer]
            upstream = upstream * (1.0 - activated * activated)
            upstream, layer_grads = nn.affine_backward(a_cache, upstream)
            grads.update({f"enc{layer}:{k}": v for k, v in layer_grads.items()})
        return grads


# ---------------------------------------------------------------------------
# model construction, training entry point, checkpoints
# ---------------------------------------------------------------------------

def build_predictor(
    architecture: str,
    config: TrainConfig,
    activity_vocab: Vocabulary,
    attribute_vocabs=None,
    petri_net: PetriNet | None = None,
) -> Predictor:
    if architecture == "markov":
        return MarkovPredictor(activity_vocab, config)
    if architecture == "mlp":
        return MLPPredictor(activity_vocab, attribute_vocabs, config, petri_net)
    if architecture in nn.CELLS:
        return RecurrentPredictor(architecture, activity_vocab, attribute_vocabs, config)
    if architecture == "autoencoder":
        return AutoencoderPredictor(activity_vocab, attribute_vocabs, config)
    raise ValueError(f"unknown architecture {architecture!r}")


def train(
    predictor: Predictor,
    split: SplitLog,
    seed: int = 0,
    min_k: int = 1,
) -> TrainReport:
    """Fit a predictor on a chronological split; encoders and normalization
    statistics are fitted on the training part only."""
    return predictor.fit(make_prefix_samples(split.train, min_k), make_prefix_samples(split.validation, min_k), seed)


def save_predictor(predictor: Predictor, path_prefix: str | Path, seed: int = 0) -> list[Path]:
    """Checkpoint = the parameter file plus a JSON sidecar, sufficient to
    reload and predict without retraining. Returns the paths written; an
    unfitted predictor is a ``RuntimeError`` before anything is written."""
    predictor._check_fitted()
    path_prefix = Path(path_prefix)
    path_prefix.parent.mkdir(parents=True, exist_ok=True)
    return predictor._save(path_prefix, seed)


def needs_petri_net(architecture: str, config: TrainConfig) -> bool:
    """Whether a model of this architecture and config reads Petri-net replay
    state, and so cannot be built without a net."""
    return architecture == "mlp" and config.input_mode == "timed_state"


def _is_label_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(label, str) for label in value)


def _read_sidecar(path_prefix: Path) -> tuple[dict, TrainConfig]:
    """The sidecar and its config. Unless the sidecar is a JSON object of
    this format version with a known ``architecture``, a ``config`` mapping
    that ``TrainConfig`` takes, an ``activity_vocab`` list of labels and an
    ``attribute_vocabs`` object of such lists, it is a ``ValueError`` that
    names the field."""
    sidecar = json.loads(path_prefix.with_suffix(".json").read_text(encoding="utf-8"))
    if not isinstance(sidecar, dict):
        raise ValueError(f"checkpoint sidecar holds a JSON {type(sidecar).__name__}, not an object")
    if sidecar.get("format_version") != SIDECAR_VERSION:
        raise ValueError(f"unsupported sidecar version {sidecar.get('format_version')!r}: "
                         f"this version reads version {SIDECAR_VERSION}")
    if sidecar.get("architecture") not in ARCHITECTURES:
        raise ValueError(f"checkpoint architecture {sidecar.get('architecture')!r}, not one of {ARCHITECTURES}")
    if not isinstance(sidecar.get("config"), dict):
        raise ValueError(f"checkpoint config {sidecar.get('config')!r}, not a mapping")
    try:
        config = TrainConfig(**sidecar["config"])
    except (TypeError, ValueError) as error:
        raise ValueError(f"checkpoint config: {error}") from None
    if not _is_label_list(sidecar.get("activity_vocab")):
        raise ValueError("checkpoint activity_vocab is not a list of labels")
    vocabs = sidecar.get("attribute_vocabs")
    if not (isinstance(vocabs, dict) and all(map(_is_label_list, vocabs.values()))):
        raise ValueError("checkpoint attribute_vocabs is not an object of label lists")
    return sidecar, config


def checkpoint_needs_petri_net(path_prefix: str | Path) -> bool:
    """``needs_petri_net`` of a checkpoint, read from its sidecar alone."""
    sidecar, config = _read_sidecar(Path(path_prefix))
    return needs_petri_net(sidecar["architecture"], config)


def load_predictor(path_prefix: str | Path, petri_net: PetriNet | None = None) -> Predictor:
    path_prefix = Path(path_prefix)
    sidecar, config = _read_sidecar(path_prefix)
    predictor = build_predictor(
        sidecar["architecture"],
        config,
        Vocabulary(sidecar["activity_vocab"]),
        {k: Vocabulary(v) for k, v in sidecar["attribute_vocabs"].items()},
        petri_net,
    )
    predictor._restore(sidecar, path_prefix)
    return predictor
