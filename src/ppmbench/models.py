"""Model zoo behind one interface: next-activity distribution plus optional
time regression from a raw event prefix. Contains the Markov count-based
baseline, feedforward and recurrent networks, and the stacked autoencoder
classifier."""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import nnkernel as nn
from .atomic import write_text_atomic
# ngram_hash_encode and replay_timed_state stay bound here: perfbench's tracer patches them by name
from .encoding import Normalizer, PrefixEncoder, ngram_hash_encode, ngram_hash_prefixes
from .eventlog import MISSING, Event, Vocabulary
from .petrinet import PetriNet, TimedStateVector, replay_prefixes, replay_timed_state
from .splitting import PrefixSample, SplitLog, make_prefix_samples

ARCHITECTURES = ("markov", "mlp", "rnn", "lstm", "gru", "autoencoder")
INPUT_MODES = ("padded_flat", "single_event", "timed_state")  # what the mlp reads

SIDECAR_VERSION = 1


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
        self.attributes = tuple(self.attributes)
        self.ae_hidden = tuple(self.ae_hidden)
        if self.time_target not in (None, "next", "remaining"):
            raise ValueError(f"unknown time_target {self.time_target!r}")
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"unknown input_mode {self.input_mode!r}")

        def at_least(name, value, low):
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
        at_least("order", self.order, 0)
        at_least("alpha", self.alpha, 0)
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
        if not (isinstance(self.hash_seed, int) and 0 <= self.hash_seed < 2**64):
            raise ValueError(f"hash_seed must be an integer in [0, 2**64), got {self.hash_seed!r}")


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch losses and the retained best epoch.

    ``wall_clock_seconds`` is informational and excluded from reproducibility
    comparisons; everything else is bit-reproducible for a fixed seed.
    """

    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    best_epoch: int
    wall_clock_seconds: float
    seed: int

    def core(self) -> dict:
        return {
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "best_epoch": self.best_epoch,
            "seed": self.seed,
        }


class Predictor:
    """Interface: ``predict_batch`` maps prefix samples to rows of activity
    probabilities over the vocabulary (end-of-case included) and non-negative
    times in seconds (meaning set by ``time_target``; NaN for none).
    ``predict`` scores one event prefix, with ``None`` for no time."""

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

    def predict(self, events: Sequence[Event]) -> tuple[np.ndarray, float | None]:
        raise NotImplementedError

    def predict_batch(self, samples: Sequence[PrefixSample]) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities (N, C) and times (N,), float64, in sample order; by
        default ``predict`` of each sample's prefix."""
        return _stacked([self.predict(s.prefix) for s in samples], len(self.activity_vocab))

    def hypotheses(self, prefixes: Sequence[Sequence[Event]]) -> "EventHypotheses":
        """Decode hypotheses of the prefixes, row i holding prefix i; by
        default event tuples, each scored by ``predict``."""
        return EventHypotheses(self, prefixes)

    def _save(self, path_prefix: Path, seed: int) -> list[Path]:
        """Write the checkpoint: the ``<prefix>.json`` sidecar plus any files
        the model keeps next to it, and return their paths. The directory
        exists."""
        raise NotImplementedError

    def _restore(self, sidecar: Mapping, path_prefix: Path) -> None:
        """Load the trained state that :meth:`_save` wrote into a predictor
        built from the sidecar's architecture, config and vocabularies."""
        raise NotImplementedError


def _write_sidecar(path_prefix: Path, sidecar: dict) -> Path:
    path = path_prefix.with_suffix(".json")
    return write_text_atomic(path, lambda: json.dumps(sidecar, indent=2, sort_keys=True))


def _stacked(rows, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities (N, C) and times (N,), NaN for no time, of ``predict`` results."""
    probs = np.array([p for p, _ in rows], dtype=np.float64)
    times = np.array([np.nan if t is None else t for _, t in rows], dtype=np.float64)
    return probs.reshape(len(rows), n_classes), times


def _decoded_ms(last_ms: int, delta: float) -> int:
    """Timestamp of a decoded event ``delta`` seconds after ``last_ms``, to the millisecond."""
    return last_ms + int(round(delta * 1000.0))


def _extend(events: tuple[Event, ...], activity: str, delta: float) -> tuple[Event, ...]:
    """``events`` plus one decoded event with every attribute missing."""
    last = events[-1]
    decoded = Event(
        case_id=last.case_id,
        activity=activity,
        timestamp_ms=_decoded_ms(last.timestamp_ms, delta),
        attributes={name: MISSING for name in last.attributes},
    )
    return events + (decoded,)


class EventHypotheses:
    """Decode hypotheses kept as event tuples, each scored by one
    ``model.predict`` call; any object with ``activity_vocab`` and
    ``predict(events)`` decodes this way."""

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

    ``tables[j]`` maps each order-``j`` context (the last ``j`` activities of
    a training prefix) to its next-activity counts and its sum of next-event
    deltas. Prediction backs off from the longest context with observations,
    one order at a time down to the unigram:
    P(a | context) = (count(context, a) + alpha) / (count(context) + alpha |A|),
    and the time estimate is that context's mean delta. With no observations
    at any order the distribution is uniform (the pure-smoothing limit) and
    there is no time estimate."""

    architecture = "markov"

    def __init__(self, activity_vocab: Vocabulary, config: TrainConfig | None = None):
        self.activity_vocab = activity_vocab
        self.config = config or TrainConfig()
        self.time_target = "next"
        self.tables: list[dict[tuple[str, ...], tuple[Counter, float]]] = []

    def fit(self, train_samples, val_samples, seed=0) -> TrainReport:
        start = time.perf_counter()
        order = self.config.order
        self.tables = [{} for _ in range(order + 1)]
        for sample in train_samples:
            acts = sample.prefix_activities
            target = self.activity_vocab.index(sample.next_activity)
            for j in range(min(order, len(acts)) + 1):
                ctx = acts[len(acts) - j :]
                counts, delta_sum = self.tables[j].get(ctx) or (Counter(), 0.0)
                counts[target] += 1
                self.tables[j][ctx] = (counts, delta_sum + sample.next_time_delta)
        train_nll = self._mean_nll(train_samples)
        val_nll = self._mean_nll(val_samples) if val_samples else train_nll
        return TrainReport(
            train_losses=(train_nll,),
            val_losses=(val_nll,),
            best_epoch=0,
            wall_clock_seconds=time.perf_counter() - start,
            seed=seed,
        )

    def _mean_nll(self, samples) -> float:
        if not samples:
            return 0.0
        probs, _ = self.predict_batch(samples)
        truth = [self.activity_vocab.index(s.next_activity) for s in samples]
        picked = np.maximum(probs[np.arange(len(samples)), truth], 1e-12)
        return -sum(np.log(picked).tolist()) / len(samples)

    def predict(self, events):
        acts = tuple(ev.activity for ev in events)
        k = len(self.activity_vocab)
        alpha = self.config.alpha
        for j in range(min(len(self.tables) - 1, len(acts)), -1, -1):
            counts, delta_sum = self.tables[j].get(acts[len(acts) - j :]) or (None, 0.0)
            if counts:
                total = sum(counts.values())
                probs = np.full(k, float(alpha), dtype=np.float64)
                for idx, c in counts.items():
                    probs[idx] += c
                return probs / (total + alpha * k), max(0.0, delta_sum / total)
        return np.full(k, 1.0 / k, dtype=np.float64), None

    def _save(self, path_prefix, seed):
        """The JSON sidecar alone: the tables are the whole model. Each order
        is written twice, as its ``counts`` rows and its ``deltas`` rows
        (context, delta sum, observation count)."""

        def ctx_key(ctx):
            return "\x1f".join(ctx)

        sidecar = {
            "format_version": SIDECAR_VERSION,
            "architecture": "markov",
            "seed": seed,
            "config": {"order": self.config.order, "alpha": self.config.alpha},
            "activity_vocab": list(self.activity_vocab.labels),
            "attribute_vocabs": {},
            "state": {
                "counts": [
                    [[ctx_key(ctx), {str(k): v for k, v in counts.items()}]
                     for ctx, (counts, _) in table.items()]
                    for table in self.tables
                ],
                "deltas": [
                    [[ctx_key(ctx), delta_sum, sum(counts.values())]
                     for ctx, (counts, delta_sum) in table.items()]
                    for table in self.tables
                ],
            },
        }
        return [_write_sidecar(path_prefix, sidecar)]

    def _restore(self, sidecar, path_prefix):
        """Rebuild the tables; ``counts`` and ``deltas`` must list the same
        contexts in the same order, or the sidecar is a ``ValueError``."""
        state = sidecar["state"]
        if len(state["counts"]) != len(state["deltas"]):
            raise ValueError("markov sidecar has counts and deltas for different orders")
        self.tables = []
        for count_rows, delta_rows in zip(state["counts"], state["deltas"]):
            if [row[0] for row in count_rows] != [row[0] for row in delta_rows]:
                raise ValueError("markov sidecar counts and deltas name different contexts")
            self.tables.append(
                {
                    tuple(ctx.split("\x1f")) if ctx else (): (
                        Counter({int(k): v for k, v in counts.items()}),
                        delta_sum,
                    )
                    for (ctx, counts), (_, delta_sum, _) in zip(count_rows, delta_rows)
                }
            )


# ---------------------------------------------------------------------------
# shared neural plumbing
# ---------------------------------------------------------------------------

def _time_values(samples, time_target: str) -> np.ndarray:
    if time_target == "next":
        return np.array([s.next_time_delta for s in samples], dtype=np.float64)
    return np.array([s.remaining_time for s in samples], dtype=np.float64)


def _sgd_train(
    params: dict[str, np.ndarray],
    batch_step: Callable[[dict, np.ndarray], tuple[float, dict]],
    val_loss_fn: Callable[[dict], float] | None,
    n_train: int,
    config: TrainConfig,
    seed: int,
) -> tuple[dict[str, np.ndarray], TrainReport]:
    """Mini-batch SGD with per-epoch validation, early stopping, and
    best-validation checkpointing. Deterministic for a fixed seed. A
    non-finite batch loss stops training with ``ValueError`` before the
    update it would feed."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    opt = nn.SGD(config.lr, config.momentum, config.clip_norm)
    train_hist: list[float] = []
    val_hist: list[float] = []
    best_val = np.inf
    best_epoch = 0
    best_params = {k: v.copy() for k, v in params.items()}
    for epoch in range(config.epochs):
        order = rng.permutation(n_train)
        total = 0.0
        batches = 0
        for s in range(0, n_train, config.batch_size):
            idx = order[s : s + config.batch_size]
            loss, grads = batch_step(params, idx)
            if not np.isfinite(loss):
                raise ValueError(f"non-finite training loss {loss!r} in epoch {epoch}")
            opt.step(params, grads)
            total += loss
            batches += 1
        train_loss = total / max(batches, 1)
        train_hist.append(train_loss)
        val = val_loss_fn(params) if val_loss_fn is not None else train_loss
        val_hist.append(val)
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
        seed=seed,
    )
    return best_params, report


def _layer_params(params: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {k.split(":", 1)[1]: v for k, v in params.items() if k.startswith(prefix + ":")}


class _NeuralPredictor(Predictor):
    """Encoder handling, the shared output heads, the fit/predict scaffolding,
    and checkpointing shared by the numpy models. Subclasses provide
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
    def _prepare(self, train_samples) -> None:
        self.encoder = self._make_encoder().fit(train_samples)

    def _inputs(self, events, ks):
        """Network inputs and mask (or None) of ``events[:k]`` for each k in
        ``ks``, stacked in that order; an input never reads past its prefix."""
        X, M = self.encoder.encode_prefixes(events, ks)
        return X.astype(self.dtype), M

    def _build_params(self, rng) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def _pretrain(self, params, X, y_act, rng, seed: int) -> dict[str, np.ndarray]:
        """Training stages that run before the shared one; none by default."""
        return params

    def _body(self, params, X, M):
        """Feature vectors (B, F) of a batch and the cache for the backward."""
        raise NotImplementedError

    def _body_backward(self, params, cache, dfeatures) -> dict[str, np.ndarray]:
        """Gradients of the body's parameters given the feature gradient."""
        raise NotImplementedError

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

    def _fit_arrays(self, train_samples):
        """Fit the input encoding and the time normalizer on the training
        samples, then return the training arrays (see :meth:`_arrays`)."""
        self._prepare(train_samples)
        if self.config.time_target is not None:
            self.time_norm = Normalizer("log").fit(_time_values(train_samples, self.config.time_target))
        return self._arrays(train_samples)

    def _batch_inputs(self, samples):
        """Inputs and mask of the samples' prefixes in sample order, encoded once per trace."""
        by_trace: dict[int, list[int]] = {}
        for i, sample in enumerate(samples):
            by_trace.setdefault(id(sample.trace), []).append(i)
        X, M = _concat(
            [self._inputs(samples[idx[0]].trace.events, [samples[i].k for i in idx]) for idx in by_trace.values()]
        )
        # concatenated row j holds the j-th sample index listed; argsort inverts that
        back = np.argsort([i for idx in by_trace.values() for i in idx])
        return X[back], None if M is None else M[back]

    def _arrays(self, samples):
        """:meth:`_batch_inputs` plus activity and normalized time targets."""
        X, M = self._batch_inputs(samples)
        y_act = np.array([self.activity_vocab.index(s.next_activity) for s in samples], dtype=np.int64)
        y_time = None
        if self.config.time_target is not None:
            y_time = self.time_norm.transform(_time_values(samples, self.config.time_target))
        return X, M, y_act, y_time

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
        logits, tpred, act_cache, time_cache = self._heads(params, features)
        return logits, tpred, (body_cache, act_cache, time_cache)

    def _heads(self, params, features):
        logits, act_cache = nn.affine_forward(features, params["head_act:W"], params["head_act:b"])
        tpred = time_cache = None
        if "head_time:W" in params:
            tpred, time_cache = nn.affine_forward(features, params["head_time:W"], params["head_time:b"])
        return logits, tpred, act_cache, time_cache

    def _step_features(self, params, X, M):
        """Feature vectors (N, F) of a decode step, each row computed alone,
        as :meth:`predict` computes it."""
        return np.concatenate(
            [self._body(params, X[i : i + 1], None if M is None else M[i : i + 1])[0] for i in range(len(X))]
        )

    def _step_outputs(self, params, X, M):
        """Activity logits and time predictions of a decode step, each row
        bit-equal to a one-row :meth:`_outputs`. BLAS rounds a many-row
        product differently from a one-row one, and a decoded timestamp feeds
        the next step's inputs, so a last-bit difference in a time prediction
        can grow step by step into other tokens."""
        features = self._step_features(params, X, M)
        heads = [self._heads(params, features[i : i + 1])[:2] for i in range(len(features))]
        tpred = None if heads[0][1] is None else np.concatenate([t for _, t in heads])
        return np.concatenate([logits for logits, _ in heads]), tpred

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
            grads["head_time:W"] = time_grads["W"]
            grads["head_time:b"] = time_grads["b"]
        return nn.combine_losses(losses), grads, body_cache, dfeatures

    def _batch_loss(self, params, X, M, y_act, y_time):
        """Training loss of one batch and its gradient for every parameter."""
        loss, grads, body_cache, dfeatures = self._head_loss(params, X, M, y_act, y_time)
        grads.update(self._body_backward(params, body_cache, dfeatures))
        return loss, grads

    def fit(self, train_samples, val_samples, seed=0) -> TrainReport:
        start = time.perf_counter()
        if not train_samples:
            raise ValueError("no training samples")
        X, M, y_act, y_time = self._fit_arrays(train_samples)
        val_loss = None
        if val_samples:
            val_arrays = self._arrays(val_samples)

            def val_loss(p):
                return self._head_loss(p, *val_arrays)[0]

        rng = np.random.default_rng(seed)
        params = self._pretrain(self._build_params(rng), X, y_act, rng, seed)

        def batch_step(p, idx):
            return self._batch_loss(
                p,
                X[idx],
                M[idx] if M is not None else None,
                y_act[idx],
                y_time[idx] if y_time is not None else None,
            )

        self.params, report = _sgd_train(
            params, batch_step, val_loss, len(train_samples), self.config, seed
        )
        return replace(report, wall_clock_seconds=time.perf_counter() - start)

    def _predictions(self, forward, inputs, *args):
        """Per row of ``forward(params, *inputs(*args))`` (``_outputs`` or
        ``_step_outputs``): the float64 softmax of the activity logits and
        the time head in seconds, clamped at 0 (NaN without one)."""
        if not self.params:
            raise RuntimeError("predictor used before fit()")
        logits, tpred = forward(self.params, *inputs(*args))[:2]
        probs = nn.softmax(logits.astype(np.float64))
        times = np.full(len(probs), np.nan)
        if tpred is not None and self.time_norm is not None:
            times = np.fmax(0.0, self.time_norm.inverse(tpred[:, 0]))
        return probs, times

    def predict_batch(self, samples):
        return self._predictions(self._outputs, self._batch_inputs, samples)

    def predict(self, events):
        probs, times = self._predictions(self._outputs, self._inputs, events, [len(events)])
        return probs[0], None if np.isnan(times[0]) else float(times[0])

    def hypotheses(self, prefixes):
        """Hypotheses that carry their encoder rows; without a ``PrefixEncoder``
        (autoencoder, timed-state MLP), event tuples scored in one forward pass."""
        if self.encoder is None:
            return _StackedHypotheses(self, prefixes)
        return _EncodedHypotheses.start(self, prefixes)

    # checkpointing ---------------------------------------------------------
    def _vocab_sha256(self) -> str:
        blob = json.dumps(
            {
                "activities": list(self.activity_vocab.labels),
                "attributes": {k: list(v.labels) for k, v in self.attribute_vocabs.items()},
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _sidecar_extra(self) -> dict:
        return {}

    def _save(self, path_prefix, seed):
        """``<prefix>.npz`` with the parameters plus the JSON sidecar."""
        npz = path_prefix.with_suffix(".npz")
        nn.save_params(npz, self.params, {"architecture": self.architecture})
        sidecar = {
            "format_version": SIDECAR_VERSION,
            "architecture": self.architecture,
            "seed": seed,
            "config": asdict(self.config),
            "activity_vocab": list(self.activity_vocab.labels),
            "attribute_vocabs": {k: list(v.labels) for k, v in self.attribute_vocabs.items()},
            "encoder": self.encoder.state() if self.encoder else None,
            "time_norm": self.time_norm.state() if self.time_norm else None,
            "extra": self._sidecar_extra(),
            "vocab_sha256": self._vocab_sha256(),
        }
        return [npz, _write_sidecar(path_prefix, sidecar)]

    def _restore(self, sidecar, path_prefix):
        """Load the parameters and encoders; a parameter whose name or shape
        differs from what the restored config builds is a ``ValueError``."""
        if sidecar.get("vocab_sha256") != self._vocab_sha256():
            raise ValueError("checkpoint vocabularies do not match their vocab_sha256")
        params, _ = nn.load_params(path_prefix.with_suffix(".npz"))
        if sidecar.get("encoder"):
            self.encoder = PrefixEncoder.from_state(
                sidecar["encoder"], self.activity_vocab, self.attribute_vocabs
            )
        if sidecar.get("time_norm"):
            self.time_norm = Normalizer.from_state(sidecar["time_norm"])
        expected = self._build_params(np.random.default_rng(0))
        for name in sorted(expected.keys() | params.keys()):
            want = expected[name].shape if name in expected else None
            found = params[name].shape if name in params else None
            if want != found:
                raise ValueError(
                    f"checkpoint parameter {name!r} has shape {found}, the config builds {want}"
                )
        self.params = params


def _concat(parts):
    """One (inputs, mask) pair of the ``_inputs`` results ``parts``, rows in order."""
    X = np.concatenate([x for x, _ in parts])
    return X, None if parts[0][1] is None else np.concatenate([m for _, m in parts])


class _StackedHypotheses(EventHypotheses):
    """Event hypotheses of a neural model without a ``PrefixEncoder``: their
    inputs are re-encoded from the events at every step."""

    def predict(self):
        model = self.model
        return model._predictions(
            model._step_outputs, lambda: _concat([model._inputs(e, [len(e)]) for e in self.events])
        )


class _EncodedHypotheses:
    """Decode hypotheses of a ``PrefixEncoder`` model. Each carries its input
    window ``X``/``M`` and the timestamps of its last and first events; a
    decoded event's row comes from ``encode_rows``, and the window that takes
    it from ``windows``, as for a training prefix."""

    def __init__(self, model, X, M, last_ms, first_ms):
        self.model, self.X, self.M, self.last_ms, self.first_ms = model, X, M, last_ms, first_ms

    @classmethod
    def start(cls, model, prefixes):
        X, M = _concat([model._inputs(p, [len(p)]) for p in prefixes])
        last_ms = np.array([p[-1].timestamp_ms for p in prefixes], dtype=np.int64)
        return cls(model, X, M, last_ms, np.array([p[0].timestamp_ms for p in prefixes], dtype=np.int64))

    def predict(self):
        return self.model._predictions(self.model._step_outputs, lambda: (self.X, self.M))

    def extend(self, parents, tokens, deltas):
        encoder = self.model.encoder
        n, (T, F) = len(parents), self.X.shape[1:]
        last_ms = self.last_ms[parents]
        ms = np.array([_decoded_ms(int(t), d) for t, d in zip(last_ms, deltas)], dtype=np.int64)
        missing = [vocab.index(MISSING) for vocab in encoder.attribute_vocabs.values()]
        attributes = np.full((n, len(missing)), missing, dtype=np.int64)
        rows = encoder.encode_rows(np.asarray(tokens), attributes, ms, last_ms, self.first_ms[parents])
        # row 0 pads; rows 1 + (T + 1) j ... (T + 1)(j + 1) hold parent j's window, then its new row
        source = np.zeros((1 + n * (T + 1), F), dtype=self.X.dtype)
        blocks = source[1:].reshape(n, T + 1, F)
        blocks[:, :T] = self.X[parents]
        blocks[:, T] = rows
        # a window shows min(length, window, T) rows: one more than it shows stands for the new length
        X, M = encoder.windows(source, (T + 1) * np.arange(1, n + 1) + 1, self.M[parents].sum(axis=1) + 1)
        return _EncodedHypotheses(self.model, X, M, ms, self.first_ms[parents])


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
        cfg = self.config
        if cfg.embedding_dim:
            group = self.encoder.layout.group("activity")
            idx = X[:, :, group.start].astype(np.int64)
            dense = np.delete(X, group.start, axis=2)
            inputs = np.concatenate([params["emb"][idx], dense], axis=2).astype(X.dtype)
        else:
            idx = None
            inputs = X
        layer_caches = []
        current = inputs
        for layer in range(cfg.layers):
            lp = _layer_params(params, f"l{layer}")
            hs, caches = nn.sequence_forward(self.cell, lp, current, M)
            layer_caches.append(caches)
            current = hs
        return current[:, -1, :], (layer_caches, idx, X.shape[1])

    def _step_features(self, params, X, M):
        # The kernel computes each row as it would alone, so one pass per
        # window length serves the step: the rows of a pass share their
        # padding columns, which the kernel skips, and a step holds the
        # kernel's arrays for the rows of one length at a time.
        features = np.empty((len(X), self.config.hidden), dtype=X.dtype)
        lengths = M.sum(axis=1)
        for length in np.unique(lengths):
            rows = lengths == length
            features[rows] = self._body(params, X[rows], M[rows])[0]
        return features

    def _body_backward(self, params, cache, dfeatures):
        cfg = self.config
        layer_caches, idx, T = cache
        grads: dict[str, np.ndarray] = {}
        B, H = dfeatures.shape
        upstream = np.zeros((B, T, H), dtype=dfeatures.dtype)
        upstream[:, -1, :] = dfeatures
        for layer in reversed(range(cfg.layers)):
            lp = _layer_params(params, f"l{layer}")
            dxs, layer_grads = nn.sequence_backward(self.cell, lp, layer_caches[layer], upstream)
            grads.update({f"l{layer}:{k}": v for k, v in layer_grads.items()})
            upstream = dxs
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

    def _prepare(self, train_samples) -> None:
        if self.config.input_mode == "timed_state":
            if self.decay_seconds is None:
                longest = max(
                    (s.trace.events[s.k - 1].timestamp_ms - s.trace.start_ms) / 1000.0
                    + s.remaining_time
                    for s in train_samples
                )
                self.decay_seconds = max(longest, 1.0)
            self.encoder = None
        else:
            super()._prepare(train_samples)

    def _timed_state_vocabs(self) -> dict[str, Vocabulary]:
        return {name: self.attribute_vocabs[name] for name in self.config.attributes}

    def _inputs(self, events, ks):
        if self.config.input_mode != "timed_state":
            return super()._inputs(events, ks)
        attr_vocabs = self._timed_state_vocabs()
        states = replay_prefixes(self.petri_net, events, ks, self.decay_seconds)
        return np.array([state.to_vector(attr_vocabs) for state in states], dtype=self.dtype), None

    def _build_params(self, rng):
        cfg = self.config
        if cfg.input_mode == "timed_state":
            in_dim = TimedStateVector.width(self.petri_net, self._timed_state_vocabs())
        else:
            in_dim = self.encoder.num_features * self.encoder.max_len
        params: dict[str, np.ndarray] = {}
        for layer in range(cfg.layers):
            dense = nn.init_dense(rng, in_dim, cfg.hidden, self.dtype)
            params[f"l{layer}:W"] = dense["W"]
            params[f"l{layer}:b"] = dense["b"]
            in_dim = cfg.hidden
        params.update(self._init_heads(rng, cfg.hidden))
        return params

    def _body(self, params, X, M):
        current = X.reshape(X.shape[0], -1) if X.ndim == 3 else X
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
            grads[f"l{layer}:W"] = layer_grads["W"]
            grads[f"l{layer}:b"] = layer_grads["b"]
        return grads

    def _sidecar_extra(self) -> dict:
        return {"decay_seconds": self.decay_seconds}

    def _restore(self, sidecar, path_prefix):
        extra = sidecar.get("extra") or {}
        self.decay_seconds = extra.get("decay_seconds")
        super()._restore(sidecar, path_prefix)


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

    def _prepare(self, train_samples) -> None:
        self.encoder = None

    def _inputs(self, events, ks):
        cfg = self.config
        acts = [ev.activity for ev in events]
        rows = ngram_hash_prefixes(acts, ks, cfg.ngram_k, cfg.ngram_dim, cfg.hash_seed)
        return rows.astype(self.dtype), None

    def _build_params(self, rng):
        params: dict[str, np.ndarray] = {}
        in_dim = self.config.ngram_dim
        for layer, hidden in enumerate(self.config.ae_hidden):
            params[f"enc{layer}:W"] = nn.glorot_uniform(rng, in_dim, hidden, self.dtype)
            params[f"enc{layer}:b"] = np.zeros(hidden, dtype=self.dtype)
            in_dim = hidden
        params.update(self._init_heads(rng, in_dim))
        return params

    def _pretrain(self, params, X, y_act, rng, seed):
        """Greedy layerwise reconstruction pretraining of the encoder stack,
        then a head warmup with the encoder frozen."""
        cfg = self.config

        def stage(params, batch_step, n_train, epochs, seed):
            """One SGD stage and its per-epoch losses; a stage of no epochs
            leaves the parameters as they are."""
            if epochs < 1:
                return params, ()
            config = TrainConfig(
                epochs=epochs, patience=epochs, batch_size=cfg.batch_size,
                lr=cfg.lr, momentum=cfg.momentum, clip_norm=cfg.clip_norm,
            )
            params, report = _sgd_train(params, batch_step, None, n_train, config, seed)
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
        return params

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
            grads[f"enc{layer}:W"] = layer_grads["W"]
            grads[f"enc{layer}:b"] = layer_grads["b"]
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
    train_samples = make_prefix_samples(split.train, min_k)
    val_samples = make_prefix_samples(split.validation, min_k) if split.validation.traces else []
    return predictor.fit(train_samples, val_samples, seed)


def save_predictor(predictor: Predictor, path_prefix: str | Path, seed: int = 0) -> list[Path]:
    """Checkpoint = a JSON sidecar sufficient to reload and predict without
    retraining, plus the parameter file of a neural model. Returns the paths
    written."""
    path_prefix = Path(path_prefix)
    path_prefix.parent.mkdir(parents=True, exist_ok=True)
    return predictor._save(path_prefix, seed)


def needs_petri_net(architecture: str, config: TrainConfig) -> bool:
    """Whether a model of this architecture and config reads Petri-net replay
    state, and so cannot be built without a net."""
    return architecture == "mlp" and config.input_mode == "timed_state"


def _read_sidecar(path_prefix: Path) -> dict:
    sidecar = json.loads(path_prefix.with_suffix(".json").read_text(encoding="utf-8"))
    if sidecar.get("format_version") != SIDECAR_VERSION:
        raise ValueError(f"unsupported sidecar version {sidecar.get('format_version')!r}")
    return sidecar


def checkpoint_needs_petri_net(path_prefix: str | Path) -> bool:
    """``needs_petri_net`` of a checkpoint, read from its sidecar alone."""
    sidecar = _read_sidecar(Path(path_prefix))
    return needs_petri_net(sidecar["architecture"], TrainConfig(**sidecar["config"]))


def load_predictor(path_prefix: str | Path, petri_net: PetriNet | None = None) -> Predictor:
    path_prefix = Path(path_prefix)
    sidecar = _read_sidecar(path_prefix)
    predictor = build_predictor(
        sidecar["architecture"],
        TrainConfig(**sidecar["config"]),
        Vocabulary(sidecar["activity_vocab"]),
        {k: Vocabulary(v) for k, v in sidecar["attribute_vocabs"].items()},
        petri_net,
    )
    predictor._restore(sidecar, path_prefix)
    return predictor
