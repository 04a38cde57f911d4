"""Prefix-to-tensor encoders: event encodings, time features, normalization,
padded/continuous/n-gram sequence encodings."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

import numpy as np

from .eventlog import MISSING, Event, EventLog, Vocabulary
from .splitting import PrefixSample


class NotFittedError(RuntimeError):
    """An encoder or normalizer was used before fitting."""


# ---------------------------------------------------------------------------
# event encodings
# ---------------------------------------------------------------------------

def onehot(label: str, vocab: Vocabulary) -> np.ndarray:
    """Binary indicator vector of ``label`` over ``vocab`` (exactly one 1.0)."""
    vec = np.zeros(len(vocab), dtype=np.float64)
    vec[vocab.index(label)] = 1.0
    return vec


def frequency_encode(activities: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    """Per-label occurrence counts of the prefix so far."""
    vec = np.zeros(len(vocab), dtype=np.float64)
    for label in activities:
        vec[vocab.index(label)] += 1.0
    return vec


def time_features(events: Sequence[Event]) -> np.ndarray:
    """Raw per-event time features, shape (T, 4).

    Columns: seconds since the previous event (0 for the first), seconds since
    the case start, seconds since midnight of the event's day (UTC), and
    day-of-week with Monday = 0.
    """
    if not events:
        raise ValueError("time_features needs a non-empty prefix")
    out = np.zeros((len(events), 4), dtype=np.float64)
    start = events[0].timestamp_ms
    for i, ev in enumerate(events):
        dt = datetime.fromtimestamp(ev.timestamp_ms / 1000.0, tz=timezone.utc)
        midnight = dt.replace(hour=0, minute=0, second=0, microsecond=0)
        out[i, 0] = 0.0 if i == 0 else (ev.timestamp_ms - events[i - 1].timestamp_ms) / 1000.0
        out[i, 1] = (ev.timestamp_ms - start) / 1000.0
        out[i, 2] = (dt - midnight).total_seconds()
        out[i, 3] = float(dt.weekday())
    return out


# ---------------------------------------------------------------------------
# continuous-variable normalization
# ---------------------------------------------------------------------------

class Normalizer:
    """Min-max, log (ln(1+x) then min-max), or z-score scaling.

    Statistics must be fitted on training data only; transformed values from
    outside the fitted range are not clipped.
    """

    def __init__(self, method: str = "minmax"):
        if method not in ("minmax", "log", "zscore"):
            raise ValueError(f"unknown normalization method {method!r}")
        self.method = method
        self.fitted = False
        self.low = 0.0
        self.high = 0.0
        self.mean = 0.0
        self.std = 0.0

    def fit(self, values: Iterable[float]) -> "Normalizer":
        data = np.asarray(list(values), dtype=np.float64)
        if data.size == 0:
            raise ValueError("cannot fit a normalizer on no values")
        if self.method == "log":
            data = np.log1p(data)
        if self.method == "zscore":
            self.mean = float(data.mean())
            self.std = float(data.std())
        else:
            self.low = float(data.min())
            self.high = float(data.max())
        self.fitted = True
        return self

    def transform(self, values) -> np.ndarray:
        if not self.fitted:
            raise NotFittedError("normalizer used before fit()")
        data = np.asarray(values, dtype=np.float64)
        if self.method == "zscore":
            if self.std == 0.0:
                return np.zeros_like(data)
            return (data - self.mean) / self.std
        if self.method == "log":
            data = np.log1p(data)
        if self.high == self.low:
            return np.zeros_like(data)
        return (data - self.low) / (self.high - self.low)

    def inverse(self, values) -> np.ndarray:
        if not self.fitted:
            raise NotFittedError("normalizer used before fit()")
        data = np.asarray(values, dtype=np.float64)
        if self.method == "zscore":
            return data * self.std + self.mean
        data = data * (self.high - self.low) + self.low
        if self.method == "log":
            return np.expm1(data)
        return data

    def state(self) -> dict:
        return {
            "method": self.method,
            "low": self.low,
            "high": self.high,
            "mean": self.mean,
            "std": self.std,
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "Normalizer":
        norm = cls(state["method"])
        norm.low = float(state["low"])
        norm.high = float(state["high"])
        norm.mean = float(state["mean"])
        norm.std = float(state["std"])
        norm.fitted = True
        return norm


# ---------------------------------------------------------------------------
# hashed n-grams
# ---------------------------------------------------------------------------

def ngram_universe_size(num_labels: int, max_n: int) -> int:
    """Number of possible label sequences of length 1..max_n."""
    return sum(num_labels ** i for i in range(1, max_n + 1))


def _hash64(data: bytes, seed: int, person: bytes) -> int:
    digest = hashlib.blake2b(
        data, digest_size=8, key=seed.to_bytes(8, "little", signed=False), person=person
    ).digest()
    return int.from_bytes(digest, "little")


def ngram_hash_encode(
    activities: Sequence[str], max_n: int, dim: int, seed: int = 0
) -> np.ndarray:
    """Hashing-trick vector of all contiguous n-grams of length 1..max_n.

    Each n-gram updates slot ``h(g) mod dim`` by a sign drawn from a second,
    independent hash, which counters collision bias. Both hashes are
    deterministic functions of the joined label sequence and ``seed``.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    vec = np.zeros(dim, dtype=np.float64)
    n = len(activities)
    for length in range(1, max_n + 1):
        for start in range(0, n - length + 1):
            gram = "\x1f".join(activities[start : start + length]).encode("utf-8")
            slot = _hash64(gram, seed, b"slot") % dim
            sign = 1.0 if _hash64(gram, seed, b"sign") % 2 == 0 else -1.0
            vec[slot] += sign
    return vec


# ---------------------------------------------------------------------------
# padded prefix encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnGroup:
    """One block of feature columns: a one-hot group, an index column, or reals."""

    name: str
    kind: str  # "onehot" | "index" | "real"
    start: int
    size: int
    vocab_size: int = 0


@dataclass(frozen=True)
class FeatureLayout:
    groups: tuple[ColumnGroup, ...]
    truncated: bool = False

    @property
    def num_features(self) -> int:
        return sum(g.size for g in self.groups)

    def group(self, name: str) -> ColumnGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(name)


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense (T, F) encoding of one prefix with a validity mask.

    Padding rows are all-zero with ``mask`` False and always precede the real
    rows (left padding).
    """

    values: np.ndarray
    mask: np.ndarray
    layout: FeatureLayout

    def __post_init__(self):
        if self.values.ndim != 2 or self.mask.shape != (self.values.shape[0],):
            raise ValueError("FeatureMatrix needs values (T, F) and mask (T,)")


class PrefixEncoder:
    """Turns event prefixes into fixed-size left-padded feature matrices.

    Columns are, in order: activity (one-hot or embedding index), one-hot per
    configured attribute, then four time features. Time columns are scaled to
    comparable ranges: the two unbounded ones by normalizers fitted on
    training prefixes, time-of-day by 1/86400 and weekday by 1/6.
    """

    def __init__(
        self,
        activity_vocab: Vocabulary,
        *,
        activity_mode: str = "onehot",
        attribute_vocabs: Mapping[str, Vocabulary] | None = None,
        include_time: bool = True,
        window: int | None = None,
        max_len: int | None = None,
    ):
        if activity_mode not in ("onehot", "index"):
            raise ValueError(f"unknown activity_mode {activity_mode!r}")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        self.activity_vocab = activity_vocab
        self.activity_mode = activity_mode
        self.attribute_vocabs = dict(attribute_vocabs or {})
        self.include_time = include_time
        self.window = window
        self.max_len = max_len
        self.delta_norm: Normalizer | None = None
        self.elapsed_norm: Normalizer | None = None
        self.fitted = max_len is not None and not include_time

    def fit(self, samples: Iterable[PrefixSample]) -> "PrefixEncoder":
        """Fit sequence length and time statistics on training samples only."""
        longest = 0
        deltas: list[float] = []
        elapsed: list[float] = []
        for sample in samples:
            longest = max(longest, len(sample.prefix))
            if self.include_time:
                feats = time_features(sample.prefix)
                deltas.extend(feats[:, 0].tolist())
                elapsed.extend(feats[:, 1].tolist())
        if longest == 0:
            raise ValueError("cannot fit an encoder on zero samples")
        if self.max_len is None:
            self.max_len = longest if self.window is None else min(longest, self.window)
        if self.include_time:
            self.delta_norm = Normalizer("log").fit(deltas)
            self.elapsed_norm = Normalizer("log").fit(elapsed)
        self.fitted = True
        return self

    def _base_layout(self) -> tuple[ColumnGroup, ...]:
        groups = []
        start = 0
        n_act = len(self.activity_vocab)
        if self.activity_mode == "onehot":
            groups.append(ColumnGroup("activity", "onehot", start, n_act, n_act))
            start += n_act
        else:
            groups.append(ColumnGroup("activity", "index", start, 1, n_act))
            start += 1
        for name, vocab in self.attribute_vocabs.items():
            groups.append(ColumnGroup(f"attr:{name}", "onehot", start, len(vocab), len(vocab)))
            start += len(vocab)
        if self.include_time:
            groups.append(ColumnGroup("time", "real", start, 4))
            start += 4
        return tuple(groups)

    @property
    def layout(self) -> FeatureLayout:
        return FeatureLayout(groups=self._base_layout())

    @property
    def num_features(self) -> int:
        return self.layout.num_features

    def encode(self, events: Sequence[Event]) -> FeatureMatrix:
        """Encode one prefix.

        Takes the last ``min(len, window)`` events and left-pads with zero rows
        up to the encoder's sequence length; prefixes that still exceed it keep
        the most recent events and the layout carries a truncation flag.
        """
        if not self.fitted or self.max_len is None:
            raise NotFittedError("prefix encoder used before fit()")
        if not events:
            raise ValueError("cannot encode an empty prefix")
        rows = list(events)
        if self.window is not None and len(rows) > self.window:
            rows = rows[-self.window :]
        truncated = len(rows) > self.max_len
        if truncated:
            rows = rows[-self.max_len :]
        offset = len(events) - len(rows)

        layout = FeatureLayout(groups=self._base_layout(), truncated=truncated)
        values = np.zeros((self.max_len, layout.num_features), dtype=np.float64)
        mask = np.zeros(self.max_len, dtype=bool)
        if self.include_time:
            feats = time_features(events)  # computed on the full prefix, then windowed
            delta = self.delta_norm.transform(feats[:, 0])
            elapsed = self.elapsed_norm.transform(feats[:, 1])
        pad = self.max_len - len(rows)
        for i, ev in enumerate(rows):
            r = pad + i
            mask[r] = True
            for group in layout.groups:
                if group.name == "activity":
                    idx = self.activity_vocab.index(ev.activity)
                    if group.kind == "onehot":
                        values[r, group.start + idx] = 1.0
                    else:
                        values[r, group.start] = float(idx)
                elif group.kind == "onehot":
                    name = group.name.removeprefix("attr:")
                    vocab = self.attribute_vocabs[name]
                    value = ev.attributes.get(name, MISSING)
                    values[r, group.start + vocab.index(value)] = 1.0
                else:  # time
                    t = offset + i
                    values[r, group.start + 0] = delta[t]
                    values[r, group.start + 1] = elapsed[t]
                    values[r, group.start + 2] = feats[t, 2] / 86400.0
                    values[r, group.start + 3] = feats[t, 3] / 6.0
        return FeatureMatrix(values=values, mask=mask, layout=layout)

    def state(self) -> dict:
        return {
            "activity_mode": self.activity_mode,
            "include_time": self.include_time,
            "window": self.window,
            "max_len": self.max_len,
            "delta_norm": self.delta_norm.state() if self.delta_norm else None,
            "elapsed_norm": self.elapsed_norm.state() if self.elapsed_norm else None,
            "attributes": list(self.attribute_vocabs),
        }

    @classmethod
    def from_state(
        cls,
        state: Mapping,
        activity_vocab: Vocabulary,
        attribute_vocabs: Mapping[str, Vocabulary],
    ) -> "PrefixEncoder":
        enc = cls(
            activity_vocab,
            activity_mode=state["activity_mode"],
            attribute_vocabs={name: attribute_vocabs[name] for name in state["attributes"]},
            include_time=state["include_time"],
            window=state["window"],
            max_len=state["max_len"],
        )
        if state["delta_norm"]:
            enc.delta_norm = Normalizer.from_state(state["delta_norm"])
        if state["elapsed_norm"]:
            enc.elapsed_norm = Normalizer.from_state(state["elapsed_norm"])
        enc.fitted = True
        return enc


# ---------------------------------------------------------------------------
# continuous (windowed token stream) encoding
# ---------------------------------------------------------------------------

def encode_continuous_windows(
    log: EventLog, window: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fixed-size windows over the concatenated activity stream of the log.

    Traces are concatenated in log order into one token stream (the log must
    be EOC-augmented so trace boundaries carry the end-of-case token). Tokens
    are vocabulary indices shifted by one so that 0 is the padding token.
    Consecutive windows of size ``window`` (stride = window) are paired with
    the stream shifted one position left; both are zero-padded at the end.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    vocab = log.activity_vocab
    stream = [vocab.index(ev.activity) + 1 for ev in log.iter_events()]
    num_windows = max(1, -(-len(stream) // window)) if stream else 0
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    shifted = stream[1:]
    for w in range(num_windows):
        chunk = stream[w * window : (w + 1) * window]
        target = shifted[w * window : (w + 1) * window]
        x = np.zeros(window, dtype=np.int64)
        y = np.zeros(window, dtype=np.int64)
        x[: len(chunk)] = chunk
        y[: len(target)] = target
        pairs.append((x, y))
    return pairs
