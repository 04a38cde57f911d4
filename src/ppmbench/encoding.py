"""Prefix-to-tensor encoders: event encodings, time features, normalization,
padded and hashed n-gram sequence encodings."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .eventlog import MISSING, Event, Vocabulary
from .splitting import PrefixSample


MS_PER_DAY = 86_400_000


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


def time_features(events: Sequence[Event]) -> np.ndarray:
    """Raw per-event time features, shape (T, 4), computed from the events'
    UTC epoch milliseconds in integer arithmetic; row i reads events 0..i only.

    Columns: seconds since the previous event (0 for the first), seconds since
    the case start, seconds since midnight of the event's day (UTC), and
    day-of-week with Monday = 0.
    """
    if not events:
        raise ValueError("time_features needs a non-empty prefix")
    ms = np.fromiter((ev.timestamp_ms for ev in events), dtype=np.int64, count=len(events))
    return _time_columns(ms, np.concatenate([ms[:1], ms[:-1]]), ms[:1])


def _time_columns(ms: np.ndarray, prev_ms: np.ndarray, first_ms: np.ndarray) -> np.ndarray:
    """:func:`time_features` of events at ``ms`` whose previous event is at
    ``prev_ms`` (its own time for a case's first event) and whose case starts
    at ``first_ms``, all int64 epoch milliseconds."""
    day, ms_of_day = np.divmod(ms, MS_PER_DAY)  # floor division: pre-1970 days count down
    out = np.empty((len(ms), 4), dtype=np.float64)
    out[:, 0] = (ms - prev_ms) / 1000.0
    out[:, 1] = (ms - first_ms) / 1000.0
    out[:, 2] = ms_of_day / 1000.0
    out[:, 3] = (day + 3) % 7  # 1970-01-01 was a Thursday
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
    return ngram_hash_prefixes(activities, [len(activities)], max_n, dim, seed)[0]


def ngram_hash_prefixes(
    activities: Sequence[str], ks: Sequence[int], max_n: int, dim: int, seed: int = 0
) -> np.ndarray:
    """``ngram_hash_encode(activities[:k], max_n, dim, seed)`` for each k in
    ``ks`` (any order, repeats allowed), as the rows of one float64 array.

    One pass over ``activities[:max(ks)]``: prefix k + 1 is prefix k plus the
    n-grams that end at its last label. The result is exact, because every
    update adds +1 or -1 to an integer-valued float64.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    acts = tuple(activities)
    rows_at: dict[int, list[int]] = {}
    for row, k in enumerate(ks):
        if not 0 <= k <= len(acts):
            raise ValueError(f"prefix length {k} outside 0..{len(acts)}")
        rows_at.setdefault(k, []).append(row)
    out = np.zeros((len(ks), dim), dtype=np.float64)
    vec = [0.0] * dim
    for end in range(max(rows_at, default=0) + 1):
        for length in range(1, min(max_n, end) + 1):
            slot_hash, sign = _gram_code(acts[end - length : end], seed)
            vec[slot_hash % dim] += sign
        for row in rows_at.get(end, ()):
            out[row] = vec
    return out


@lru_cache(maxsize=1 << 14)
def _gram_code(gram: tuple[str, ...], seed: int) -> tuple[int, float]:
    """Slot hash and sign of one n-gram. Cached: the grams of a log repeat
    across its prefixes and traces, and each costs two blake2b calls."""
    data = "\x1f".join(gram).encode("utf-8")
    sign = 1.0 if _hash64(data, seed, b"sign") % 2 == 0 else -1.0
    return _hash64(data, seed, b"slot"), sign


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
        """Fit sequence length and time statistics on training samples only.

        The time normalizers are min-max, so the time features of each trace
        are read once, up to its longest sampled prefix.
        """
        # the last of a trace's samples in ascending k is its longest one
        longest = {id(s.trace): s for s in sorted(samples, key=lambda s: s.k)}
        if not longest:
            raise ValueError("cannot fit an encoder on zero samples")
        if self.max_len is None:
            k = max(sample.k for sample in longest.values())
            self.max_len = k if self.window is None else min(k, self.window)
        if self.include_time:
            feats = np.concatenate([time_features(s.prefix) for s in longest.values()])
            self.delta_norm = Normalizer("log").fit(feats[:, 0])
            self.elapsed_norm = Normalizer("log").fit(feats[:, 1])
        self.fitted = True
        return self

    @cached_property
    def layout(self) -> FeatureLayout:
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
        return FeatureLayout(groups=tuple(groups))

    @property
    def num_features(self) -> int:
        return self.layout.num_features

    def encode(self, events: Sequence[Event]) -> FeatureMatrix:
        """Encode one prefix.

        Takes the last ``min(len, window)`` events and left-pads with zero rows
        up to the encoder's sequence length; prefixes that still exceed it keep
        the most recent events and the layout carries a truncation flag.
        """
        values, mask = self.encode_prefixes(events, [len(events)])
        rows = len(events) if self.window is None else min(len(events), self.window)
        layout = replace(self.layout, truncated=rows > self.max_len)
        return FeatureMatrix(values=values[0], mask=mask[0], layout=layout)

    def encode_prefixes(
        self, events: Sequence[Event], ks: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Values (len(ks), T, F) and mask (len(ks), T) of ``events[:k]`` for
        each k in ``ks``, each encoded as :meth:`encode` does.

        The feature rows of ``events[:max(ks)]`` are built once, by
        :meth:`encode_rows`; each prefix takes its window by :meth:`windows`.
        """
        if not self.fitted or self.max_len is None:
            raise NotFittedError("prefix encoder used before fit()")
        if min(ks) < 1:
            raise ValueError("cannot encode an empty prefix")
        events = events[: max(ks)]
        ms = np.fromiter((ev.timestamp_ms for ev in events), dtype=np.int64, count=len(events))
        attributes = [
            [vocab.index(ev.attributes.get(name, MISSING)) for name, vocab in self.attribute_vocabs.items()]
            for ev in events
        ]
        rows = self.encode_rows(
            np.array([self.activity_vocab.index(ev.activity) for ev in events]),
            np.array(attributes, dtype=np.int64),
            ms,
            np.concatenate([ms[:1], ms[:-1]]),
            ms[:1],
        )
        rows = np.concatenate([np.zeros((1, rows.shape[1])), rows])
        return self.windows(rows, np.asarray(ks) + 1, ks)

    def encode_rows(self, activities, attributes, ms, prev_ms, first_ms) -> np.ndarray:
        """Feature rows (n, F) of n events from per-event arrays: activity
        indices (n,), attribute indices (n, A) in ``attribute_vocabs`` order,
        and the event's own, previous and case-start timestamps (see
        :func:`_time_columns`). Row i reads entry i of each array only."""
        rows = np.zeros((len(activities), self.layout.num_features), dtype=np.float64)
        at = np.arange(len(activities))
        attribute_columns = iter(np.asarray(attributes).T)
        for group in self.layout.groups:
            if group.name == "activity":
                if group.kind == "onehot":
                    rows[at, group.start + activities] = 1.0
                else:
                    rows[:, group.start] = activities
            elif group.kind == "onehot":
                rows[at, group.start + next(attribute_columns)] = 1.0
            else:  # time
                feats = _time_columns(ms, prev_ms, first_ms)
                rows[:, group.start + 0] = self.delta_norm.transform(feats[:, 0])
                rows[:, group.start + 1] = self.elapsed_norm.transform(feats[:, 1])
                rows[:, group.start + 2] = feats[:, 2] / 86400.0
                rows[:, group.start + 3] = feats[:, 3] / 6.0
        return rows

    def windows(self, rows: np.ndarray, ends, ks) -> tuple[np.ndarray, np.ndarray]:
        """Values (len(ks), T, F) and mask (len(ks), T) of left-padded
        windows, ``T`` being ``max_len``: window j holds the last
        ``min(ks[j], window, T)`` rows before ``rows[ends[j]]``, and its
        padding slots read ``rows[0]``, which must be a zero row."""
        length = self.max_len
        limit = length if self.window is None else min(self.window, length)
        ks = np.asarray(ks)[:, None]
        slots = np.arange(length)
        mask = slots >= length - np.minimum(ks, limit)
        return rows[np.where(mask, np.asarray(ends)[:, None] - length + slots, 0)], mask

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

