"""Prefix-to-tensor encoders: event encodings, time features, normalization,
padded and hashed n-gram sequence encodings."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .eventlog import MISSING, Event, Vocabulary
from .splitting import FlatPrefixes, PrefixSample, SampleSet, suffix_ids


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
        data = np.array(values if isinstance(values, np.ndarray) else list(values), dtype=np.float64)
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
    distinct = Vocabulary(dict.fromkeys(activities))  # a gram's hash depends on its labels alone
    n = len(activities)
    return ngram_hash_codes(distinct.indices(activities), distinct.labels, [n], [n], max_n, dim, seed)[0]


def ngram_hash_codes(
    codes, labels: Sequence[str], ends, ks, max_n: int, dim: int, seed: int = 0, dtype=np.float64
) -> np.ndarray:
    """Row i is the hashed n-gram vector, as ``dtype``, of the labels
    ``labels[c]`` of the codes ``codes[ends[i] - ks[i] : ends[i]]``, for
    prefixes laid out as in :class:`~ppmbench.splitting.FlatPrefixes`: each
    starts at its trace's start, and none starts inside another.

    Array passes: for each n, the gram of n labels that ends at each event,
    within its prefix, gets an id from :func:`~ppmbench.splitting.suffix_ids`
    and ``_gram_code`` runs once per distinct gram. One ``np.add.at`` per n
    adds the signs into an int32 (events + 1, dim) accumulator, whose
    cumulative sum gives each prefix's row as the sum at its end minus the
    sum at its start; an empty prefix's row is zero. Exact: every entry is a
    small integer, the difference of two wrapped int32 sums included, and a
    float32 row holds it exactly.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    codes = np.asarray(codes, dtype=np.int64)
    ends, ks = np.asarray(ends, dtype=np.int64), np.asarray(ks, dtype=np.int64)
    starts = ends - ks
    if len(ends) and (starts.min() < 0 or ks.min() < 0 or ends.max() > len(codes)):
        raise ValueError(f"a prefix lies outside the {len(codes)} labels")
    at = np.arange(len(codes))
    reset = np.zeros(len(codes) + 1, dtype=bool)
    reset[starts] = True
    back = at - np.maximum.accumulate(np.where(reset[:-1], at, 0))  # events before each one in its prefix
    padded = np.append(codes, -1)
    columns = [padded[np.where(back >= j, at - j, -1)] for j in range(min(max_n, int(back.max(initial=-1)) + 1))]
    sums = np.zeros((len(codes) + 1, dim), dtype=np.int32)  # row e + 1: the signs of the grams ending at event e
    for rows, slots, signs in _hashed_grams(columns, labels, dim, seed):
        np.add.at(sums, (rows + 1, slots), signs)
    np.cumsum(sums, axis=0, out=sums)
    return (sums[ends] - sums[starts]).astype(dtype)


def ngram_hash_extend(
    vectors: np.ndarray, tails: np.ndarray, tokens, labels: Sequence[str], max_n: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Hashed n-gram vectors of sequences extended by one code each: row i
    is ``vectors[i]``, the vector of a sequence whose last codes are
    ``tails[i]`` (``max_n - 1`` slots, as
    :meth:`~ppmbench.splitting.FlatPrefixes.last_codes` holds them), plus
    the n-grams that end at code ``tokens[i]``, codes read into ``labels``,
    in the dtype of ``vectors``; returned with the new tails. Exact, as
    :func:`ngram_hash_codes` is, in float64 or float32."""
    tokens = np.asarray(tokens, dtype=np.int64)
    vectors = vectors.copy()
    columns = [tokens] + [tails[:, -j] for j in range(1, max_n)]
    for rows, slots, signs in _hashed_grams(columns, labels, vectors.shape[1], seed):
        np.add.at(vectors, (rows, slots), signs)
    return vectors, np.column_stack([tails, tokens])[:, 1:]


def _hashed_grams(columns: list[np.ndarray], labels: Sequence[str], dim: int, seed: int):
    """For n = 1 .. len(columns): the rows whose codes go back n places in
    ``columns`` (as :func:`~ppmbench.splitting.suffix_ids` reads them), with
    the slot and the int8 sign of each one's gram, the labels of those n
    codes oldest first. ``_gram_code`` runs once per distinct gram."""
    for n, (rows, ids, first) in enumerate(suffix_ids(columns), 1):
        grams = np.stack([column[first] for column in columns[n - 1 :: -1]], axis=1).tolist()
        hashed = [_gram_code(tuple(map(labels.__getitem__, gram)), seed) for gram in grams]
        slots = np.array([slot_hash % dim for slot_hash, _ in hashed], dtype=np.int64)
        signs = np.array([sign for _, sign in hashed], dtype=np.int8)
        yield rows, slots[ids], signs[ids]


@lru_cache(maxsize=1 << 14)
def _gram_code(gram: tuple[str, ...], seed: int) -> tuple[int, float]:
    """Slot hash and sign of one n-gram. Cached: the grams of a log repeat
    across the sample sets and decode steps that hash them, and each costs
    two blake2b calls."""
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


def _check_nonempty(flat: FlatPrefixes) -> None:
    """``ValueError`` if some prefix of ``flat`` holds no events: it has no row to encode."""
    if not flat.ks.all():
        raise ValueError(f"cannot encode an empty prefix (prefix {int(np.argmin(flat.ks))} of {len(flat.ks)})")


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

        The time normalizers are min-max, so they read the time columns of
        the samples' :attr:`SampleSet.flat` layout, which holds their traces
        whole: only the events ``inside`` a prefix count, each once, so no
        event after every sample of its trace does.
        """
        flat = SampleSet.of(samples).flat
        if not len(flat.ks):
            raise ValueError("cannot fit an encoder on zero samples")
        _check_nonempty(flat)
        if self.max_len is None:
            k = int(flat.ks.max())
            self.max_len = k if self.window is None else min(k, self.window)
        if self.include_time:
            inside = flat.inside
            ms = flat.ms[inside]
            self.delta_norm = Normalizer("log").fit((ms - flat.prev_ms[inside]) / 1000.0)
            self.elapsed_norm = Normalizer("log").fit((ms - flat.first_ms[inside]) / 1000.0)
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

    @property
    def limit(self) -> int:
        """The most events a window holds, ``min(window, max_len)``: a longer
        prefix's inputs hold its last ``limit`` events."""
        return self.max_len if self.window is None else min(self.window, self.max_len)

    def encode(self, events: Sequence[Event]) -> FeatureMatrix:
        """Encode one prefix.

        Takes the last ``min(len, window)`` events and left-pads with zero rows
        up to the encoder's sequence length; prefixes that still exceed it keep
        the most recent events and the layout carries a truncation flag.
        """
        rows, ids = self.encode_flat(FlatPrefixes.of([events], [0], [len(events)]))
        kept = len(events) if self.window is None else min(len(events), self.window)
        layout = replace(self.layout, truncated=kept > self.max_len)
        return FeatureMatrix(values=rows[ids[0]], mask=ids[0] != 0, layout=layout)

    def encode_flat(self, flat: FlatPrefixes, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
        """The padded feature rows (E + 1, F) as ``dtype`` and the int32 row
        ids (N, T) of the N prefixes of ``flat``: row 0 is a zero row, then
        one row per event ``inside`` a prefix, and prefix j's window, as
        :meth:`encode` gives it, is ``rows[ids[j]]`` with mask ``ids[j] != 0``.

        One pass: :meth:`encode_rows` builds the feature rows from the
        events' label codes (:meth:`FlatPrefixes.codes`; an absent attribute
        is missing), cast to ``dtype`` once, and :meth:`windows` gives each
        prefix's row ids. No (N, T, F) array is built: a reader cuts the
        windows it reads, ``np.take(rows, ids[idx], axis=0)``. An empty
        prefix is a ``ValueError``.
        """
        if not self.fitted or self.max_len is None:
            raise NotFittedError("prefix encoder used before fit()")
        _check_nonempty(flat)
        inside = flat.inside
        activities = flat.codes(self.activity_vocab)[inside]
        attributes = np.empty((len(activities), len(self.attribute_vocabs)), dtype=np.int64)
        for column, (name, vocab) in zip(attributes.T, self.attribute_vocabs.items()):
            column[:] = flat.codes(vocab, name)[inside]
            absent = column < 0
            if absent.any():
                column[absent] = vocab.index(MISSING)
        times = (flat.ms[inside], flat.prev_ms[inside], flat.first_ms[inside])
        rows = self.encode_rows(activities, attributes, *times)
        padded = np.zeros((len(rows) + 1, rows.shape[1]), dtype=dtype)  # row 0 pads
        padded[1:] = rows
        outside = np.concatenate([[0], np.cumsum(~inside)])  # the events left out before each one
        return padded, self.windows(flat.ends - outside[flat.ends] + 1, flat.ks)

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

    def window_mask(self, ks) -> np.ndarray:
        """(len(ks), T) bool, ``T`` being ``max_len``: the slots of a
        left-padded window of ``ks[j]`` events that hold one, its last
        ``min(ks[j], limit)``."""
        length = self.max_len
        return np.arange(length) >= length - np.minimum(np.asarray(ks)[:, None], self.limit)

    def windows(self, ends, ks) -> np.ndarray:
        """Row ids (len(ks), T) int32 of left-padded windows, ``T`` being
        ``max_len``: window j reads the last ``min(ks[j], limit)`` rows
        before row ``ends[j]``, and its padding slots read row 0, which must
        be a zero row, so its mask is ``ids[j] != 0``."""
        length = self.max_len
        slots = np.arange(length)
        ids = np.where(self.window_mask(ks), np.asarray(ends)[:, None] - length + slots, 0)
        return ids.astype(np.int32)

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

