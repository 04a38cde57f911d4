"""Dense numeric kernel: initializers, feedforward and recurrent cell
forward/backward passes, losses, SGD with momentum, gradient checking,
and parameter checkpointing.

Everything is plain numpy; float32 for training, float64 for gradient
checks. Model parameters are plain name -> array dicts (row-vector
convention, y = x @ W + b), built by the seeded ``init_*`` functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

CELLS = ("rnn", "lstm", "gru")

CHECKPOINT_VERSION = 1


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function; outputs lie in (0, 1)."""
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    """Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out)).astype(dtype)


# ---------------------------------------------------------------------------
# parameter initializers (row-vector convention: y = x @ W + b)
# ---------------------------------------------------------------------------

def init_dense(rng, in_dim: int, out_dim: int, dtype=np.float32) -> dict[str, np.ndarray]:
    return {
        "W": glorot_uniform(rng, in_dim, out_dim, dtype),
        "b": np.zeros(out_dim, dtype=dtype),
    }


def init_rnn(rng, in_dim: int, hidden: int, out_dim: int | None = None, dtype=np.float32):
    """Vanilla-RNN parameters: U maps the input, W the previous hidden state;
    V and c form the optional per-step output head."""
    params = {
        "U": glorot_uniform(rng, in_dim, hidden, dtype),
        "W": glorot_uniform(rng, hidden, hidden, dtype),
        "b": np.zeros(hidden, dtype=dtype),
    }
    if out_dim is not None:
        params["V"] = glorot_uniform(rng, hidden, out_dim, dtype)
        params["c"] = np.zeros(out_dim, dtype=dtype)
    return params


def init_lstm(rng, in_dim: int, hidden: int, dtype=np.float32):
    """LSTM parameters; U* map the input, W* the previous hidden state.

    The forget-gate bias starts at +1.0, which helps toy-scale convergence.
    """
    params = {}
    for gate in ("f", "i", "o", "c"):
        params[f"U{gate}"] = glorot_uniform(rng, in_dim, hidden, dtype)
        params[f"W{gate}"] = glorot_uniform(rng, hidden, hidden, dtype)
        params[f"b{gate}"] = np.zeros(hidden, dtype=dtype)
    params["bf"] = params["bf"] + np.asarray(1.0, dtype=dtype)
    return params


def init_gru(rng, in_dim: int, hidden: int, dtype=np.float32):
    """GRU parameters; W* map the input, U* the previous hidden state."""
    params = {}
    for gate in ("z", "r", "h"):
        params[f"W{gate}"] = glorot_uniform(rng, in_dim, hidden, dtype)
        params[f"U{gate}"] = glorot_uniform(rng, hidden, hidden, dtype)
        params[f"b{gate}"] = np.zeros(hidden, dtype=dtype)
    return params


def init_cell(cell: str, rng, in_dim: int, hidden: int, dtype=np.float32):
    if cell == "rnn":
        return init_rnn(rng, in_dim, hidden, dtype=dtype)
    if cell == "lstm":
        return init_lstm(rng, in_dim, hidden, dtype)
    if cell == "gru":
        return init_gru(rng, in_dim, hidden, dtype)
    raise ValueError(f"unknown cell {cell!r}")


# ---------------------------------------------------------------------------
# cell states and single steps
# ---------------------------------------------------------------------------

@dataclass
class CellState:
    """Recurrent state: hidden vector ``h`` and, for LSTM only, cell vector ``C``."""

    h: np.ndarray
    C: np.ndarray | None = None


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def rnn_step(params: Mapping[str, np.ndarray], x, h_prev):
    """One vanilla-RNN step: h = tanh(b + h_prev W + x U), o = c + h V.

    Returns (h, o); o is None when the parameters carry no output head.
    """
    x, squeeze = _as_batch(np.asarray(x))
    h_prev, _ = _as_batch(np.asarray(h_prev))
    _require(x.shape[1] == params["U"].shape[0], "rnn_step: input width mismatch")
    _require(h_prev.shape[1] == params["W"].shape[0], "rnn_step: hidden width mismatch")
    h = np.tanh(params["b"] + h_prev @ params["W"] + x @ params["U"])
    o = params["c"] + h @ params["V"] if "V" in params else None
    if squeeze:
        return h[0], (o[0] if o is not None else None)
    return h, o


def lstm_step(params: Mapping[str, np.ndarray], x, state: CellState) -> CellState:
    """One LSTM step through the forget/input/output gates.

    f, i, o = sigmoid(b* + x U* + h_prev W*); c~ = tanh(bc + x Uc + h_prev Wc);
    C = f * C_prev + i * c~; h = o * tanh(C).
    """
    x, squeeze = _as_batch(np.asarray(x))
    h_prev, _ = _as_batch(np.asarray(state.h))
    _require(state.C is not None, "lstm_step: state needs a cell vector C")
    C_prev, _ = _as_batch(np.asarray(state.C))
    _require(x.shape[1] == params["Uf"].shape[0], "lstm_step: input width mismatch")
    _require(h_prev.shape[1] == params["Wf"].shape[0], "lstm_step: hidden width mismatch")
    (h, C), _ = _lstm_forward(params, x, h_prev, C_prev)
    if squeeze:
        return CellState(h=h[0], C=C[0])
    return CellState(h=h, C=C)


def gru_step(params: Mapping[str, np.ndarray], x, h_prev) -> np.ndarray:
    """One GRU step: z, r = sigmoid(x W* + h_prev U* + b*);
    h~ = tanh(x Wh + (r * h_prev) Uh + bh); h = z * h_prev + (1 - z) * h~."""
    x, squeeze = _as_batch(np.asarray(x))
    h_prev, _ = _as_batch(np.asarray(h_prev))
    _require(x.shape[1] == params["Wz"].shape[0], "gru_step: input width mismatch")
    _require(h_prev.shape[1] == params["Uz"].shape[0], "gru_step: hidden width mismatch")
    h, _ = _gru_forward(params, x, h_prev)
    return h[0] if squeeze else h


# internal step passes with caches ------------------------------------------------

def _rnn_forward(params, x, h_prev):
    h = np.tanh(params["b"] + h_prev @ params["W"] + x @ params["U"])
    return h, (x, h_prev, h)


def _rnn_backward(params, cache, dh):
    x, h_prev, h = cache
    da = dh * (1.0 - h * h)
    grads = {
        "U": x.T @ da,
        "W": h_prev.T @ da,
        "b": da.sum(axis=0),
    }
    dx = da @ params["U"].T
    dh_prev = da @ params["W"].T
    return dx, dh_prev, grads


def _lstm_forward(params, x, h_prev, C_prev):
    f = sigmoid(params["bf"] + x @ params["Uf"] + h_prev @ params["Wf"])
    i = sigmoid(params["bi"] + x @ params["Ui"] + h_prev @ params["Wi"])
    o = sigmoid(params["bo"] + x @ params["Uo"] + h_prev @ params["Wo"])
    c_tilde = np.tanh(params["bc"] + x @ params["Uc"] + h_prev @ params["Wc"])
    C = f * C_prev + i * c_tilde
    tC = np.tanh(C)
    h = o * tC
    cache = (x, h_prev, C_prev, f, i, o, c_tilde, tC)
    return (h, C), cache


def _lstm_backward(params, cache, dh, dC):
    x, h_prev, C_prev, f, i, o, c_tilde, tC = cache
    do = dh * tC
    dC_total = dC + dh * o * (1.0 - tC * tC)
    df = dC_total * C_prev
    di = dC_total * c_tilde
    dc_tilde = dC_total * i
    dC_prev = dC_total * f

    da_f = df * f * (1.0 - f)
    da_i = di * i * (1.0 - i)
    da_o = do * o * (1.0 - o)
    da_c = dc_tilde * (1.0 - c_tilde * c_tilde)

    grads = {}
    dx = np.zeros_like(x)
    dh_prev = np.zeros_like(h_prev)
    for gate, da in (("f", da_f), ("i", da_i), ("o", da_o), ("c", da_c)):
        grads[f"U{gate}"] = x.T @ da
        grads[f"W{gate}"] = h_prev.T @ da
        grads[f"b{gate}"] = da.sum(axis=0)
        dx += da @ params[f"U{gate}"].T
        dh_prev += da @ params[f"W{gate}"].T
    return dx, dh_prev, dC_prev, grads


def _gru_forward(params, x, h_prev):
    z = sigmoid(x @ params["Wz"] + h_prev @ params["Uz"] + params["bz"])
    r = sigmoid(x @ params["Wr"] + h_prev @ params["Ur"] + params["br"])
    rh = r * h_prev
    h_tilde = np.tanh(x @ params["Wh"] + rh @ params["Uh"] + params["bh"])
    h = z * h_prev + (1.0 - z) * h_tilde
    cache = (x, h_prev, z, r, rh, h_tilde)
    return h, cache


def _gru_backward(params, cache, dh):
    x, h_prev, z, r, rh, h_tilde = cache
    dz = dh * (h_prev - h_tilde)
    dh_tilde = dh * (1.0 - z)
    dh_prev = dh * z

    da_h = dh_tilde * (1.0 - h_tilde * h_tilde)
    drh = da_h @ params["Uh"].T
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r

    da_z = dz * z * (1.0 - z)
    da_r = dr * r * (1.0 - r)

    grads = {
        "Wh": x.T @ da_h,
        "Uh": rh.T @ da_h,
        "bh": da_h.sum(axis=0),
        "Wz": x.T @ da_z,
        "Uz": h_prev.T @ da_z,
        "bz": da_z.sum(axis=0),
        "Wr": x.T @ da_r,
        "Ur": h_prev.T @ da_r,
        "br": da_r.sum(axis=0),
    }
    dx = da_h @ params["Wh"].T + da_z @ params["Wz"].T + da_r @ params["Wr"].T
    dh_prev = dh_prev + da_z @ params["Uz"].T + da_r @ params["Ur"].T
    return dx, dh_prev, grads


# ---------------------------------------------------------------------------
# masked sequence passes
# ---------------------------------------------------------------------------

def check_left_padded(mask: np.ndarray) -> None:
    """Padding must precede real steps; interleaved padding is an error."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 1:
        mask = mask[None, :]
    if np.any(mask[:, :-1] & ~mask[:, 1:]):
        raise ValueError("mask interleaves padding with real steps (left padding required)")


def sequence_forward(
    cell: str,
    params: Mapping[str, np.ndarray],
    inputs: np.ndarray,
    mask: np.ndarray | None = None,
    h0: np.ndarray | None = None,
    C0: np.ndarray | None = None,
):
    """Run a recurrent cell over (B, T, D) inputs, carrying state across
    mask-true steps only; padding steps pass state through unchanged.

    Returns (hs, caches) where hs has shape (B, T, H).
    """
    if cell not in CELLS:
        raise ValueError(f"unknown cell {cell!r}")
    B, T, _ = inputs.shape
    hidden = params["b" if cell == "rnn" else ("bz" if cell == "gru" else "bf")].shape[0]
    if mask is None:
        mask = np.ones((B, T), dtype=bool)
    check_left_padded(mask)
    h = np.zeros((B, hidden), dtype=inputs.dtype) if h0 is None else h0.astype(inputs.dtype)
    C = np.zeros((B, hidden), dtype=inputs.dtype) if C0 is None else C0.astype(inputs.dtype)
    hs = np.zeros((B, T, hidden), dtype=inputs.dtype)
    caches = []
    for t in range(T):
        m = mask[:, t][:, None].astype(inputs.dtype)
        x_t = inputs[:, t, :]
        if cell == "rnn":
            h_new, cache = _rnn_forward(params, x_t, h)
            C_new = C
        elif cell == "lstm":
            (h_new, C_new), cache = _lstm_forward(params, x_t, h, C)
        else:
            h_new, cache = _gru_forward(params, x_t, h)
            C_new = C
        h = m * h_new + (1.0 - m) * h
        C = m * C_new + (1.0 - m) * C
        hs[:, t, :] = h
        caches.append((cache, m))
    return hs, caches


def sequence_backward(
    cell: str,
    params: Mapping[str, np.ndarray],
    caches,
    dhs: np.ndarray,
):
    """Backpropagation through time over a cached forward pass.

    ``dhs`` is the upstream gradient on every step's hidden output, shape
    (B, T, H). Returns (dxs, grads) with dxs shaped like the inputs.
    """
    T = len(caches)
    B, _, H = dhs.shape
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh = np.zeros((B, H), dtype=dhs.dtype)
    dC = np.zeros((B, H), dtype=dhs.dtype)
    dxs = None
    for t in reversed(range(T)):
        cache, m = caches[t]
        dh_total = dh + dhs[:, t, :]
        d_inner = dh_total * m
        if cell == "rnn":
            dx, dh_prev, step_grads = _rnn_backward(params, cache, d_inner)
            dC_prev = dC
        elif cell == "lstm":
            dC_inner = dC * m
            dx, dh_prev, dC_prev, step_grads = _lstm_backward(params, cache, d_inner, dC_inner)
            dC_prev = dC_prev + dC * (1.0 - m)
        else:
            dx, dh_prev, step_grads = _gru_backward(params, cache, d_inner)
            dC_prev = dC
        if dxs is None:
            dxs = np.zeros((B, T, dx.shape[1]), dtype=dhs.dtype)
        dxs[:, t, :] = dx
        dh = dh_prev + dh_total * (1.0 - m)
        dC = dC_prev
        for k, g in step_grads.items():
            grads[k] += g
    return dxs, grads


def forward_sequence(
    cell: str,
    params: Mapping[str, np.ndarray],
    inputs,
    mask: np.ndarray | None = None,
    h0: np.ndarray | None = None,
    C0: np.ndarray | None = None,
) -> np.ndarray:
    """Mask-aware hidden-state sequence of a recurrent cell.

    Accepts a FeatureMatrix, a single (T, D) sequence, or a (B, T, D) batch
    and returns h_t for every step with matching rank.
    """
    if hasattr(inputs, "values") and hasattr(inputs, "mask"):
        if mask is None:
            mask = inputs.mask
        inputs = inputs.values
    values = np.asarray(inputs)
    single = values.ndim == 2
    if single:
        values = values[None, ...]
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)[None, ...]
        if h0 is not None:
            h0 = np.asarray(h0)[None, ...]
        if C0 is not None:
            C0 = np.asarray(C0)[None, ...]
    hs, _ = sequence_forward(cell, params, values, mask, h0, C0)
    return hs[0] if single else hs


# ---------------------------------------------------------------------------
# dense layers and embeddings
# ---------------------------------------------------------------------------

def affine_forward(x, W, b):
    return x @ W + b, (x, W)


def affine_backward(cache, dout):
    x, W = cache
    return dout @ W.T, {"W": x.T @ dout, "b": dout.sum(axis=0)}


def relu_forward(x):
    out = np.maximum(x, 0.0)
    return out, out


def relu_backward(cache, dout):
    return dout * (cache > 0.0)


def embedding_backward(table: np.ndarray, indices: np.ndarray, dout: np.ndarray):
    grad = np.zeros_like(table)
    np.add.at(grad, indices, dout)
    return grad


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy of softmax(logits) against integer targets.

    Returns (loss, dlogits).
    """
    probs = softmax(logits.astype(np.float64))
    B = logits.shape[0]
    picked = probs[np.arange(B), targets]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(B), targets] -= 1.0
    dlogits /= B
    return loss, dlogits.astype(logits.dtype)


def mae_loss(pred: np.ndarray, target: np.ndarray):
    """Mean absolute error with sign subgradient. Returns (loss, dpred)."""
    diff = pred.astype(np.float64) - target
    loss = float(np.abs(diff).mean())
    dpred = (np.sign(diff) / diff.size).astype(pred.dtype)
    return loss, dpred


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all elements. Returns (loss, dpred)."""
    diff = pred.astype(np.float64) - target
    loss = float((diff * diff).mean())
    dpred = (2.0 * diff / diff.size).astype(pred.dtype)
    return loss, dpred


def combine_losses(task_losses: Sequence[float]) -> float:
    """Unweighted sum of per-task losses."""
    total = 0.0
    for loss in task_losses:
        if not math.isfinite(loss):
            raise ValueError(f"non-finite task loss {loss!r}")
        total += loss
    return total


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def global_norm(grads: Mapping[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    return math.sqrt(total)


class SGD:
    """SGD with classical momentum and optional global gradient-norm clipping."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.9, clip_norm: float | None = 5.0):
        self.lr = lr
        self.momentum = momentum
        self.clip_norm = clip_norm
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        scale = 1.0
        if self.clip_norm is not None:
            norm = global_norm(grads)
            if norm > self.clip_norm:
                scale = self.clip_norm / norm
        for name, grad in grads.items():
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(params[name])
            v = self.momentum * v - self.lr * scale * grad
            self.velocity[name] = v
            params[name] = params[name] + v


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def gradcheck(
    loss_fn: Callable[[dict[str, np.ndarray]], tuple[float, Mapping[str, np.ndarray]]],
    params: Mapping[str, np.ndarray],
    epsilon: float = 1e-5,
) -> float:
    """Central-difference verification of analytic gradients.

    ``loss_fn(params)`` must return (scalar loss, gradient dict). For every
    parameter entry the analytic gradient is compared to
    (L(p + eps) - L(p - eps)) / (2 eps); the result is the maximum of
    |ga - gn| / max(|ga|, |gn|, 1e-8) over all entries. Parameters are cast
    to float64 first; the total parameter count is capped at 10^4.
    """
    work = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}
    total = sum(v.size for v in work.values())
    if total > 10_000:
        raise ValueError(f"gradcheck capped at 1e4 parameters, got {total}")
    loss, grads = loss_fn(work)
    if not math.isfinite(loss):
        raise ValueError(f"non-finite loss {loss!r}")
    worst = 0.0
    for name in sorted(work):
        array = work[name]
        analytic = np.asarray(grads[name], dtype=np.float64)
        flat = array.reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + epsilon
            up, _ = loss_fn(work)
            flat[j] = original - epsilon
            down, _ = loss_fn(work)
            flat[j] = original
            numeric = (up - down) / (2.0 * epsilon)
            ga = float(analytic.reshape(-1)[j])
            denom = max(abs(ga), abs(numeric), 1e-8)
            worst = max(worst, abs(ga - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_params(path: str | Path, params: Mapping[str, np.ndarray], meta: Mapping | None = None) -> None:
    """Write named arrays (bit-exact) plus a JSON metadata blob to ``.npz``."""
    payload = {f"param:{k}": np.ascontiguousarray(v) for k, v in params.items()}
    header = {"checkpoint_version": CHECKPOINT_VERSION, "meta": dict(meta or {})}
    payload["__meta__"] = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **payload)


def load_params(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(path) as data:
        header = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if header.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header.get('checkpoint_version')!r}")
        params = {
            k.removeprefix("param:"): data[k].copy()
            for k in data.files
            if k.startswith("param:")
        }
    return params, header.get("meta", {})
