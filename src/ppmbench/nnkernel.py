"""Dense numeric kernel: initializers, feedforward and recurrent cell
forward/backward passes, losses, SGD with momentum, gradient checking,
and parameter checkpointing.

Everything is plain numpy; float32 for training, float64 for gradient
checks. Model parameters are plain name -> array dicts (row-vector
convention, y = x @ W + b), built by the seeded ``init_*`` functions. A
recurrent cell keeps the weights of all its gates side by side in one
``U``, ``W`` and ``b``.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .atomic import write_atomic

# gate order of the column blocks of a fused cell's U, W and b
CELL_GATES = {"rnn": ("h",), "lstm": ("f", "i", "o", "c"), "gru": ("z", "r", "h")}
CELLS = tuple(CELL_GATES)

CHECKPOINT_VERSION = 2


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)); outputs lie in [0, 1]."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


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


def init_cell(cell: str, rng, in_dim: int, hidden: int, dtype=np.float32):
    """Fused recurrent-cell parameters: ``U`` (in_dim, g*hidden) maps the
    input, ``W`` (hidden, g*hidden) the previous hidden state, ``b``
    (g*hidden) is the bias. Column block k belongs to gate k of
    ``CELL_GATES[cell]``.

    Each gate's input block, then its recurrent block, is drawn in gate
    order. The LSTM forget-gate bias starts at +1.0, which helps toy-scale
    convergence.
    """
    if cell not in CELLS:
        raise ValueError(f"unknown cell {cell!r}")
    gates = len(CELL_GATES[cell])
    U = np.empty((in_dim, gates * hidden), dtype=dtype)
    W = np.empty((hidden, gates * hidden), dtype=dtype)
    for k in range(gates):
        cols = slice(k * hidden, (k + 1) * hidden)
        U[:, cols] = glorot_uniform(rng, in_dim, hidden, dtype)
        W[:, cols] = glorot_uniform(rng, hidden, hidden, dtype)
    b = np.zeros(gates * hidden, dtype=dtype)
    if cell == "lstm":
        b[:hidden] = 1.0
    return {"U": U, "W": W, "b": b}


# ---------------------------------------------------------------------------
# one cell step on the input pre-activation a = x U + b
# ---------------------------------------------------------------------------

def _step_forward(cell: str, W: np.ndarray, a: np.ndarray, h_prev: np.ndarray, C_prev):
    """One step of a fused cell. Returns (h, C, cache); C is None except
    for the LSTM, and ``cache[0]`` is h_prev.

    rnn:  h = tanh(a + h_prev W)
    lstm: f, i, o = sigmoid and c~ = tanh of their blocks of a + h_prev W;
          C = f * C_prev + i * c~; h = o * tanh(C)
    gru:  z, r = sigmoid(a_zr + h_prev W_zr);
          h~ = tanh(a_h + (r * h_prev) W_h); h = z * h_prev + (1 - z) * h~
    """
    H = h_prev.shape[1]
    if cell == "rnn":
        h = np.tanh(a + h_prev @ W)
        return h, None, (h_prev, h)
    if cell == "lstm":
        pre = a + h_prev @ W
        s = sigmoid(pre[:, : 3 * H])
        c_tilde = np.tanh(pre[:, 3 * H :])
        C = s[:, :H] * C_prev + s[:, H : 2 * H] * c_tilde
        tC = np.tanh(C)
        h = s[:, 2 * H :] * tC
        return h, C, (h_prev, C_prev, s, c_tilde, tC)
    zr = sigmoid(a[:, : 2 * H] + h_prev @ W[:, : 2 * H])
    z = zr[:, :H]
    rh = zr[:, H:] * h_prev
    h_tilde = np.tanh(a[:, 2 * H :] + rh @ W[:, 2 * H :])
    h = z * h_prev + (1.0 - z) * h_tilde
    return h, None, (h_prev, zr, rh, h_tilde)


def _step_backward(cell: str, W: np.ndarray, cache, dh: np.ndarray, dC):
    """Backward of :func:`_step_forward`. Returns (da, dh_prev, dC_prev):
    the gradient on the input pre-activation (B, gH) and on the previous
    state; dC_prev is None except for the LSTM."""
    H = dh.shape[1]
    if cell == "rnn":
        _, h = cache
        da = dh * (1.0 - h * h)
        return da, da @ W.T, None
    if cell == "lstm":
        _, C_prev, s, c_tilde, tC = cache
        dC = dC + dh * s[:, 2 * H :] * (1.0 - tC * tC)
        ds = np.concatenate([dC * C_prev, dC * c_tilde, dh * tC], axis=1) * s * (1.0 - s)
        da_c = dC * s[:, H : 2 * H] * (1.0 - c_tilde * c_tilde)
        da = np.concatenate([ds, da_c], axis=1)
        return da, da @ W.T, dC * s[:, :H]
    h_prev, zr, _, h_tilde = cache
    z = zr[:, :H]
    da_h = dh * (1.0 - z) * (1.0 - h_tilde * h_tilde)
    drh = da_h @ W[:, 2 * H :].T
    dzr = np.concatenate([dh * (h_prev - h_tilde), drh * h_prev], axis=1) * zr * (1.0 - zr)
    dh_prev = dh * z + drh * zr[:, H:] + dzr @ W[:, : 2 * H].T
    return np.concatenate([dzr, da_h], axis=1), dh_prev, None


# ---------------------------------------------------------------------------
# masked sequence passes
# ---------------------------------------------------------------------------

def sequence_forward(
    cell: str,
    params: Mapping[str, np.ndarray],
    inputs: np.ndarray,
    mask: np.ndarray | None = None,
):
    """Run a fused recurrent cell over (B, T, D) inputs from a zero state,
    carrying state across mask-true steps only; padding steps pass state
    through unchanged.

    The (B, T) mask must be left-padded. The pass starts at ``t0``, the first
    column where any row has a real step: ``hs[:, :t0]`` holds the zero
    state, and only columns ``t0..T-1`` are projected (one ``x U + b``
    matmul over their B·(T - t0) rows), stepped and cached; the inputs of
    the columns before ``t0`` are never read. The mask is applied only on
    the columns that hold padding; from the first column whose rows are all
    real on, each step's state is taken as it is. Hidden states are
    bit-equal to masking every column.

    Returns (hs, caches) where hs has shape (B, T, H); ``caches[2]`` lists
    the step caches of the stepped columns.
    """
    if cell not in CELLS:
        raise ValueError(f"unknown cell {cell!r}")
    U, W, b = params["U"], params["W"], params["b"]
    B, T, D = inputs.shape
    H = W.shape[0]
    if D != U.shape[0]:
        raise ValueError(f"sequence_forward: input width {D} does not match U with {U.shape[0]} rows")
    if mask is not None and np.shape(mask) != (B, T):
        raise ValueError(f"sequence_forward: mask has shape {np.shape(mask)}, expected {(B, T)}")
    mask = np.ones((B, T), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if np.any(mask[:, :-1] & ~mask[:, 1:]):
        raise ValueError("mask interleaves padding with real steps (left padding required)")
    # rows real per column; left padding makes it non-decreasing
    real = mask.sum(axis=0)
    t0 = int(np.searchsorted(real, 1))  # first column with a real row
    full = int(np.searchsorted(real, B))  # first column whose rows are all real
    S = T - t0
    mask = mask[:, :, None]
    h = np.zeros((B, H), dtype=inputs.dtype)
    C = np.zeros((B, H), dtype=inputs.dtype) if cell == "lstm" else None
    A = (inputs[:, t0:].reshape(B * S, D) @ U + b).reshape(B, S, U.shape[1])
    hs = np.empty((B, T, H), dtype=inputs.dtype)
    hs[:, :t0] = 0.0
    steps = []
    for t in range(t0, T):
        h_new, C_new, cache = _step_forward(cell, W, A[:, t - t0], h, C)
        if t < full:  # padded rows keep their state
            m = mask[:, t]
            h_new = np.where(m, h_new, h)
            if C is not None:
                C_new = np.where(m, C_new, C)
        h, C = h_new, C_new
        hs[:, t] = h
        steps.append(cache)
    return hs, (inputs, mask, steps, full)


def sequence_backward(
    cell: str,
    params: Mapping[str, np.ndarray],
    caches,
    dhs: np.ndarray,
    input_grad: bool = True,
):
    """Backpropagation through time over a cached forward pass.

    ``dhs`` is the upstream gradient on every step's hidden output, shape
    (B, T, H). Returns (dxs, grads) with dxs shaped like the inputs, or None
    when ``input_grad`` is false: then the input gradient is not computed
    at all, which a caller that does not read it saves. The time loop runs
    over the cached steps, columns ``t0..T-1``, only; the columns before
    them get zero input gradients. As in the forward, the mask is applied
    only on the columns that hold padding. The per-step pre-activation
    gradients are stacked, so the gradients of ``U``, ``W`` and ``b`` and
    the input gradient come from matmuls after the time loop, over the
    B·(T - t0) rows of the stepped columns. A pass that stepped no column
    (all padding) has zero gradients. Every gradient is bit-equal to
    masking every column.
    """
    inputs, mask, steps, full = caches
    U, W = params["U"], params["W"]
    B, T, D = inputs.shape
    H = W.shape[0]
    S = len(steps)
    t0 = T - S
    dxs = np.zeros((B, T, D), dtype=dhs.dtype) if input_grad else None
    if not steps:
        return dxs, {name: np.zeros_like(params[name], dtype=dhs.dtype) for name in ("U", "W", "b")}
    dA = np.empty((B, S, W.shape[1]), dtype=dhs.dtype)
    dh = np.zeros((B, H), dtype=dhs.dtype)
    dC = np.zeros((B, H), dtype=dhs.dtype) if cell == "lstm" else None
    for t in reversed(range(t0, T)):
        dh_total = dh + dhs[:, t]
        if t < full:  # padded rows pass their gradient through
            m = mask[:, t]
            da, dh_prev, dC_prev = _step_backward(
                cell, W, steps[t - t0], dh_total * m, None if dC is None else dC * m
            )
            dh = np.where(m, dh_prev, dh_total)
            if dC is not None:
                dC = np.where(m, dC_prev, dC)
        else:
            da, dh, dC = _step_backward(cell, W, steps[t - t0], dh_total, dC)
        dA[:, t - t0] = da
    dA = dA.reshape(B * S, -1)
    h_prev = np.stack([cache[0] for cache in steps], axis=1).reshape(B * S, H)
    if cell == "gru":
        rh = np.stack([cache[2] for cache in steps], axis=1).reshape(B * S, H)
        dW = np.concatenate([h_prev.T @ dA[:, : 2 * H], rh.T @ dA[:, 2 * H :]], axis=1)
    else:
        dW = h_prev.T @ dA
    grads = {"U": inputs[:, t0:].reshape(B * S, D).T @ dA, "W": dW, "b": dA.sum(axis=0)}
    if input_grad:
        dxs[:, t0:] = (dA @ U.T).reshape(B, S, D)
    return dxs, grads


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
    """Euclidean norm of all the gradients' entries together, summed in
    float64 one array at a time. :meth:`SGD.step` takes the same norm as one
    float64 dot, which may round differently in the last bits."""
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    return math.sqrt(total)


class SGD:
    """SGD with classical momentum and optional global gradient-norm clipping.

    The first :meth:`step` copies the parameters its gradients name into one
    flat buffer, in the gradients' key order, and rebinds each of those
    ``params[name]`` to a view of the buffer; the caller's arrays are never
    written, and a parameter that gets no gradient is left alone. Every step
    then updates the buffer and one flat velocity in place, so between steps
    each ``params[name]`` must stay bound to its view."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.9, clip_norm: float | None = 5.0):
        self.lr = lr
        self.momentum = momentum
        self.clip_norm = clip_norm
        self._shapes: dict[str, tuple[int, ...]] = {}  # bound parameters, in buffer order
        self._flat: np.ndarray | None = None
        self._velocity: np.ndarray | None = None

    def _bind(self, params: dict[str, np.ndarray], names: list[str]) -> None:
        missing = [name for name in names if name not in params]
        if missing:
            raise ValueError(f"gradients for parameters that do not exist: {missing}")
        dtypes = {params[name].dtype for name in names}
        if len(dtypes) != 1:
            raise ValueError(f"the parameters to update must share one dtype, got {sorted(map(str, dtypes))}")
        self._flat = np.concatenate([params[name].ravel() for name in names])
        self._velocity = np.zeros_like(self._flat)
        offset = 0
        for name in names:
            shape = params[name].shape
            size = math.prod(shape)
            params[name] = self._flat[offset : offset + size].reshape(shape)
            self._shapes[name] = shape
            offset += size

    def step(self, params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> float:
        """Update ``params`` from ``grads``; returns the gradients' global
        norm before clipping. Gradients of another key set, shape or dtype
        than the bound parameters, and a non-finite norm, raise
        ``ValueError`` before anything is written."""
        if self._flat is None:
            self._bind(params, list(grads))
        if grads.keys() != self._shapes.keys():
            raise ValueError(f"gradients for {sorted(grads)}, but this optimiser updates {sorted(self._shapes)}")
        flat, v = self._flat, self._velocity
        parts = [grads[name] for name in self._shapes]
        if [part.shape for part in parts] != list(self._shapes.values()):
            raise ValueError(f"gradient shapes {[part.shape for part in parts]} differ from {list(self._shapes.values())}")
        try:
            g = np.concatenate([part.ravel() for part in parts], dtype=flat.dtype, casting="no")
        except TypeError:
            raise ValueError(f"gradient dtypes {[str(part.dtype) for part in parts]} differ from {flat.dtype}") from None
        g64 = g.astype(np.float64, copy=False)
        norm = math.sqrt(float(np.dot(g64, g64)))
        if not math.isfinite(norm):
            raise ValueError(f"non-finite gradient norm {norm!r}")
        scale = 1.0
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / norm
        g *= self.lr * scale
        v *= self.momentum
        v -= g
        flat += v
        return norm


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
    |ga - gn| / max(|ga|, |gn|, floor) over all entries. Parameters are cast
    to float64 first; the total parameter count is capped at 10^4.

    The difference resolves a gradient only to about u |L| / eps, u being
    the float64 unit roundoff, because the loss is rounded to about u |L| at
    either point. ``floor`` is the gradient size at which that rounding is a
    1e-5 relative error, 1e5 u |L| / eps (at least 1e-8); a smaller entry's
    error is measured against it, since central differences cannot resolve it
    any better.
    """
    work = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}
    total = sum(v.size for v in work.values())
    if total > 10_000:
        raise ValueError(f"gradcheck capped at 1e4 parameters, got {total}")
    loss, grads = loss_fn(work)
    if not math.isfinite(loss):
        raise ValueError(f"non-finite loss {loss!r}")
    floor = max(1e-8, 1e5 * (np.finfo(np.float64).eps / 2) * abs(loss) / epsilon)
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
            denom = max(abs(ga), abs(numeric), floor)
            worst = max(worst, abs(ga - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_params(path: str | Path, params: Mapping[str, np.ndarray], meta: Mapping | None = None) -> None:
    """Write named arrays (bit-exact) plus a JSON metadata blob to ``.npz``
    (appended to a path without it, as ``np.savez`` does), atomically."""
    payload = {f"param:{k}": np.ascontiguousarray(v) for k, v in params.items()}
    header = {"checkpoint_version": CHECKPOINT_VERSION, "meta": dict(meta or {})}
    payload["__meta__"] = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    path = os.fspath(path)
    write_atomic(path if path.endswith(".npz") else path + ".npz", lambda handle: np.savez(handle, **payload))


def load_params(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Named arrays and metadata of a checkpoint; a file of another
    ``checkpoint_version`` (version 1 kept one array per gate) is a
    ``ValueError``."""
    with np.load(path) as data:
        header = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        version = header.get("checkpoint_version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        params = {
            k.removeprefix("param:"): data[k].copy()
            for k in data.files
            if k.startswith("param:")
        }
    return params, header.get("meta", {})
