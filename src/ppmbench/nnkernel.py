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
    order, so the arrays equal the per-gate layout of checkpoint version 1
    concatenated. The LSTM forget-gate bias starts at +1.0, which helps
    toy-scale convergence.
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
    h0: np.ndarray | None = None,
    C0: np.ndarray | None = None,
):
    """Run a fused recurrent cell over (B, T, D) inputs, carrying state
    across mask-true steps only; padding steps pass state through unchanged.

    The (B, T) mask must be left-padded. The pass starts at ``t0``, the first
    column where any row has a real step: ``hs[:, :t0]`` holds the initial
    state, and only the steps from ``t0`` on are run and cached. The input
    projection ``x U + b`` is one matmul over all T columns: BLAS may sum a
    row of a shorter matrix in another order.

    Returns (hs, caches) where hs has shape (B, T, H).
    """
    if cell not in CELLS:
        raise ValueError(f"unknown cell {cell!r}")
    U, W, b = params["U"], params["W"], params["b"]
    B, T, D = inputs.shape
    H = W.shape[0]
    if D != U.shape[0]:
        raise ValueError(f"sequence_forward: input width {D} does not match U with {U.shape[0]} rows")
    for name, state in (("h0", h0), ("C0", C0)):
        if state is not None and state.shape != (B, H):
            raise ValueError(f"sequence_forward: {name} has shape {state.shape}, expected {(B, H)}")
    if mask is not None and np.shape(mask) != (B, T):
        raise ValueError(f"sequence_forward: mask has shape {np.shape(mask)}, expected {(B, T)}")
    mask = np.ones((B, T), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if np.any(mask[:, :-1] & ~mask[:, 1:]):
        raise ValueError("mask interleaves padding with real steps (left padding required)")
    t0 = T - int(mask.any(axis=0).sum())
    mask = mask[:, :, None]
    h = np.zeros((B, H), dtype=inputs.dtype) if h0 is None else h0.astype(inputs.dtype)
    C = None
    if cell == "lstm":
        C = np.zeros((B, H), dtype=inputs.dtype) if C0 is None else C0.astype(inputs.dtype)
    A = (inputs.reshape(B * T, D) @ U + b).reshape(B, T, -1)
    hs = np.empty((B, T, H), dtype=inputs.dtype)
    hs[:, :t0] = h[:, None]
    steps = []
    for t in range(t0, T):
        m = mask[:, t]
        h_new, C_new, cache = _step_forward(cell, W, A[:, t], h, C)
        h = np.where(m, h_new, h)
        if C is not None:
            C = np.where(m, C_new, C)
        hs[:, t] = h
        steps.append(cache)
    return hs, (inputs, mask, steps)


def sequence_backward(
    cell: str,
    params: Mapping[str, np.ndarray],
    caches,
    dhs: np.ndarray,
):
    """Backpropagation through time over a cached forward pass.

    ``dhs`` is the upstream gradient on every step's hidden output, shape
    (B, T, H). Returns (dxs, grads) with dxs shaped like the inputs. The
    time loop runs over the cached steps only; the columns before them get
    zero input gradients. The per-step pre-activation gradients are stacked,
    so the gradients of ``U``, ``W`` and ``b`` and the input gradient come
    from matmuls after the time loop. Those matmuls span all T columns, the
    skipped ones as zero rows, so they sum in the order of a pass that ran
    every column.
    """
    inputs, mask, steps = caches
    U, W = params["U"], params["W"]
    B, T, D = inputs.shape
    H = W.shape[0]
    t0 = T - len(steps)
    dA = np.zeros((B, T, W.shape[1]), dtype=dhs.dtype)
    dh = np.zeros((B, H), dtype=dhs.dtype)
    dC = np.zeros((B, H), dtype=dhs.dtype) if cell == "lstm" else None
    for t in reversed(range(t0, T)):
        m = mask[:, t]
        dh_total = dh + dhs[:, t]
        da, dh_prev, dC_prev = _step_backward(
            cell, W, steps[t - t0], dh_total * m, None if dC is None else dC * m
        )
        dA[:, t] = da
        dh = np.where(m, dh_prev, dh_total)
        if dC is not None:
            dC = np.where(m, dC_prev, dC)
    dA = dA.reshape(B * T, -1)
    skipped = [np.zeros((B, H), dtype=inputs.dtype)] * t0
    h_prev = np.stack(skipped + [cache[0] for cache in steps], axis=1).reshape(B * T, H)
    if cell == "gru":
        rh = np.stack(skipped + [cache[2] for cache in steps], axis=1).reshape(B * T, H)
        dW = np.concatenate([h_prev.T @ dA[:, : 2 * H], rh.T @ dA[:, 2 * H :]], axis=1)
    else:
        dW = h_prev.T @ dA
    flat = inputs.reshape(B * T, D)
    grads = {"U": flat.T @ dA, "W": dW, "b": dA.sum(axis=0)}
    return (dA @ U.T).reshape(B, T, D), grads


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
    """Write named arrays (bit-exact) plus a JSON metadata blob to ``.npz``
    (appended to a path without it, as ``np.savez`` does), atomically."""
    payload = {f"param:{k}": np.ascontiguousarray(v) for k, v in params.items()}
    header = {"checkpoint_version": CHECKPOINT_VERSION, "meta": dict(meta or {})}
    payload["__meta__"] = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    path = os.fspath(path)
    write_atomic(path if path.endswith(".npz") else path + ".npz", lambda handle: np.savez(handle, **payload))


def _fuse_v1(params: dict[str, np.ndarray], architecture) -> dict[str, np.ndarray]:
    """Concatenate the per-gate arrays of a version-1 LSTM/GRU checkpoint
    (``l<n>:U<gate>``, ``l<n>:W<gate>``, ``l<n>:b<gate>``) into the fused
    ``l<n>:U``/``W``/``b``. Version 1 named the LSTM input weights ``U*``
    and the GRU input weights ``W*``. A layer with a missing gate array is
    left unfused, for the caller's parameter check to reject."""
    if architecture not in ("lstm", "gru"):
        return params
    gates = CELL_GATES[architecture]
    inp, rec = ("U", "W") if architecture == "lstm" else ("W", "U")
    fused = dict(params)
    layer = 0
    while f"l{layer}:b{gates[0]}" in fused:
        for new, old in (("U", inp), ("W", rec), ("b", "b")):
            keys = [f"l{layer}:{old}{gate}" for gate in gates]
            if all(key in fused for key in keys):
                fused[f"l{layer}:{new}"] = np.concatenate([fused.pop(key) for key in keys], axis=-1)
        layer += 1
    return fused


def load_params(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Named arrays and metadata of a checkpoint; a version-1 checkpoint has
    its recurrent cells fused (see :func:`_fuse_v1`)."""
    with np.load(path) as data:
        header = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        version = header.get("checkpoint_version")
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version!r}")
        params = {
            k.removeprefix("param:"): data[k].copy()
            for k in data.files
            if k.startswith("param:")
        }
    meta = header.get("meta", {})
    if version == 1:
        params = _fuse_v1(params, meta.get("architecture"))
    return params, meta
