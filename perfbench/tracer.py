"""Span and counter recorder for the traced benchmark run.

The tracer wraps the public entry points of each ppmbench layer from the
outside. Several modules bind a callee's name at import time (``metrics``
binds ``decode_suffix``, ``models`` binds ``replay_timed_state`` and so on),
so each wrapper is installed at every module where that name is looked up.
Hot inner functions (``PetriNet.enabled``, the per-step cell functions) are
deliberately not wrapped: they run millions of times per workload.

A span records its name, start, end, parent span and the run id. Spans stay
in memory until :meth:`Tracer.write` at the end of the run. Counts are taken
at the same boundaries, from the arguments and return values.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from pathlib import Path

from ppmbench import bench, encoding, eventlog, inference, metrics, models, nnkernel, petrinet, splitting

LAYERS = ("eventlog", "splitting", "encoding", "petrinet", "nnkernel", "models", "inference", "metrics", "bench")
ARCHITECTURES = ("gru", "markov", "autoencoder", "mlp")
PREDICT = "models.Predictor.predict"
DECODE = "inference.decode_suffix"
# spans whose ``.s`` metric is self time; every other ``.s`` is the inclusive duration
SELF_TIMED = (PREDICT, "metrics.evaluate_protocol", "bench.run_cell")


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _count_encode(counters, args, kwargs, result):
    counters["encoding.PrefixEncoder.encode.rows"] += int(result.mask.sum())


def _count_replay(counters, args, kwargs, result):
    counters["petrinet.replay_timed_state.events"] += len(_arg(args, kwargs, 1, "events"))
    counters["petrinet.replay_timed_state.nonconforming"] += result.nonconforming


def _count_forward(counters, args, kwargs, result):
    inputs = _arg(args, kwargs, 2, "inputs")
    mask = _arg(args, kwargs, 3, "mask")
    counters["nnkernel.sequence_forward.batch_rows"] += inputs.shape[0]
    counters["nnkernel.sequence_forward.steps"] += inputs.shape[0] * inputs.shape[1]
    if mask is not None:
        counters["nnkernel.sequence_forward.padded_steps"] += int(mask.size - mask.sum())


def _count_decode(counters, args, kwargs, result):
    counters["inference.decode_suffix.truncated"] += int(result.truncated)
    counters["inference.decode_suffix.suffix_len"] += len(result.activities)


def _count_cell(counters, args, kwargs, result):
    counters["bench.run_cell.errors"] += int(result.error is not None)


def _predictor_classes():
    return [
        cls
        for name, cls in vars(models).items()
        if isinstance(cls, type)
        and issubclass(cls, models.Predictor)
        and cls is not models.Predictor
        and not name.startswith("_")
    ]


def entry_points():
    """(span name, [(owner, attribute), ...], counter) for every wrapped callable."""
    return [
        ("eventlog.parse_csv", [(eventlog, "parse_csv"), (bench, "parse_csv")], None),
        ("eventlog.augment_eoc", [(eventlog, "augment_eoc"), (bench, "augment_eoc")], None),
        ("splitting.temporal_split", [(splitting, "temporal_split"), (bench, "temporal_split")], None),
        (
            "splitting.make_prefix_samples",
            [(splitting, "make_prefix_samples"), (models, "make_prefix_samples"), (metrics, "make_prefix_samples")],
            None,
        ),
        ("encoding.PrefixEncoder.fit", [(encoding.PrefixEncoder, "fit")], None),
        ("encoding.PrefixEncoder.encode", [(encoding.PrefixEncoder, "encode")], _count_encode),
        ("encoding.time_features", [(encoding, "time_features")], None),
        ("encoding.ngram_hash_encode", [(encoding, "ngram_hash_encode"), (models, "ngram_hash_encode")], None),
        (
            "petrinet.replay_timed_state",
            [(petrinet, "replay_timed_state"), (models, "replay_timed_state")],
            _count_replay,
        ),
        ("nnkernel.sequence_forward", [(nnkernel, "sequence_forward")], _count_forward),
        ("nnkernel.sequence_backward", [(nnkernel, "sequence_backward")], None),
        ("nnkernel.SGD.step", [(nnkernel.SGD, "step")], None),
        ("models.train", [(models, "train"), (bench, "train")], None),
        (PREDICT, [(cls, "predict") for cls in _predictor_classes()], None),
        ("models.save_predictor", [(models, "save_predictor"), (bench, "save_predictor")], None),
        ("models.load_predictor", [(models, "load_predictor")], None),
        (DECODE, [(inference, "decode_suffix"), (metrics, "decode_suffix")], _count_decode),
        ("metrics.evaluate_protocol", [(metrics, "evaluate_protocol"), (bench, "evaluate_protocol")], None),
        ("metrics.dl_distance", [(metrics, "dl_distance")], None),
        ("bench.run_matrix", [(bench, "run_matrix")], None),
        ("bench.run_cell", [(bench, "run_cell")], _count_cell),
        ("bench.emit_reports", [(bench, "emit_reports")], None),
    ]


# derived per-layer metrics; the last two are measured by the runner, outside any span
DERIVED_UNITS = {
    "encoding.PrefixEncoder.encode.rows": "count",
    "encoding.PrefixEncoder.encode.rows_per_call": "rows/call",
    "petrinet.replay_timed_state.nonconforming_share": "share",
    "nnkernel.sequence_forward.batch_rows_mean": "rows",
    "nnkernel.sequence_forward.padded_step_share": "share",
    "nnkernel.SGD.step.clip_share": "share",
    f"{DECODE}.predict_calls_per_suffix": "calls/suffix",
    f"{DECODE}.truncated_share": "share",
    f"{DECODE}.suffix_len_mean": "events",
    "bench.run_cell.errors": "count",
    "splitting.make_prefix_samples.retained_mb": "MB",
    "bench.artifact_mb": "MB",
}
TRACE_UNITS = {"trace.wall_s": "s", "trace.remainder_s": "s", "trace.overhead_s": "s", "trace.spans": "count"}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, grouped by layer."""
    units = {}
    for name, *_ in entry_points():
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({f"{PREDICT}.{arch}.s": "s" for arch in ARCHITECTURES})
    units.update(DERIVED_UNITS)
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    order = {layer: i for i, layer in enumerate(LAYERS)}
    grouped = dict(sorted(units.items(), key=lambda item: order[item[0].split(".", 1)[0]]))
    return {**grouped, **TRACE_UNITS}


class Tracer:
    """Records spans around the wrapped entry points while installed.

    Use as a context manager: entering patches every binding site, leaving
    restores the originals. Each span is ``(id, name, start, end, parent,
    detail)``; ``detail`` is the predictor architecture for predict spans.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, counters, stack = self.spans, self.counters, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            detail = None
            if name == PREDICT:
                detail = args[0].architecture
            elif name == "nnkernel.SGD.step":
                opt, grads = args[0], _arg(args, kwargs, 2, "grads")
                if opt.clip_norm is not None and nnkernel.global_norm(grads) > opt.clip_norm:
                    counters["nnkernel.SGD.step.clipped"] += 1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, detail))
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, sites, count in entry_points():
            wrappers: dict[int, object] = {}
            for owner, attr in sites:
                fn = getattr(owner, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, count)
                self._saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return {sid: end - start - child_time[sid] for sid, _, start, end, _, _ in self.spans}

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.

        ``wall_s`` is the traced wall time; ``trace.remainder_s`` is the part
        of it no span covers, so the ``<layer>.self_s`` values plus the
        remainder add up to ``wall_s``.
        """
        self_time = self.self_times()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_self = {layer: 0.0 for layer in LAYERS}
        arch_self = {arch: 0.0 for arch in ARCHITECTURES}
        top_level = 0.0
        decode_ids = set()
        for sid, name, start, end, parent, detail in self.spans:
            total[name] += end - start
            own[name] += self_time[sid]
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += self_time[sid]
            if name == PREDICT:
                arch_self[detail] = arch_self.get(detail, 0.0) + self_time[sid]
            elif name == DECODE:
                decode_ids.add(sid)
            if parent is None:
                top_level += end - start
        predicts_in_decode = sum(1 for _, name, _, _, parent, _ in self.spans if name == PREDICT and parent in decode_ids)

        c = self.counters

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out: dict[str, float] = {}
        for name, *_ in entry_points():
            out[f"{name}.s"] = own[name] if name in SELF_TIMED else total[name]
            out[f"{name}.calls"] = calls[name]
        for arch, seconds in arch_self.items():
            out[f"{PREDICT}.{arch}.s"] = seconds
        out.update(
            {
                "encoding.PrefixEncoder.encode.rows": c["encoding.PrefixEncoder.encode.rows"],
                "encoding.PrefixEncoder.encode.rows_per_call": share(
                    c["encoding.PrefixEncoder.encode.rows"], calls["encoding.PrefixEncoder.encode"]
                ),
                "petrinet.replay_timed_state.nonconforming_share": share(
                    c["petrinet.replay_timed_state.nonconforming"], c["petrinet.replay_timed_state.events"]
                ),
                "nnkernel.sequence_forward.batch_rows_mean": share(
                    c["nnkernel.sequence_forward.batch_rows"], calls["nnkernel.sequence_forward"]
                ),
                "nnkernel.sequence_forward.padded_step_share": share(
                    c["nnkernel.sequence_forward.padded_steps"], c["nnkernel.sequence_forward.steps"]
                ),
                "nnkernel.SGD.step.clip_share": share(c["nnkernel.SGD.step.clipped"], calls["nnkernel.SGD.step"]),
                f"{DECODE}.predict_calls_per_suffix": share(predicts_in_decode, calls[DECODE]),
                f"{DECODE}.truncated_share": share(c["inference.decode_suffix.truncated"], calls[DECODE]),
                f"{DECODE}.suffix_len_mean": share(c["inference.decode_suffix.suffix_len"], calls[DECODE]),
                "bench.run_cell.errors": c["bench.run_cell.errors"],
                "trace.wall_s": wall_s,
                "trace.remainder_s": wall_s - top_level,
                "trace.spans": len(self.spans),
            }
        )
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
        return out

    def write(self, path: Path, **header) -> None:
        """Write the spans as gzipped JSON: names once, spans as rows."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[sid, index[name], start, end, parent, detail] for sid, name, start, end, parent, detail in self.spans]
        payload = {"run_id": self.run_id, **header, "names": names,
                   "columns": ["id", "name", "start_s", "end_s", "parent", "detail"], "spans": rows}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
