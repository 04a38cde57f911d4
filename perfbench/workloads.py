"""The three benchmark workloads, their timed sections and output checks.

Every call into ppmbench goes through a module attribute (``models.train``,
``metrics.evaluate_protocol``, ...) so that the tracer's wrappers see it.
Checks run untimed, after each timed section, and never under the tracer.
"""

from __future__ import annotations

import csv
import gc
import math
import shutil
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import generator
from ppmbench import bench, eventlog, inference, metrics, models, petrinet, splitting

NEXT_TASKS = ("next_activity", "next_time")
CHECK_PREFIXES = 24  # fixed sample of test prefixes for the predict/decode checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-gru",
            "GRU h32/2 layers with one-hot Resource trains 2 epochs, then next-activity and next-time "
            "scoring: encoding, recurrent kernel and SGD; no decoding",
            1500,
        ),
        Workload(
            "decode-gru",
            "smaller log; small GRU h32/1 layer; argmax and beam-3 suffix decoding with batch-size-1 "
            "predict takes most of the time",
            400,
        ),
        Workload(
            "matrix",
            "log and Petri net through bench.run_matrix: markov, hashed n-gram autoencoder, timed-state "
            "mlp on all four tasks, checkpoint writes and reloads; no recurrent kernel",
            1500,
        ),
    )
}

TRAIN_GRU = models.TrainConfig(hidden=32, layers=2, epochs=2, patience=2, attributes=("Resource",), time_target="next")
DECODE_GRU = models.TrainConfig(hidden=32, layers=1, epochs=5, patience=5, time_target="next")
MATRIX_DATASET = "helpdesk-synth"
MATRIX_MODELS = (
    ("markov", "markov", {"order": 2}),
    ("autoencoder", "autoencoder", {"epochs": 2, "patience": 2, "pretrain_epochs": 2, "freeze_epochs": 1}),
    ("mlp", "mlp", {"input_mode": "timed_state", "hidden": 32, "layers": 2, "epochs": 2, "patience": 2}),
)
# (model, task, metric) rows metrics.csv must hold; the autoencoder has no time head
MATRIX_ROWS = {
    (model, task, metric)
    for model, _, _ in MATRIX_MODELS
    for task, metric in (
        ("next_activity", "accuracy"),
        ("next_activity", "brier"),
        ("suffix", "dl_similarity"),
        ("next_time", "mae_days"),
        ("remaining_time", "mae_days"),
    )
    if model != "autoencoder" or task in ("next_activity", "suffix")
}


@dataclass
class Inputs:
    seed: int
    csv_path: Path
    net_path: Path
    work_dir: Path


def make_inputs(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Generate the workload's CSV log and Petri net from the seed."""
    work_dir.mkdir(parents=True, exist_ok=True)
    csv_path, net_path = work_dir / "log.csv", work_dir / "net.json"
    generator.write_csv(generator.generate(seed, workload.cases), csv_path)
    generator.write_petri_net(net_path)
    return Inputs(seed, csv_path, net_path, work_dir)


@dataclass
class Setup:
    log: eventlog.EventLog
    split: splitting.SplitLog
    samples: dict[str, list]

    @property
    def max_len(self) -> int:
        """The decode length limit ``bench.run_cell`` uses: the longest training trace."""
        return max(len(t) for t in self.split.train.traces)


def set_up(csv_path: Path) -> Setup:
    log = eventlog.augment_eoc(eventlog.parse_csv(csv_path))
    split = splitting.temporal_split(log)
    samples = {part: splitting.make_prefix_samples(split.part(part)) for part in splitting.PARTS}
    return Setup(log, split, samples)


def retained_sample_mb(split: splitting.SplitLog) -> float:
    """MB the prefix-sample lists of the three parts hold, measured with tracemalloc."""
    retained = 0
    for part in splitting.PARTS:
        tracemalloc.start()
        samples = splitting.make_prefix_samples(split.part(part))
        retained += tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        del samples
    return retained / 1e6


@dataclass
class Checks:
    """Output checks; each one is an attempted operation, a false one a failed one."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def report(self, report: metrics.MetricsReport, n_test: int, label: str) -> None:
        """Sample counts and value ranges of one ``evaluate_protocol`` report."""
        for task, n in report.n_samples.items():
            self.check(n == n_test, f"{label}: n_samples[{task}] = {n}, expected {n_test}")
        for name, value, low, high in (
            ("accuracy", report.accuracy, 0.0, 1.0),
            ("dl_similarity", report.dl_similarity, 0.0, 1.0),
            ("brier", report.brier, 0.0, 2.0),
            ("mae_next", report.mae_next, 0.0, math.inf),
            ("mae_remaining", report.mae_remaining, 0.0, math.inf),
        ):
            if value is not None:
                self.check(math.isfinite(value) and low <= value <= high, f"{label}: {name} = {value!r}")

    def predictions(self, predictor, prefixes, label: str) -> None:
        """``predict`` returns a distribution over the vocabulary and a finite, non-negative time."""
        for prefix in prefixes:
            try:
                probs, delta = predictor.predict(prefix)
                probs = np.asarray(probs, dtype=np.float64)
                ok = (
                    probs.shape == (len(predictor.activity_vocab),)
                    and bool(np.all(np.isfinite(probs)))
                    and bool(np.all(probs >= 0.0))
                    and abs(float(probs.sum()) - 1.0) <= 1e-6
                    and (delta is None or (math.isfinite(delta) and delta >= 0.0))
                )
            except Exception as exc:  # a raising predictor is a failed operation
                ok, probs = False, repr(exc)
            self.check(ok, f"{label}: predict returned {probs!r}")

    def decodes(self, predictor, prefixes, cfg: inference.DecodeConfig, label: str) -> None:
        """A decoded suffix ends in EOC or is flagged truncated, within ``max_len`` steps."""
        for prefix in prefixes:
            try:
                suffix = inference.decode_suffix(predictor, prefix, cfg)
                ends = bool(suffix.activities) and suffix.activities[-1] == eventlog.EOC
                ok = ends != suffix.truncated and len(suffix.activities) <= cfg.max_len
                what = f"{len(suffix.activities)} steps, truncated={suffix.truncated}"
            except Exception as exc:
                ok, what = False, repr(exc)
            self.check(ok, f"{label}: decode_suffix gave {what}")


def check_sample(setup: Setup) -> list:
    """Evenly spaced test prefixes, the same for every run on one log."""
    test = setup.samples["test"]
    step = max(1, len(test) // CHECK_PREFIXES)
    return [s.prefix for s in test[::step][:CHECK_PREFIXES]]


REFERENCE_S = 0.16  # reference_kernel() on an idle 2-vCPU VM
_REF_W = np.linspace(-0.1, 0.1, 32 * 32, dtype=np.float32).reshape(32, 32)


def reference_kernel() -> float:
    """Seconds a fixed, pipeline-shaped computation takes right now.

    It uses no ppmbench code: it builds event-like records, groups and sorts
    them into traces, slices prefixes and runs a small recurrent numpy loop.
    On a shared host whose speed drifts by tens of percent for minutes, its
    time moves with the workloads' (correlation 0.87 over 14 matrix passes).
    """
    start = time.perf_counter()
    h = np.zeros((1, 32), dtype=np.float32)
    for _ in range(4):  # four small rounds, so the kernel adds little to peak memory
        groups: dict[str, list] = {}
        for i in range(15_000):
            groups.setdefault(f"Case {i % 245}", []).append((i * 37 % 100_003, f"act{i % 14}", {"Resource": f"Value {i % 22}"}))
        traces = [tuple(sorted(events, key=lambda e: e[0])) for events in groups.values()]
        prefixes = [t[:k] for t in traces for k in range(1, min(len(t), 12))]
        for prefix in prefixes[:750]:
            for _ in prefix[-3:]:
                h = np.tanh(h @ _REF_W + 0.1)
    return time.perf_counter() - start


@dataclass
class Iteration:
    """One pass over a workload's timed sections."""

    sections: dict[str, float] = field(default_factory=dict)  # wall seconds per timed section
    work: dict[str, tuple[str, float]] = field(default_factory=dict)  # rate name -> (section, units done)
    quality: dict[str, float] = field(default_factory=dict)
    artifact_mb: float = 0.0

    def timed(self, section: str, fn, *args, **kwargs):
        gc.collect()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.sections[section] = time.perf_counter() - start
        return result

    @property
    def wall_s(self) -> float:
        return sum(self.sections.values())


def _quality(report: metrics.MetricsReport) -> dict[str, float]:
    return {"accuracy": report.accuracy, "brier": report.brier, "mae_next_days": report.mae_next}


def run_train_gru(inputs: Inputs, setup: Setup, checks: Checks | None) -> Iteration:
    it = Iteration()
    log, test = setup.log, setup.samples["test"]
    predictor = models.build_predictor("gru", TRAIN_GRU, log.activity_vocab, log.attribute_vocabs)
    report = it.timed("train", models.train, predictor, setup.split, seed=inputs.seed)
    epochs = len(report.train_losses)
    it.work["train_samples_per_s"] = ("train", len(setup.samples["train"]) * epochs)
    if checks:
        checks.check(epochs == TRAIN_GRU.epochs, f"train ran {epochs} of {TRAIN_GRU.epochs} epochs")
    cfg = inference.DecodeConfig(max_len=setup.max_len, seed=inputs.seed)
    scores = it.timed("next", metrics.evaluate_protocol, predictor, setup.split.test, cfg, NEXT_TASKS)
    it.work["next_prefixes_per_s"] = ("next", len(test))
    it.quality = _quality(scores)
    if checks:
        checks.report(scores, len(test), "next")
        checks.predictions(predictor, check_sample(setup), "gru")
    return it


def run_decode_gru(inputs: Inputs, setup: Setup, checks: Checks | None) -> Iteration:
    it = Iteration()
    log, test = setup.log, setup.samples["test"]
    predictor = models.build_predictor("gru", DECODE_GRU, log.activity_vocab, log.attribute_vocabs)
    report = it.timed("train", models.train, predictor, setup.split, seed=inputs.seed)
    epochs = len(report.train_losses)
    it.work["train_samples_per_s"] = ("train", len(setup.samples["train"]) * epochs)
    argmax = inference.DecodeConfig(max_len=setup.max_len, seed=inputs.seed)
    beam3 = inference.DecodeConfig(strategy="beam", beam_width=3, max_len=setup.max_len, seed=inputs.seed)
    sample = check_sample(setup)

    scores = it.timed("next", metrics.evaluate_protocol, predictor, setup.split.test, argmax, NEXT_TASKS)
    it.work["next_prefixes_per_s"] = ("next", len(test))
    it.quality = _quality(scores)
    if checks:
        checks.check(epochs == DECODE_GRU.epochs, f"train ran {epochs} of {DECODE_GRU.epochs} epochs")
        checks.report(scores, len(test), "next")
        checks.predictions(predictor, sample, "gru")

    scores = it.timed(
        "suffix_argmax", metrics.evaluate_protocol, predictor, setup.split.test, argmax, ("suffix", "remaining_time")
    )
    it.work["suffix_argmax_per_s"] = ("suffix_argmax", len(test))
    it.quality["dl_similarity_argmax"] = scores.dl_similarity
    it.quality["mae_remaining_days"] = scores.mae_remaining
    if checks:
        checks.report(scores, len(test), "suffix argmax")
        checks.decodes(predictor, sample, argmax, "argmax")

    scores = it.timed("suffix_beam3", metrics.evaluate_protocol, predictor, setup.split.test, beam3, ("suffix",))
    it.work["suffix_beam3_per_s"] = ("suffix_beam3", len(test))
    it.quality["dl_similarity_beam3"] = scores.dl_similarity
    if checks:
        checks.report(scores, len(test), "suffix beam3")
        checks.decodes(predictor, sample, beam3, "beam3")
    return it


def matrix_config(inputs: Inputs, out_dir: Path) -> bench.BenchmarkConfig:
    return bench.BenchmarkConfig(
        datasets=(bench.DatasetSpec(MATRIX_DATASET, str(inputs.csv_path), petri_net=str(inputs.net_path)),),
        models=tuple(bench.ModelSpec(name, arch, dict(hp)) for name, arch, hp in MATRIX_MODELS),
        decode={"strategy": "argmax"},
        seed=inputs.seed,
        out_dir=str(out_dir),
        jobs=1,
    )


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return sum(values) / len(values)


def run_matrix(inputs: Inputs, setup: Setup, checks: Checks | None) -> Iteration:
    it = Iteration()
    out_dir = inputs.work_dir / "matrix"
    shutil.rmtree(out_dir, ignore_errors=True)
    saved = {}
    save = bench.save_predictor

    def keep(predictor, path_prefix, seed=0):  # keeps the trained predictor for the reload check
        saved[Path(path_prefix).name] = predictor
        return save(predictor, path_prefix, seed)

    bench.save_predictor = keep
    try:
        record = it.timed("matrix", bench.run_matrix, matrix_config(inputs, out_dir))
    finally:
        bench.save_predictor = save
    net = petrinet.load_petri_net(inputs.net_path)
    cells = {cell.model: cell for cell in record.cells}

    def reload():
        return {
            name: models.load_predictor(Path(cell.artifacts["checkpoint"]).with_suffix(""), net)
            for name, cell in cells.items()
            if cell.artifacts
        }

    reloaded = it.timed("reload", reload)
    it.artifact_mb = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) / 1e6
    done = [cell.metrics for cell in record.cells if cell.metrics]
    it.quality = {
        "accuracy": _mean(m["accuracy"] for m in done),
        "brier": _mean(m["brier"] for m in done),
        "mae_next_days": _mean(m["mae_next"] for m in done),
        "dl_similarity_argmax": _mean(m["dl_similarity"] for m in done),
        "mae_remaining_days": _mean(m["mae_remaining"] for m in done),
    }
    if checks:
        n_test = len(setup.samples["test"])
        for cell in record.cells:
            checks.check(cell.error is None, f"cell {cell.model}: {cell.error}")
            if cell.metrics:
                report = metrics.MetricsReport(
                    accuracy=cell.metrics["accuracy"],
                    brier=cell.metrics["brier"],
                    dl_similarity=cell.metrics["dl_similarity"],
                    mae_next=cell.metrics["mae_next"],
                    mae_remaining=cell.metrics["mae_remaining"],
                    n_samples=cell.metrics["n_samples"],
                )
                checks.report(report, n_test, f"cell {cell.model}")
        with open(out_dir / "metrics.csv", encoding="utf-8", newline="") as handle:
            rows = [(r["model"], r["task"], r["metric"]) for r in csv.DictReader(handle)]
        checks.check(
            len(rows) == len(set(rows)) and set(rows) == MATRIX_ROWS,
            f"metrics.csv rows {sorted(rows)} != expected {sorted(MATRIX_ROWS)}",
        )
        sample = check_sample(setup)
        cfg = inference.DecodeConfig(max_len=setup.max_len, seed=inputs.seed)
        checks.check(set(reloaded) == {name for name, _, _ in MATRIX_MODELS}, f"reloaded only {sorted(reloaded)}")
        for name, predictor in reloaded.items():
            original = saved[f"{MATRIX_DATASET}__{name}"]
            for prefix in sample:
                a, b = original.predict(prefix), predictor.predict(prefix)
                checks.check(
                    np.array_equal(a[0], b[0]) and a[1] == b[1],
                    f"{name}: reloaded checkpoint predicts differently",
                )
            checks.predictions(predictor, sample, name)
            checks.decodes(predictor, sample, cfg, name)
    return it


RUNNERS = {"train-gru": run_train_gru, "decode-gru": run_decode_gru, "matrix": run_matrix}
