"""Benchmark orchestration: config validation, dataset/model matrix execution
with per-cell isolation, incremental persistence, and report emission."""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import json
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .atomic import write_text_atomic
from .eventlog import CsvSchema, augment_eoc, parse_csv
from .inference import DecodeConfig
from .metrics import ALL_TASKS, evaluate_protocol
from .models import ARCHITECTURES, TrainConfig, build_predictor, needs_petri_net, save_predictor, train
from .petrinet import PetriNet, load_petri_net
from .splitting import SplitLog, split_manifest, temporal_split, valid_split_fractions

CONFIG_VERSION = 1

HIGHER_IS_BETTER = {"accuracy": True, "brier": False, "dl_similarity": True, "mae_days": False}


class ConfigError(ValueError):
    """The benchmark configuration is invalid."""


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    path: str
    schema: CsvSchema = CsvSchema()
    petri_net: str | None = None


@dataclass(frozen=True)
class ModelSpec:
    name: str
    architecture: str
    hyperparameters: dict = field(default_factory=dict)


@dataclass
class BenchmarkConfig:
    """Validated description of one benchmark run; all randomness flows from
    the explicit master seed."""

    datasets: tuple[DatasetSpec, ...]
    models: tuple[ModelSpec, ...]
    split_fractions: tuple[float, float] = (0.64, 0.16)
    decode: dict = field(default_factory=dict)
    tasks: tuple[str, ...] = ALL_TASKS
    seed: int = 0
    out_dir: str = "runs"
    jobs: int = 1
    min_k: int = 1

    @classmethod
    def from_json(cls, path: str | Path) -> "BenchmarkConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "BenchmarkConfig":
        """The config of a JSON object; a ``ConfigError`` if it is no object, or
        lacks or mistypes a field (``seed``, ``jobs`` and ``min_k`` are ints)."""
        if not isinstance(raw, Mapping):
            raise ConfigError(f"config holds a JSON {type(raw).__name__}, not an object")
        version = raw.get("config_version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {version!r}")
        try:
            datasets = [
                DatasetSpec(
                    name=d["name"],
                    path=d["path"],
                    schema=CsvSchema(**d.get("schema", {})),
                    petri_net=d.get("petri_net"),
                )
                for d in raw.get("datasets", [])
            ]
            models = [
                ModelSpec(
                    name=m["name"],
                    architecture=m["architecture"],
                    hyperparameters=dict(m.get("hyperparameters", {})),
                )
                for m in raw.get("models", [])
            ]
            split = raw.get("split", {})
            fractions = (split.get("train", 0.64), split.get("validation", 0.16))
            decode = dict(raw.get("decode", {}))
            tasks = tuple(raw.get("tasks", ALL_TASKS))
        except KeyError as exc:
            raise ConfigError(f"a dataset or model has no {exc.args[0]!r}") from None
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"malformed config: {exc}") from None
        if not all(isinstance(f, (int, float)) and not isinstance(f, bool) for f in fractions):
            raise ConfigError(f"invalid split fractions {fractions!r}")
        defaults = {"seed": 0, "jobs": 1, "min_k": 1}
        integers = {name: raw.get(name, default) for name, default in defaults.items()}
        for name, value in integers.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        return cls(
            datasets=tuple(datasets),
            models=tuple(models),
            split_fractions=fractions,
            decode=decode,
            tasks=tasks,
            out_dir=raw.get("out_dir", "runs"),
            **integers,
        )

    def to_dict(self) -> dict:
        return {
            "config_version": CONFIG_VERSION,
            "datasets": [asdict(d) for d in self.datasets],
            "models": [asdict(m) for m in self.models],
            "split": {"train": self.split_fractions[0], "validation": self.split_fractions[1]},
            "decode": self.decode,
            "tasks": list(self.tasks),
            "seed": self.seed,
            "out_dir": self.out_dir,
            "jobs": self.jobs,
            "min_k": self.min_k,
        }

    def canonical_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def validate(self) -> None:
        if not self.datasets:
            raise ConfigError("config lists no datasets")
        if not self.models:
            raise ConfigError("config lists no models")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise ConfigError("dataset names are not unique")
        model_names = [m.name for m in self.models]
        if len(set(model_names)) != len(model_names):
            raise ConfigError("model names are not unique")
        for m in self.models:
            if m.architecture not in ARCHITECTURES:
                raise ConfigError(f"model {m.name!r}: unknown architecture {m.architecture!r}")
            try:
                train_cfg = TrainConfig(**m.hyperparameters)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"model {m.name!r}: {exc}") from None
            if needs_petri_net(m.architecture, train_cfg):
                for d in self.datasets:
                    if not d.petri_net:
                        raise ConfigError(
                            f"model {m.name!r} reads timed_state input: dataset {d.name!r} has no petri_net"
                        )
        decode_kwargs = dict(self.decode)
        if decode_kwargs.get("max_len") is None:
            decode_kwargs["max_len"] = 1  # resolved per dataset at run time
        decode_kwargs.setdefault("seed", 0)
        try:
            DecodeConfig(**decode_kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"decode: {exc}") from None
        for d in self.datasets:
            if not Path(d.path).exists():
                raise ConfigError(f"dataset file missing: {d.path}")
            if d.petri_net and not Path(d.petri_net).exists():
                raise ConfigError(f"Petri net file missing: {d.petri_net}")
        if not valid_split_fractions(self.split_fractions):
            raise ConfigError(f"invalid split fractions {self.split_fractions!r}")
        for task in self.tasks:
            if task not in ALL_TASKS:
                raise ConfigError(f"unknown task {task!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.min_k < 1:
            raise ConfigError(f"min_k must be >= 1, got {self.min_k!r}")


@dataclass
class CellResult:
    dataset: str
    model: str
    seed: int
    manifest_sha256: str | None = None
    train_report: dict | None = None
    metrics: dict | None = None
    metric_rows: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class RunRecord:
    config_hash: str
    version: str
    cells: list[CellResult]
    wall_clock_seconds: float

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "toolbox_version": self.version,
            "wall_clock_seconds": self.wall_clock_seconds,
            "cells": [asdict(c) for c in self.cells],
        }


def cell_seed(master: int, dataset_index: int, model_index: int, num_models: int) -> int:
    """master XOR stable cell index; keeps cells independent and reproducible."""
    return master ^ (dataset_index * num_models + model_index)


def load_split(
    spec: DatasetSpec, fractions: tuple[float, float] = (0.64, 0.16)
) -> tuple[SplitLog, PetriNet | None]:
    """The protocol's data preparation: parse the log, add the end-of-case
    events, split it chronologically, and load the dataset's Petri net."""
    split = temporal_split(augment_eoc(parse_csv(spec.path, spec.schema)), fractions)
    return split, load_petri_net(spec.petri_net) if spec.petri_net else None


def decode_limit(split: SplitLog) -> int:
    """The default decode length limit: the longest training trace."""
    return max(len(t) for t in split.train.traces)


def _load_or_error(
    spec: DatasetSpec, fractions: tuple[float, float]
) -> tuple[SplitLog, PetriNet | None] | Exception:
    try:
        return load_split(spec, fractions)
    except Exception as exc:  # recorded on each of the dataset's cells
        return exc


def run_cell(
    config: BenchmarkConfig,
    dataset_index: int,
    model_index: int,
    loaded: tuple[SplitLog, PetriNet | None] | Exception,
) -> CellResult:
    """Execute one (dataset, model) cell on its dataset's ``load_split``
    result (or the exception it raised): train, evaluate on the test
    prefixes every model of the dataset shares, and checkpoint the model."""
    dataset = config.datasets[dataset_index]
    model_spec = config.models[model_index]
    seed = cell_seed(config.seed, dataset_index, model_index, len(config.models))
    result = CellResult(dataset=dataset.name, model=model_spec.name, seed=seed)
    if isinstance(loaded, Exception):
        result.error = _error_text(loaded)
        return result
    split, net = loaded
    try:
        manifest = split_manifest(split)
        result.manifest_sha256 = hashlib.sha256(manifest.encode("utf-8")).hexdigest()

        train_cfg = TrainConfig(**model_spec.hyperparameters)
        predictor = build_predictor(
            model_spec.architecture, train_cfg, split.train.activity_vocab, split.train.attribute_vocabs, net
        )
        report = train(predictor, split, seed=seed, min_k=config.min_k)
        result.train_report = asdict(report)

        decode_kwargs = dict(config.decode)
        if decode_kwargs.get("max_len") is None:
            decode_kwargs["max_len"] = decode_limit(split)
        decode_kwargs.setdefault("seed", seed)
        decode_cfg = DecodeConfig(**decode_kwargs)
        metrics = evaluate_protocol(predictor, split.test, decode_cfg, config.tasks, config.min_k)
        result.metrics = asdict(metrics)
        result.metric_rows = [
            [dataset.name, model_spec.name, task, metric, value, n]
            for task, metric, value, n in metrics.as_rows()
        ]

        out_dir = Path(config.out_dir)
        cell_dir = out_dir / "cells"
        cell_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{dataset.name}__{model_spec.name}"
        write_text_atomic(cell_dir / f"{stem}.manifest.csv", lambda: manifest)
        save_predictor(predictor, cell_dir / stem, seed)
        result.artifacts = {
            "manifest": str(cell_dir / f"{stem}.manifest.csv"),
            "checkpoint": str(cell_dir / f"{stem}.json"),
        }
    except Exception as exc:  # cell isolation: record and continue
        result.error = _error_text(exc)
    return result


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}\n" + "".join(traceback.format_exception(exc))


def run_matrix(config: BenchmarkConfig) -> RunRecord:
    """Run every (dataset, model) cell. Each dataset is loaded once and shared
    by its cells; results are written incrementally so a crash loses at most
    the in-flight cell."""
    config.validate()
    start = time.perf_counter()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells: list[CellResult] = []

    def keep(cell: CellResult) -> None:
        cells.append(cell)
        _write_cell(out_dir, cell)

    models = range(len(config.models))
    if config.jobs > 1:
        # the parent loads every dataset first, so that all cells queue at once
        loaded = [_load_or_error(spec, config.split_fractions) for spec in config.datasets]
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(run_cell, config, d, m, data) for d, data in enumerate(loaded) for m in models]
            for future in futures:
                keep(future.result())
    else:
        for d, spec in enumerate(config.datasets):
            data = _load_or_error(spec, config.split_fractions)
            for m in models:
                keep(run_cell(config, d, m, data))
            del data  # one dataset in memory at a time
    record = RunRecord(
        config_hash=config.canonical_hash(),
        version=__version__,
        cells=cells,
        wall_clock_seconds=time.perf_counter() - start,
    )
    emit_reports(record, out_dir)
    return record


def _write_cell(out_dir: Path, cell: CellResult) -> None:
    cell_dir = out_dir / "cells"
    cell_dir.mkdir(parents=True, exist_ok=True)
    path = cell_dir / f"{cell.dataset}__{cell.model}.result.json"
    write_text_atomic(path, lambda: json.dumps(asdict(cell), indent=2, sort_keys=True))


def metrics_csv(cells: Sequence[CellResult]) -> str:
    """Machine-readable metric rows; deterministic ordering and float
    rendering so identical runs produce byte-identical files."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["dataset", "model", "task", "metric", "value", "n_samples"])
    rows = []
    for cell in cells:
        for dataset, model, task, metric, value, n in cell.metric_rows:
            rows.append((dataset, model, task, metric, repr(float(value)), n))
    rows.sort()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def markdown_tables(cells: Sequence[CellResult]) -> str:
    """One Markdown table per (task, metric): models as rows, datasets as
    columns, per-column best value in bold."""
    datasets = sorted({c.dataset for c in cells})
    models = sorted({c.model for c in cells})
    by_key: dict[tuple[str, str], dict[tuple[str, str], float]] = {}
    for cell in cells:
        for dataset, model, task, metric, value, _ in cell.metric_rows:
            by_key.setdefault((task, metric), {})[(model, dataset)] = value
    lines: list[str] = []
    for (task, metric), values in sorted(by_key.items()):
        lines.append(f"## {task} / {metric}")
        lines.append("")
        lines.append("| model | " + " | ".join(datasets) + " |")
        lines.append("|---" * (len(datasets) + 1) + "|")
        best: dict[str, float] = {}
        for dataset in datasets:
            column = [values[(m, dataset)] for m in models if (m, dataset) in values]
            if column:
                best[dataset] = max(column) if HIGHER_IS_BETTER.get(metric, True) else min(column)
        for model in models:
            row = [model]
            for dataset in datasets:
                value = values.get((model, dataset))
                if value is None:
                    row.append("-")
                elif dataset in best and value == best[dataset]:
                    row.append(f"**{value:.4f}**")
                else:
                    row.append(f"{value:.4f}")
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    return "\n".join(lines)


def emit_reports(record: RunRecord, out_dir: str | Path) -> dict[str, Path]:
    """Write metrics.csv, report.md, and the full run record JSON, each atomically."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics_csv": out_dir / "metrics.csv",
        "report_md": out_dir / "report.md",
        "run_record": out_dir / "run_record.json",
    }
    write_text_atomic(paths["metrics_csv"], lambda: metrics_csv(record.cells))
    write_text_atomic(paths["report_md"], lambda: markdown_tables(record.cells))
    write_text_atomic(paths["run_record"], lambda: json.dumps(record.to_dict(), indent=2, sort_keys=True))
    return paths
