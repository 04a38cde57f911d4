"""Command-line entry point: stats, split, train, evaluate, benchmark, gradcheck.

Exit codes: 0 success, 1 runtime/partial failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .bench import BenchmarkConfig, ConfigError, DatasetSpec, decode_limit, load_split, run_matrix
from .eventlog import CsvSchema, compute_stats, parse_csv, stats_csv, stats_table
from .inference import DecodeConfig
from .metrics import evaluate_protocol
from .models import (
    ARCHITECTURES,
    INPUT_MODES,
    TrainConfig,
    build_predictor,
    checkpoint_needs_petri_net,
    load_predictor,
    needs_petri_net,
    save_predictor,
    train,
)
from .atomic import write_text_atomic
from .splitting import temporal_split, valid_split_fractions, write_split_manifest
from . import gradchecks

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _schema_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case-col", default="case_id", help="case-id column name")
    parser.add_argument("--activity-col", default="activity", help="activity column name")
    parser.add_argument("--timestamp-col", default="timestamp", help="timestamp column name")


def _schema(args) -> CsvSchema:
    return CsvSchema(
        case_id=args.case_col, activity=args.activity_col, timestamp=args.timestamp_col
    )


def _dataset(args) -> DatasetSpec:
    return DatasetSpec(Path(args.log).stem, args.log, _schema(args), args.petri_net)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("PPMBENCH_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seed(args) -> int:
    """The master seed: ``--seed`` when given, else 0."""
    if args.seed is None:
        return 0
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    return args.seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppmbench",
        description="Desk-scale benchmark toolbox for predictive business process monitoring",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    parser.add_argument("--out", default=None, help="output directory (or $PPMBENCH_OUT)")
    parser.add_argument(
        "--jobs", type=int, default=None, help="parallel (dataset, model) cells (default 1)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="descriptive statistics of a CSV log")
    p_stats.add_argument("log")
    _schema_args(p_stats)
    p_stats.add_argument("--name", default=None, help="log name in the output table")
    p_stats.add_argument("--csv", default=None, help="also write a single-row CSV here")

    p_split = sub.add_parser("split", help="chronological split; writes manifest and part CSVs")
    p_split.add_argument("log")
    _schema_args(p_split)
    p_split.add_argument("--train", type=float, default=0.64)
    p_split.add_argument("--val", type=float, default=0.16)

    p_train = sub.add_parser("train", help="train one model on a log")
    p_train.add_argument("log")
    _schema_args(p_train)
    p_train.add_argument("--arch", required=True, choices=ARCHITECTURES)
    p_train.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p_train.add_argument("--layers", type=int, default=TrainConfig.layers)
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_train.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p_train.add_argument("--patience", type=int, default=TrainConfig.patience)
    p_train.add_argument("--lr", type=float, default=TrainConfig.lr)
    p_train.add_argument(
        "--time-target", default=TrainConfig.time_target, choices=["next", "remaining", "none"]
    )
    p_train.add_argument("--petri-net", default=None)
    p_train.add_argument("--input-mode", default=TrainConfig.input_mode, choices=INPUT_MODES)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on a log's test part")
    p_eval.add_argument("log")
    _schema_args(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint path prefix")
    p_eval.add_argument("--strategy", default="argmax", choices=["argmax", "random", "beam"])
    p_eval.add_argument("--beam-width", type=int, default=1)
    p_eval.add_argument("--max-len", type=int, default=None)
    p_eval.add_argument("--petri-net", default=None)

    p_bench = sub.add_parser("benchmark", help="run the full dataset/model matrix of a config")
    p_bench.add_argument("config")

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of one architecture")
    p_grad.add_argument("arch", choices=gradchecks.GRADCHECK_ARCHITECTURES)

    return parser


def cmd_stats(args) -> int:
    log = parse_csv(args.log, _schema(args))
    stats = compute_stats(log)
    name = args.name or Path(args.log).stem
    print(stats_table({name: stats}), end="")
    if args.csv:
        write_text_atomic(args.csv, lambda: stats_csv({name: stats}))
    return EXIT_OK


def cmd_split(args) -> int:
    from .eventlog import write_csv

    if not valid_split_fractions((args.train, args.val)):
        raise ConfigError(f"invalid split fractions {(args.train, args.val)!r}")
    log = parse_csv(args.log, _schema(args))
    split = temporal_split(log, (args.train, args.val))
    out = _out_dir(args)
    write_split_manifest(split, out / "split_manifest.csv")
    for part in ("train", "validation", "test"):
        write_csv(split.part(part), out / f"{part}.csv", _schema(args))
    print(
        f"split sizes: train={len(split.train.traces)} "
        f"validation={len(split.validation.traces)} test={len(split.test.traces)}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        config = TrainConfig(
            hidden=args.hidden,
            layers=args.layers,
            epochs=args.epochs,
            batch_size=args.batch_size,
            patience=args.patience,
            lr=args.lr,
            time_target=None if args.time_target == "none" else args.time_target,
            input_mode=args.input_mode,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if needs_petri_net(args.arch, config) and args.petri_net is None:
        raise ConfigError("--input-mode timed_state needs --petri-net")
    seed = _seed(args)
    split, net = load_split(_dataset(args))
    predictor = build_predictor(
        args.arch, config, split.train.activity_vocab, split.train.attribute_vocabs, net
    )
    report = train(predictor, split, seed=seed)
    out = _out_dir(args)
    write_split_manifest(split, out / "split_manifest.csv")
    written = save_predictor(predictor, out / "model", seed=seed)
    write_text_atomic(
        out / "train_report.json",
        lambda: json.dumps(asdict(report), indent=2, sort_keys=True),
    )
    best_val = report.val_losses[report.best_epoch]
    print(f"trained {args.arch}: {len(report.train_losses)} epochs, "
          f"best epoch {report.best_epoch} (val loss {best_val:.6f})")
    print("checkpoint: " + " ".join(str(path) for path in written))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    try:
        decode_cfg = DecodeConfig(
            strategy=args.strategy,
            beam_width=args.beam_width,
            max_len=DecodeConfig.max_len if args.max_len is None else args.max_len,
            seed=_seed(args),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.petri_net is None and checkpoint_needs_petri_net(args.checkpoint):
        raise ConfigError(f"checkpoint {args.checkpoint} reads timed_state input: it needs --petri-net")
    split, net = load_split(_dataset(args))
    predictor = load_predictor(args.checkpoint, net)
    if args.max_len is None:
        decode_cfg = replace(decode_cfg, max_len=decode_limit(split))
    report = evaluate_protocol(predictor, split.test, decode_cfg)
    out = _out_dir(args)
    rows = report.as_rows()
    payload = {task + "/" + metric: value for task, metric, value, _ in rows}
    write_text_atomic(out / "metrics.json", lambda: json.dumps(payload, indent=2, sort_keys=True))
    for task, metric, value, n in rows:
        print(f"{task:<15} {metric:<14} {value:.6f}  (n={n})")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    config = BenchmarkConfig.from_json(args.config)
    if args.out:
        config.out_dir = args.out
    elif os.environ.get("PPMBENCH_OUT"):
        config.out_dir = os.environ["PPMBENCH_OUT"]
    if args.jobs is not None:
        config.jobs = args.jobs
    if args.seed is not None:
        config.seed = args.seed
    config.validate()
    record = run_matrix(config)
    failures = [c for c in record.cells if c.error]
    for cell in record.cells:
        status = "FAILED" if cell.error else "ok"
        print(f"[{status}] {cell.dataset} / {cell.model}")
    print(f"reports under {config.out_dir}")
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_gradcheck(args) -> int:
    error = gradchecks.architecture_gradcheck(args.arch, seed=_seed(args))
    print(f"{args.arch}: max relative gradient error {error:.3e}")
    gate = gradchecks.GRADCHECK_GATE
    if error < gate:
        print(f"PASS (< {gate:g})")
        return EXIT_OK
    print(f"FAIL (>= {gate:g})")
    return EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "split":
            return cmd_split(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "evaluate":
            return cmd_evaluate(args)
        if args.command == "benchmark":
            return cmd_benchmark(args)
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
