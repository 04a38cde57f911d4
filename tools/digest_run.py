"""Digest a fixed benchmark run, to check that a change keeps results bit for bit.

Runs ``bench.run_matrix`` at seed 1 with one job on two datasets of
``perfbench/generator.py``, ``generate(1, 400)`` and ``generate(2, 200)``, each
with the generator's Petri net. The matrix holds markov (order 2, and
order 3 with alpha 1), autoencoder, mlp (``padded_flat``, ``single_event``,
``timed_state`` with Resource), gru (Resource, embedding), gru truncating its
input at 4 events, lstm (remaining time) and rnn (no time head), 2 epochs
each; a second matrix, ``later/``, holds a gru reading a window of 3 events
without time features; a third, ``wide/``, a gru at hidden 64 with 2
layers (the width of a default ``gru64``), 2 epochs; and a fourth,
``edge/``, markov at order 0 (every context empty) and an autoencoder at
``ngram_k`` 1 (every carried tail empty). Each is decoded four
times: argmax, random sampling, beam-2, and beam-3 with length-normalised
scores. Prints
``sha256  path`` for every artifact the runs write, except the cell
``*.result.json`` files and ``run_record.json``, which hold wall-clock times.
Prints to stderr the total of ``clipped_batches`` and
``stage_clipped_batches`` over those cell result files: the batches of every
training stage of each cell (the autoencoder's pretraining and
frozen-encoder stages included) whose gradient norm exceeded ``clip_norm``.
A change that rounds the gradient norm differently can move a result only
through such a batch.

``ppmbench`` is imported from ``PYTHONPATH``, so one copy of this script digests
any checkout:

    PYTHONPATH=src python tools/digest_run.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/digest_run.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from ppmbench import bench

GENERATOR = Path(__file__).resolve().parents[1] / "perfbench" / "generator.py"
SEED = 1
DATASETS = (("generator", 1, 400), ("generator-small", 2, 200))  # name, seed, cases
EPOCHS = {"epochs": 2, "patience": 2}
SMALL = {"hidden": 16, "layers": 2, **EPOCHS}
MODELS = (
    ("markov", "markov", {}),
    ("markov3", "markov", {"order": 3, "alpha": 1.0}),
    ("autoencoder", "autoencoder", {**EPOCHS, "pretrain_epochs": 2, "freeze_epochs": 1}),
    ("mlp-padded-flat", "mlp", {**SMALL, "input_mode": "padded_flat"}),
    ("mlp-single-event", "mlp", {**SMALL, "input_mode": "single_event"}),
    ("mlp-timed-state", "mlp", {**SMALL, "input_mode": "timed_state", "attributes": ["Resource"]}),
    ("gru", "gru", {**SMALL, "attributes": ["Resource"], "embedding_dim": 4}),
    ("gru-max-len", "gru", {**SMALL, "max_len": 4}),
    ("lstm", "lstm", {**SMALL, "time_target": "remaining"}),
    ("rnn", "rnn", {**SMALL, "time_target": None}),
)
# A cell's seed depends on the number of models in its matrix, and metrics.csv
# holds a row per cell, so models added after the listing was anchored run in
# a matrix of their own (``later/``, then ``wide/``, then ``edge/``); the older lines stay.
LATER_MODELS = (
    ("gru-window", "gru", {**SMALL, "window": 3, "include_time": False}),
)
WIDE_MODELS = (
    ("gru64", "gru", {"hidden": 64, "layers": 2, **EPOCHS}),
)
EDGE_MODELS = (
    ("markov0", "markov", {"order": 0}),
    ("autoencoder-k1", "autoencoder", {**EPOCHS, "pretrain_epochs": 2, "freeze_epochs": 1, "ngram_k": 1}),
)
DECODES = {
    "argmax": {"strategy": "argmax"},
    "random": {"strategy": "random"},
    "beam2": {"strategy": "beam", "beam_width": 2},
    "beam3n": {"strategy": "beam", "beam_width": 3, "length_normalize": True},
}
UNSTABLE = ("run_record.json",)


def load_generator():
    """``perfbench/generator.py`` as a module, loaded by path as the tests do."""
    spec = importlib.util.spec_from_file_location("perfbench_generator", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run(out: Path) -> None:
    generator = load_generator()
    net_path = out / "net.json"
    generator.write_petri_net(net_path)
    datasets = []
    for name, seed, cases in DATASETS:
        csv_path = out / f"{name}.csv"
        generator.write_csv(generator.generate(seed, cases), csv_path)
        datasets.append(bench.DatasetSpec(name, str(csv_path), petri_net=str(net_path)))
    matrices = ((out, MODELS), (out / "later", LATER_MODELS), (out / "wide", WIDE_MODELS), (out / "edge", EDGE_MODELS))
    for root, specs in matrices:
        models = tuple(bench.ModelSpec(name, arch, dict(hp)) for name, arch, hp in specs)
        for name, decode in DECODES.items():
            config = bench.BenchmarkConfig(
                datasets=tuple(datasets), models=models, decode=decode, seed=SEED,
                out_dir=str(root / name), jobs=1,
            )
            record = bench.run_matrix(config)
            for cell in record.cells:
                if cell.error:
                    raise SystemExit(f"cell {cell.dataset}/{cell.model} ({name}) failed: {cell.error}")


def digests(out: Path) -> list[tuple[str, str]]:
    """(sha256, path relative to ``out``) of every file but the wall-clock ones."""
    return [
        (hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out).as_posix())
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.endswith(".result.json") and path.name not in UNSTABLE
    ]


def clipped_batches(out: Path) -> int:
    """Total clipped batches of every training stage, ``clipped_batches`` plus
    ``stage_clipped_batches``, of the train reports in the cell
    ``*.result.json`` files under ``out``."""
    total = 0
    for path in sorted(out.rglob("*.result.json")):
        report = json.loads(path.read_text())["train_report"] or {}
        total += sum(report.get("clipped_batches", ()))
        total += sum(sum(stage) for stage in report.get("stage_clipped_batches", ()))
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None, help="keep the run here (default: a temporary directory)"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out or tmp)
        out.mkdir(parents=True, exist_ok=True)
        run(out)
        for digest, path in digests(out):
            print(f"{digest}  {path}")
        print(f"clipped batches: {clipped_batches(out)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
