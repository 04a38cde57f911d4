"""Paired A/B run of the pipeline benchmark: a parent revision against this checkout.

Lays out two trees side by side in one temporary directory, ``parent/`` and
``change/``, so that both paths have the same length: ``parent/`` holds the
measured paths (``src``, ``perfbench`` and ``BENCHMARK.json``) of ``--parent``
(default ``HEAD``), extracted with ``git archive``, and ``change/`` a snapshot
of the same paths of this checkout's working tree, uncommitted edits included,
taken once before the first run. For each ``--workload`` it then runs
``perfbench/run.py --trace 0`` ``--pairs`` times in each tree, alternating the
trees and switching which one runs first on every pair, so that drift in the
machine's speed falls on both sides alike, and neither side gains from where
its tree lies. Each run lasts as long as ``perfbench/run.py`` decides by
default. An entry names the measured code by ``commit`` plus
``source_diff_sha256``, the sha256 of ``git diff --binary HEAD -- src
perfbench`` (null when that diff is empty); once the edits are committed,
``git diff --binary <commit> <new commit> -- src perfbench | sha256sum`` gives
the same hash.

For every end-to-end metric that ``BENCHMARK.json`` gates, and for the raw
seconds of each run beside them (``setup_raw_s``, ``workload_raw_s`` and
``reference_s``, before any scaling by the reference kernel; ungated), it
prints both medians, both quartiles and in how many pairs the change was
better, and it appends one entry per workload to ``BENCH_<workload>.json``
at the repository root. The raw seconds show whether a move of a scaled
figure came from the pass or from the reference kernel. Nothing is registered in ``.git``; the temporary trees are removed at
the end. Run from anywhere:

    python3 tools/ab_bench.py --parent HEAD~1 --workload decode-gru --pairs 10 --seed 1
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train-gru", "decode-gru", "matrix")
MEASURED = ("src", "perfbench")  # what a benchmark run executes
TREE_PATHS = (*MEASURED, "BENCHMARK.json")  # what each side's tree holds
RAW = ("setup_raw_s", "workload_raw_s", "reference_s")  # recorded beside the gated metrics, ungated


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), linearly interpolated between the sorted values."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Paired summary of one metric: both medians and quartiles, the parent's
    interquartile range, and per pair whether the change was better, worse or
    equal (a tie counts for neither side). ``better`` is ``"lower"`` or
    ``"higher"``."""
    if len(parent) != len(change):
        raise ValueError(f"unpaired runs: {len(parent)} parent, {len(change)} change")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {
        "pairs": len(parent),
        "parent_median": pm, "parent_q1": p1, "parent_q3": p3, "parent_iqr": p3 - p1,
        "change_median": cm, "change_q1": c1, "change_q3": c3,
        "change_better": sum(d > 0 for d in diffs),
        "change_worse": sum(d < 0 for d in diffs),
        "ties": sum(d == 0 for d in diffs),
    }


def gated_metrics(root: Path) -> dict[str, dict]:
    """name -> {"unit", "better", "bound"} of the end-to-end metrics ``BENCHMARK.json`` gates."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def recorded_metrics(gated: dict[str, dict]) -> dict[str, dict]:
    """name -> {"unit", "better", "gated"} of every metric an entry records:
    the gated ones, then the raw seconds."""
    return {
        **{name: {"unit": m["unit"], "better": m["better"], "gated": True} for name, m in gated.items()},
        **{name: {"unit": "s", "better": "lower", "gated": False} for name in RAW},
    }


def git(*args: str, root: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout.strip()


def source_diff_sha256(root: Path) -> str | None:
    """sha256 of the uncommitted change to the measured paths, None if there is
    none. Untracked files there are not in the diff, so they are refused."""
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *MEASURED, root=root)
    if untracked:
        raise SystemExit(f"ab_bench: untracked files under {'/'.join(MEASURED)}; add them first:\n{untracked}")
    diff = subprocess.run(["git", "diff", "--binary", "HEAD", "--", *MEASURED], cwd=root,
                          check=True, capture_output=True).stdout
    return hashlib.sha256(diff).hexdigest() if diff else None


def extract(root: Path, rev: str, dest: Path) -> None:
    """The measured paths of the committed tree of ``rev`` under ``dest``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev, "--", *TREE_PATHS], cwd=root,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=False)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"ab_bench: could not extract {rev!r}")


def snapshot(root: Path, dest: Path) -> None:
    """The measured paths of the working tree under ``dest``: every tracked
    file as it is on disk, so uncommitted edits are in and build leftovers
    such as ``__pycache__`` are not. A tracked file deleted from disk is
    left out, as the change would leave it out."""
    for name in git("ls-files", "-z", "--", *TREE_PATHS, root=root).split("\0"):
        source = root / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, dest / name)


def prepare_trees(root: Path, rev: str, tmp: Path) -> dict[str, Path]:
    """side -> tree: ``rev`` extracted under ``tmp/parent`` and the working
    tree's snapshot under ``tmp/change``, two paths of one length."""
    trees = {"parent": tmp / "parent", "change": tmp / "change"}
    extract(root, rev, trees["parent"])
    snapshot(root, trees["change"])
    return trees


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The result of one ``perfbench/run.py --trace 0 --json-result`` run in
    ``tree``: every end-to-end figure under ``values``, and ``failures``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0",
               "--json-result"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"ab_bench: {workload} in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(trees: dict[str, Path], workload: str, pairs: int, seed: int, shown) -> dict:
    """``pairs`` alternated runs per tree; the first tree to run switches
    every pair. Each run's ``shown`` values go to stderr."""
    runs = {side: [] for side in trees}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], workload, seed)
            runs[side].append(result)
            values = " ".join(f"{name}={result['values'][name]:.4g}" for name in shown)
            print(f"  pair {i + 1}/{pairs} {side:<6} {values}", file=sys.stderr, flush=True)
    return runs


def workload_entry(workload: str, runs: dict, recorded: dict, args, commit: str, diff_sha: str | None,
                   parent: str) -> dict:
    metrics = {}
    for name, spec in recorded.items():
        parent_values = [r["values"][name] for r in runs["parent"]]
        change_values = [r["values"][name] for r in runs["change"]]
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "gated": spec["gated"],
            **summarize(parent_values, change_values, spec["better"]),
            "parent": parent_values, "change": change_values,
        }
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": workload,
        "commit": commit,
        "source_diff_sha256": diff_sha,
        "parent": parent,
        "seed": args.seed,
        "pairs": args.pairs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "correct": {side: not any(r["failures"] for r in side_runs) for side, side_runs in runs.items()},
        "metrics": metrics,
    }


def print_entry(entry: dict) -> None:
    print(f"{entry['workload']} seed={entry['seed']} pairs={entry['pairs']} "
          f"parent={entry['parent'][:12]} change={entry['commit'][:12]}"
          f"{'+' + entry['source_diff_sha256'][:12] if entry['source_diff_sha256'] else ''}")
    print(f"  {'metric':<14} {'parent median [Q1, Q3]':>30} {'change median [Q1, Q3]':>30}  change better")
    for name, m in entry["metrics"].items():
        parent = f"{m['parent_median']:.4g} [{m['parent_q1']:.4g}, {m['parent_q3']:.4g}]"
        change = f"{m['change_median']:.4g} [{m['change_q1']:.4g}, {m['change_q3']:.4g}]"
        ungated = "" if m["gated"] else "  (ungated)"
        print(f"  {name:<14} {parent:>30} {change:>30}  {m['change_better']} of {m['pairs']}{ungated}")
    if not all(entry["correct"].values()):
        print(f"  checks failed: {entry['correct']}")


def append_entry(root: Path, entry: dict) -> Path:
    path = root / f"BENCH_{entry['workload']}.json"
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run; repeat for several (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    commit = git("rev-parse", "HEAD")
    diff_sha = source_diff_sha256(ROOT)
    recorded = recorded_metrics(gated_metrics(ROOT))
    # on SIGTERM unwind as on Ctrl-C: the running benchmark is killed, the temporary trees removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        trees = prepare_trees(ROOT, parent, Path(tmp))
        for workload in args.workload or WORKLOADS:
            runs = measure(trees, workload, args.pairs, args.seed, recorded)
            entry = workload_entry(workload, runs, recorded, args, commit, diff_sha, parent)
            print_entry(entry)
            print(f"  appended to {append_entry(ROOT, entry)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
