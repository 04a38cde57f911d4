"""ppmbench pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train-gru --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each workload runs in one process, by a single caller, with BLAS limited to
one thread. The run generates its inputs from the seed, sets up several
times, repeats the workload's timed sections for about ``--seconds``
seconds (at least once), scales every time by a reference kernel timed
around it, checks the outputs of the first pass, and prints a metric table
followed by one JSON line. ``--trace 1`` adds one traced pass and reports
the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: steady timings from a single caller

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # set-ups per run; setup_s is their median
WORKLOAD_NAMES = ("train-gru", "decode-gru", "matrix")

# (name, unit) of every end-to-end metric a run prints, in print order
UNITS = {
    "setup_s": "s",
    "workload_s": "s",
    "peak_rss_mb": "MB",
    "setup_raw_s": "s",
    "workload_raw_s": "s",
    "reference_s": "s",
    "accuracy": "share",
    "brier": "score",
    "mae_next_days": "days",
    "train_samples_per_s": "samples/s",
    "next_prefixes_per_s": "prefixes/s",
    "suffix_argmax_per_s": "prefixes/s",
    "suffix_beam3_per_s": "prefixes/s",
    "matrix_s": "s",
    "dl_similarity_argmax": "share",
    "dl_similarity_beam3": "share",
    "mae_remaining_days": "days",
    "error_rate": "share",
}
# the ones BENCHMARK.json gates: every workload reports them on every run
GATED = ("setup_s", "workload_s", "peak_rss_mb", "accuracy")


def _load_program():
    """Import ppmbench from this checkout's ``src``; exit with an error if it is not there."""
    src = ROOT / "src"
    if not (src / "ppmbench" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ppmbench sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import Tracer, per_layer_units

    workload = workloads.WORKLOADS[workload_name]
    runner = workloads.RUNNERS[workload_name]
    work_dir = ROOT / ".perfbench-work" / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        inputs = workloads.make_inputs(workload, seed, work_dir)
        checks = workloads.Checks()
        # the reference kernel runs before the set-ups and after them and every
        # pass; each block's times are scaled to the kernel's nominal speed
        refs = [workloads.reference_kernel()]
        setups = workloads.Iteration()
        for i in range(SETUPS):
            setup = setups.timed(f"setup{i}", workloads.set_up, inputs.csv_path)
        refs.append(workloads.reference_kernel())
        setup_scale = workloads.REFERENCE_S / statistics.mean(refs)

        iterations, scales = [], []
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            iterations.append(runner(inputs, setup, None if iterations else checks))
            now = time.perf_counter()
            refs.append(workloads.reference_kernel())
            scales.append(workloads.REFERENCE_S / statistics.mean(refs[-2:]))
            if now - started + (now - pass_started) > seconds:
                break
        first = iterations[0].quality
        for later in iterations[1:]:
            checks.check(later.quality == first, f"quality changed between passes: {first} vs {later.quality}")

        scaled = {
            section: statistics.median(it.sections[section] * scale for it, scale in zip(iterations, scales))
            for section in iterations[0].sections
        }
        raw_setup = statistics.median(setups.sections.values())
        raw_pass = statistics.median(it.wall_s for it in iterations)
        values = {
            "setup_s": raw_setup * setup_scale,
            "workload_s": sum(scaled.values()),
            "setup_raw_s": raw_setup,
            "workload_raw_s": raw_pass,
            "reference_s": statistics.median(refs),
            **first,
        }
        for rate, (section, units) in iterations[0].work.items():
            values[rate] = units / scaled[section]
        if workload_name == "matrix":
            values["matrix_s"] = scaled["matrix"]

        layers = None
        if trace:
            tracer = Tracer(run_id=f"{workload_name}-{seed}-{os.getpid()}")
            with tracer:
                traced = workloads.Iteration()
                setup = traced.timed("setup", workloads.set_up, inputs.csv_path)
                body = runner(inputs, setup, None)
            checks.check(body.quality == first, f"quality changed under tracing: {first} vs {body.quality}")
            wall = traced.wall_s + body.wall_s
            layers = tracer.layer_metrics(wall)
            layers["trace.overhead_s"] = wall - raw_setup - raw_pass
            layers["bench.artifact_mb"] = body.artifact_mb
            layers["splitting.make_prefix_samples.retained_mb"] = workloads.retained_sample_mb(setup.split)
            layers = {name: layers[name] for name in per_layer_units()}
            tracer.write(ROOT / ".perfbench-out" / f"trace-{workload_name}-seed{seed}.json.gz",
                         workload=workload_name, seed=seed, wall_s=wall)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values["error_rate"] = len(checks.failures) / checks.attempted
    return {
        "workload": workload_name,
        "seed": seed,
        "passes": len(iterations),
        "values": values,
        "layers": layers,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }


def print_table(result: dict) -> None:
    print(f"perfbench {result['workload']} seed={result['seed']} passes={result['passes']}")
    for name, unit in UNITS.items():
        if name in result["values"]:
            print(f"  {name:<24} {result['values'][name]:>14.6g} {unit}")
    print(f"  checks: {result['attempted'] - len(result['failures'])} of {result['attempted']} passed")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    if result["layers"]:
        from tracer import per_layer_units

        units = per_layer_units()
        for name in units:
            print(f"  {name:<52} {result['layers'][name]:>14.6g} {units[name]}")


def result_line(result: dict, trace: bool) -> str:
    if trace:
        from tracer import per_layer_units

        units = per_layer_units()
        chosen = {name: {"value": result["layers"][name], "unit": unit} for name, unit in units.items()}
    else:
        chosen = {name: {"value": result["values"][name], "unit": UNITS[name]} for name in GATED}
    return json.dumps(
        {
            "correct": not result["failures"],
            "attempted": result["attempted"],
            "failed": len(result["failures"]),
            "metrics": chosen,
        }
    )


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, then one table of every end-to-end metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0", "--json-result"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':<24} {'unit':<11}" + "".join(f"{name:>14}" for name in WORKLOAD_NAMES))
    for metric, unit in UNITS.items():
        cells = [results[w]["values"].get(metric) for w in WORKLOAD_NAMES]
        print(f"{metric:<24} {unit:<11}" + "".join(f"{'-' if v is None else format(v, '.6g'):>14}" for v in cells))
    failures = [f for r in results.values() for f in r["failures"]]
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": not failures, "results": results}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-result", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.json_result:
        print(json.dumps(result))
        return 0
    print_table(result)
    print(result_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
