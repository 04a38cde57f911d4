"""Tests of the benchmark itself: the generator's profile, the output checks,
the tracer's bookkeeping and the BENCHMARK.json contract.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import generator  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ppmbench import eventlog, inference, petrinet, splitting  # noqa: E402


@pytest.mark.parametrize("seed", [0, 7])
def test_full_size_log_matches_the_published_helpdesk_profile(seed):
    stats = generator.profile_stats(generator.generate(seed))
    assert stats["cases"] == 4580
    assert stats["activities"] == 14
    assert abs(stats["events"] - 21348) <= 0.02 * 21348
    assert stats["max_case_length"] == 15
    assert abs(stats["variants"] - 226) <= 0.1 * 226
    assert abs(stats["mean_case_duration_days"] - 40.86) <= 0.01 * 40.86
    assert 59.5 <= stats["max_case_duration_days"] <= 59.99


def test_same_seed_same_inputs(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        generator.write_csv(generator.generate(seed, 50), tmp_path / f"{name}.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_generated_traces_replay_on_the_generated_net_without_nonconformance(tmp_path):
    generator.write_csv(generator.generate(11, 600), tmp_path / "log.csv")
    generator.write_petri_net(tmp_path / "net.json")
    log = eventlog.parse_csv(tmp_path / "log.csv")
    net = petrinet.load_petri_net(tmp_path / "net.json")
    events = nonconforming = 0
    for trace in log.traces:
        state = petrinet.replay_timed_state(net, trace.events, trace.end_ms, 86400.0)
        events += len(trace)
        nonconforming += state.nonconforming
    assert events > 2000
    assert nonconforming / events == 0.0


class _Stub:
    time_target = "next"

    def __init__(self, vocab, probs):
        self.activity_vocab = vocab
        self.probs = np.asarray(probs, dtype=np.float64)

    def predict(self, events):
        return self.probs.copy(), 60.0


def _prefixes():
    log = eventlog.augment_eoc(
        eventlog.parse_csv(b"case_id,activity,timestamp\nc1,A,2020-01-01 00:00:00\nc1,B,2020-01-02 00:00:00\n")
    )
    return log.activity_vocab, [s.prefix for s in splitting.make_prefix_samples(log)]


def test_a_predictor_returning_a_non_distribution_is_a_failed_operation():
    vocab, prefixes = _prefixes()
    checks = workloads.Checks()
    checks.predictions(_Stub(vocab, [0.5, 0.6, 0.1]), prefixes, "stub")
    assert checks.attempted == len(prefixes) and len(checks.failures) == len(prefixes)

    good = workloads.Checks()
    good.predictions(_Stub(vocab, [0.2, 0.3, 0.5]), prefixes, "stub")
    assert good.attempted == len(prefixes) and not good.failures


def test_decode_check_accepts_eoc_and_truncation_and_rejects_a_raising_decoder():
    vocab, prefixes = _prefixes()
    eoc = vocab.index(eventlog.EOC)
    to_eoc = _Stub(vocab, np.eye(len(vocab))[eoc])
    never_eoc = _Stub(vocab, np.eye(len(vocab))[(eoc + 1) % len(vocab)])
    checks = workloads.Checks()
    checks.decodes(to_eoc, prefixes, inference.DecodeConfig(max_len=3), "eoc")
    checks.decodes(never_eoc, prefixes, inference.DecodeConfig(max_len=3), "truncated")
    assert not checks.failures
    checks.decodes(_Stub(vocab, [0.5, 0.6, 0.1]), prefixes, inference.DecodeConfig(max_len=3), "broken")
    assert len(checks.failures) == len(prefixes)


def test_report_check_flags_out_of_range_values_and_wrong_sample_counts():
    checks = workloads.Checks()
    report = workloads.metrics.MetricsReport(accuracy=1.2, brier=0.3, n_samples={"next_activity": 9})
    checks.report(report, 10, "r")
    assert len(checks.failures) == 2


def test_tracer_restores_every_binding_and_self_times_add_up(tmp_path):
    originals = {(id(owner), attr): owner.__dict__.get(attr)
                 for _, sites, _ in tracer.entry_points() for owner, attr in sites}
    generator.write_csv(generator.generate(2, 200), tmp_path / "log.csv")
    recorder = tracer.Tracer("test")
    with recorder:
        assert eventlog.parse_csv is not originals[(id(eventlog), "parse_csv")]
        setup = workloads.Iteration()
        setup.timed("setup", workloads.set_up, tmp_path / "log.csv")
    after = {(id(owner), attr): owner.__dict__.get(attr)
             for _, sites, _ in tracer.entry_points() for owner, attr in sites}
    assert after == originals

    layers = recorder.layer_metrics(setup.wall_s)
    assert layers["eventlog.parse_csv.calls"] == 1
    assert layers["splitting.make_prefix_samples.calls"] == 3
    self_total = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert self_total + layers["trace.remainder_s"] == pytest.approx(setup.wall_s, abs=1e-9)
    assert layers["trace.remainder_s"] >= 0.0


def test_self_time_subtracts_children():
    recorder = tracer.Tracer("manual")
    recorder.spans = [(1, "models.train", 0.0, 1.0, 0, None), (0, "bench.run_cell", 0.0, 3.0, None, None)]
    assert recorder.self_times() == {0: 2.0, 1: 1.0}


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {n: run.UNITS[n] for n in run.GATED}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-gru", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
