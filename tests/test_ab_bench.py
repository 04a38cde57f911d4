"""The pure parts of ``tools/ab_bench.py``: the paired summary and the BENCH file."""

import argparse
import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_tool()


class TestSummarize:
    def test_medians_quartiles_and_wins_lower_is_better(self):
        parent = [2.0, 2.4, 2.2, 2.6, 2.3]
        change = [1.3, 2.4, 1.4, 1.2, 2.5]
        s = ab.summarize(parent, change, "lower")
        assert s["pairs"] == 5
        assert s["parent_median"] == 2.3 and s["change_median"] == 1.4
        assert (s["parent_q1"], s["parent_q3"]) == (2.2, 2.4)
        assert (s["change_q1"], s["change_q3"]) == (1.3, 2.4)
        assert s["parent_iqr"] == pytest.approx(0.2)
        # pair 2 is a tie and counts for neither side; pair 5 is worse
        assert (s["change_better"], s["change_worse"], s["ties"]) == (3, 1, 1)

    def test_higher_is_better_flips_the_count(self):
        s = ab.summarize([0.5, 0.5, 0.6], [0.7, 0.5, 0.4], "higher")
        assert (s["change_better"], s["change_worse"], s["ties"]) == (1, 1, 1)
        s = ab.summarize([0.5, 0.5, 0.6], [0.7, 0.5, 0.4], "lower")
        assert (s["change_better"], s["change_worse"], s["ties"]) == (1, 1, 1)
        s = ab.summarize([1.0, 2.0], [3.0, 4.0], "higher")
        assert s["change_better"] == 2

    def test_identical_runs_are_all_ties(self):
        s = ab.summarize([0.79, 0.79], [0.79, 0.79], "higher")
        assert (s["change_better"], s["change_worse"], s["ties"]) == (0, 0, 2)
        assert s["parent_iqr"] == 0.0

    def test_one_pair(self):
        s = ab.summarize([3.0], [2.0], "lower")
        assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (3.0, 3.0, 3.0)
        assert s["change_better"] == 1

    def test_rejects_unpaired_runs_and_unknown_direction(self):
        with pytest.raises(ValueError, match="unpaired"):
            ab.summarize([1.0, 2.0], [1.0], "lower")
        with pytest.raises(ValueError, match="better"):
            ab.summarize([1.0], [1.0], "faster")
        with pytest.raises(ValueError):
            ab.quartiles([])


def test_gated_metrics_follow_benchmark_json():
    gated = ab.gated_metrics(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(gated) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["better"] in ("lower", "higher") for m in gated.values())


def test_recorded_metrics_are_the_gated_ones_then_the_raw_seconds_ungated():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = ab.recorded_metrics(ab.gated_metrics(ROOT))
    gated = [m["name"] for m in spec["end_to_end"]]
    assert list(recorded) == gated + ["setup_raw_s", "workload_raw_s", "reference_s"]
    assert [m["gated"] for m in recorded.values()] == [True] * len(gated) + [False] * 3
    assert all(recorded[name]["unit"] == "s" and recorded[name]["better"] == "lower" for name in ab.RAW)


def test_an_entry_summarizes_every_recorded_metric_and_reads_correctness_from_failures(capsys):
    recorded = ab.recorded_metrics(ab.gated_metrics(ROOT))

    def run(scale, failures=()):  # a --json-result line: every figure under values, and the failures
        values = {name: scale * (i + 1) for i, name in enumerate(recorded)}
        return {"values": {**values, "brier": 0.5}, "failures": list(failures)}

    runs = {"parent": [run(2.0), run(2.2)], "change": [run(1.0), run(3.0, ["quality changed"])]}
    entry = ab.workload_entry("matrix", runs, recorded, argparse.Namespace(seed=1, pairs=2), "c" * 40, None, "p" * 40)
    assert list(entry["metrics"]) == list(recorded)
    raw = entry["metrics"]["workload_raw_s"]
    position = list(recorded).index("workload_raw_s") + 1
    assert raw["parent"] == [2.0 * position, 2.2 * position] and raw["change"] == [1.0 * position, 3.0 * position]
    assert raw["gated"] is False and raw["unit"] == "s" and (raw["change_better"], raw["change_worse"]) == (1, 1)
    assert entry["metrics"]["setup_s"]["gated"] is True
    assert entry["correct"] == {"parent": True, "change": False}
    ab.print_entry(entry)
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}
    assert [name for name, line in rows.items() if line.endswith("(ungated)")] == list(ab.RAW)
    assert "checks failed" in out


def test_a_run_reads_the_full_result_of_the_benchmark(monkeypatch, tmp_path):
    seen = []
    line = {"values": {"setup_s": 1.0, "setup_raw_s": 0.9}, "failures": []}

    def fake_run(command, cwd, **kwargs):
        seen.append((command, cwd))
        return subprocess.CompletedProcess(command, 0, stdout="progress\n" + json.dumps(line) + "\n", stderr="")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    assert ab.run_once(tmp_path, "matrix", 3) == line
    [(command, cwd)] = seen
    assert cwd == tmp_path
    assert command[1:] == ["perfbench/run.py", "--workload", "matrix", "--seed", "3", "--trace", "0", "--json-result"]


def test_entries_append_to_one_file_per_workload(tmp_path):
    first = {"workload": "decode-gru", "commit": "a"}
    second = {"workload": "decode-gru", "commit": "b"}
    path = ab.append_entry(tmp_path, first)
    assert ab.append_entry(tmp_path, second) == path == tmp_path / "BENCH_decode-gru.json"
    assert json.loads(path.read_text()) == [first, second]


def test_source_diff_hash_matches_the_commit_made_from_it(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
                              check=True, capture_output=True).stdout

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    assert ab.source_diff_sha256(tmp_path) is None
    (tmp_path / "README").write_text("docs are not measured\n")
    assert ab.source_diff_sha256(tmp_path) is None
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    (tmp_path / "src" / "b.py").write_text("y = 3\n")
    with pytest.raises(SystemExit, match="untracked"):
        ab.source_diff_sha256(tmp_path)
    git("add", "src/b.py")
    measured = ab.source_diff_sha256(tmp_path)
    git("add", "-A")
    git("commit", "-q", "-m", "change")
    committed = git("diff", "--binary", "HEAD~1", "HEAD", "--", "src", "perfbench")
    assert measured == hashlib.sha256(committed).hexdigest()


def test_both_trees_lie_at_paths_of_one_length_and_the_change_holds_uncommitted_edits(tmp_path):
    repo = tmp_path / "repo"

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True)

    for name, text in [("src/pkg/a.py", "x = 1\n"), ("perfbench/run.py", "run = 1\n"),
                       ("BENCHMARK.json", "{}\n"), ("README", "not measured\n")]:
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "src" / "pkg" / "a.py").write_text("x = 2\n")
    (repo / "src" / "pkg" / "__pycache__").mkdir()
    (repo / "src" / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"stale")
    work = tmp_path / "work"
    work.mkdir()
    trees = ab.prepare_trees(repo, "HEAD", work)
    assert set(trees) == {"parent", "change"}
    assert len(str(trees["parent"])) == len(str(trees["change"]))
    assert (trees["parent"] / "src" / "pkg" / "a.py").read_text() == "x = 1\n"
    assert (trees["change"] / "src" / "pkg" / "a.py").read_text() == "x = 2\n"
    for tree in trees.values():
        files = sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
        assert files == ["BENCHMARK.json", "perfbench/run.py", "src/pkg/a.py"]
