import json

import pytest

from ppmbench import bench
from ppmbench.atomic import write_atomic, write_text_atomic
from ppmbench.bench import (
    BenchmarkConfig,
    CellResult,
    ConfigError,
    DatasetSpec,
    ModelSpec,
    RunRecord,
    cell_seed,
    emit_reports,
    markdown_tables,
    metrics_csv,
    run_matrix,
)
from ppmbench.eventlog import CsvSchema, write_csv

from ppmbench.models import TrainReport
from ppmbench.splitting import make_prefix_samples

from conftest import _perfbench_generator, make_linear_log


@pytest.fixture
def log_csv(tmp_path):
    path = tmp_path / "linear.csv"
    write_csv(make_linear_log(40), path)
    return path


def small_config(tmp_path, log_csv, models=None, **overrides):
    raw = {
        "config_version": 1,
        "seed": 5,
        "out_dir": str(tmp_path / "out"),
        "datasets": [{"name": "linear", "path": str(log_csv)}],
        "models": models
        or [
            {"name": "markov", "architecture": "markov", "hyperparameters": {"order": 2}},
            {
                "name": "mlp",
                "architecture": "mlp",
                "hyperparameters": {"hidden": 8, "layers": 1, "epochs": 3, "patience": 3},
            },
        ],
    }
    raw.update(overrides)
    return BenchmarkConfig.from_dict(raw)


class TestConfigValidation:
    def test_empty_datasets_rejected(self, tmp_path, log_csv):
        config = small_config(tmp_path, log_csv, datasets=[])
        with pytest.raises(ConfigError):
            config.validate()

    def test_empty_models_rejected(self, tmp_path, log_csv):
        config = small_config(tmp_path, log_csv, models=[])
        config = BenchmarkConfig(datasets=config.datasets, models=())
        with pytest.raises(ConfigError):
            config.validate()

    def test_duplicate_names_rejected(self, tmp_path, log_csv):
        config = small_config(
            tmp_path,
            log_csv,
            models=[
                {"name": "m", "architecture": "markov"},
                {"name": "m", "architecture": "markov"},
            ],
        )
        with pytest.raises(ConfigError):
            config.validate()

    def test_missing_file_rejected(self, tmp_path):
        config = BenchmarkConfig(
            datasets=(DatasetSpec(name="d", path=str(tmp_path / "missing.csv")),),
            models=(ModelSpec(name="m", architecture="markov"),),
        )
        with pytest.raises(ConfigError):
            config.validate()

    def test_bad_fractions_rejected(self, tmp_path, log_csv):
        config = small_config(tmp_path, log_csv, split={"train": 0.9, "validation": 0.2})
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize(
        "split", [{"train": float("nan"), "validation": 0.1}, {"train": 0.5, "validation": float("nan")}]
    )
    def test_nan_fraction_rejected(self, tmp_path, log_csv, split):
        config = small_config(tmp_path, log_csv, split=split)
        with pytest.raises(ConfigError, match="split fractions"):
            config.validate()

    @pytest.mark.parametrize("min_k", [0, -1])
    def test_min_k_below_one_rejected(self, tmp_path, log_csv, min_k):
        config = small_config(tmp_path, log_csv, min_k=min_k)
        with pytest.raises(ConfigError, match="min_k"):
            config.validate()

    def test_negative_seed_rejected(self, tmp_path, log_csv):
        config = small_config(tmp_path, log_csv, seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            config.validate()

    def test_unsupported_version(self):
        with pytest.raises(ConfigError):
            BenchmarkConfig.from_dict({"config_version": 99})

    def test_hash_is_canonical(self, tmp_path, log_csv):
        a = small_config(tmp_path, log_csv)
        b = small_config(tmp_path, log_csv)
        assert a.canonical_hash() == b.canonical_hash()
        c = small_config(tmp_path, log_csv, seed=6)
        assert a.canonical_hash() != c.canonical_hash()

    def test_hash_is_pinned(self):
        # run records from earlier versions must keep matching their configs
        config = BenchmarkConfig(
            datasets=(
                DatasetSpec("helpdesk", "data/helpdesk.csv", CsvSchema(case_id="Case ID"), "nets/helpdesk.json"),
                DatasetSpec("bpi12", "data/bpi12.csv"),
            ),
            models=(
                ModelSpec("markov", "markov", {"order": 3}),
                ModelSpec("gru", "gru", {"hidden": 8, "attributes": ["Resource"]}),
            ),
            decode={"strategy": "beam", "beam_width": 3},
            seed=7,
            jobs=2,
        )
        assert config.canonical_hash() == "b213b9774982f91dec1171778f435d94d86f1b99909dbcbf1748508c2907ff30"


class TestCellSeeds:
    def test_derived_seeds_distinct_and_stable(self):
        seeds = {cell_seed(7, d, m, 3) for d in range(4) for m in range(3)}
        assert len(seeds) == 12
        assert cell_seed(7, 2, 1, 3) == 7 ^ 7


class TestRunMatrix:
    def test_full_run_writes_reports(self, tmp_path, log_csv):
        config = small_config(tmp_path, log_csv)
        record = run_matrix(config)
        assert len(record.cells) == 2
        assert all(c.error is None for c in record.cells)
        out = tmp_path / "out"
        assert (out / "metrics.csv").exists()
        assert (out / "report.md").exists()
        assert (out / "run_record.json").exists()
        assert (out / "cells" / "linear__markov.result.json").exists()
        assert (out / "cells" / "linear__markov.manifest.csv").exists()
        record_json = json.loads((out / "run_record.json").read_text())
        assert record_json["config_hash"] == config.canonical_hash()

    def test_epoch_seconds_reach_the_cell_json_but_not_metrics_csv(self, tmp_path, log_csv):
        run_matrix(small_config(tmp_path, log_csv))
        out = tmp_path / "out"
        for model, epochs in (("markov", 1), ("mlp", 3)):
            report = json.loads((out / "cells" / f"linear__{model}.result.json").read_text())["train_report"]
            assert len(report["epoch_seconds"]) == len(report["train_losses"]) == epochs
        assert "epoch_seconds" not in (out / "metrics.csv").read_text()
        assert "epoch_seconds" not in (out / "report.md").read_text()

    def test_gradient_norms_and_clip_counts_reach_the_cell_json_but_not_metrics_csv(self, tmp_path, log_csv):
        run_matrix(small_config(tmp_path, log_csv))
        out = tmp_path / "out"
        for model, epochs in (("markov", 0), ("mlp", 3)):
            report = json.loads((out / "cells" / f"linear__{model}.result.json").read_text())["train_report"]
            fields = ("grad_norms", "clipped_batches", "learning_rates")
            assert [len(report[name]) for name in fields] == [epochs] * 3
            assert report["stage_clipped_batches"] == []  # one training stage
        record = json.loads((out / "run_record.json").read_text())
        assert all("learning_rates" in cell["train_report"] for cell in record["cells"])
        assert all("stage_clipped_batches" in cell["train_report"] for cell in record["cells"])
        for name in ("metrics.csv", "report.md"):
            text = (out / name).read_text()
            assert "grad_norms" not in text and "clipped_batches" not in text and "learning_rates" not in text

    def test_encoder_truncations_reach_the_cell_json_but_not_metrics_csv(self, tmp_path):
        # the digest's gru truncating its input at 4 events counts the
        # training and validation prefixes longer than 4 in its train report,
        # and the scored test prefixes in its metrics; markov has no encoder
        generator = _perfbench_generator()
        path = tmp_path / "generator.csv"
        generator.write_csv(generator.generate(2, 200), path)
        gru = {"hidden": 16, "layers": 2, "epochs": 2, "patience": 2, "max_len": 4}
        config = BenchmarkConfig.from_dict({
            "config_version": 1,
            "seed": 1,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "generator", "path": str(path)}],
            "models": [
                {"name": "gru-max-len", "architecture": "gru", "hyperparameters": gru},
                {"name": "markov", "architecture": "markov", "hyperparameters": {}},
            ],
            "tasks": ["next_activity", "next_time"],
        })
        record = run_matrix(config)
        split, _ = bench.load_split(config.datasets[0], config.split_fractions)
        parts = ("train", "validation", "test")
        longer = {part: sum(s.k > 4 for s in make_prefix_samples(split.part(part))) for part in parts}
        assert min(longer.values()) > 0
        out = tmp_path / "out"
        cells = {cell["model"]: cell for cell in json.loads((out / "run_record.json").read_text())["cells"]}
        for name, cell in cells.items():
            assert cell == json.loads((out / "cells" / f"generator__{name}.result.json").read_text())
        fitted = longer["train"] + longer["validation"]
        assert [cell.train_report["truncated_prefixes"] for cell in record.cells] == [fitted, None]
        assert [cell.metrics["truncated_prefixes"] for cell in record.cells] == [longer["test"], None]
        assert cells["gru-max-len"]["train_report"]["truncated_prefixes"] == fitted
        assert cells["gru-max-len"]["metrics"]["truncated_prefixes"] == longer["test"]
        for name in ("metrics.csv", "report.md"):
            assert "truncated" not in (out / name).read_text()
        assert "truncated_prefixes" not in TrainReport((), (), 0, 0.0, (), 0, truncated_prefixes=3).core()

    def test_nonconforming_replays_reach_the_cell_json_but_not_metrics_csv(self, tmp_path):
        # the generator's net with its Wait transitions relabelled replays
        # every event but Wait, whose events it skips: a prefix is
        # nonconforming when it holds one; markov replays nothing
        generator = _perfbench_generator()
        path, net_path = tmp_path / "generator.csv", tmp_path / "net.json"
        generator.write_csv(generator.generate(2, 200), path)
        net = generator.petri_net_json()
        for transition in net["transitions"]:
            if transition["label"] == "Wait":
                transition["label"] = "Hold"
        net_path.write_text(json.dumps(net), encoding="utf-8")
        mlp = {"input_mode": "timed_state", "hidden": 8, "layers": 1, "epochs": 1, "patience": 1}
        config = BenchmarkConfig.from_dict({
            "config_version": 1,
            "seed": 1,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "generator", "path": str(path), "petri_net": str(net_path)}],
            "models": [
                {"name": "mlp", "architecture": "mlp", "hyperparameters": mlp},
                {"name": "markov", "architecture": "markov", "hyperparameters": {}},
            ],
            "tasks": ["next_activity"],
        })
        record = run_matrix(config)
        split, _ = bench.load_split(config.datasets[0], config.split_fractions)
        held = {
            part: sum(any(ev.activity == "Wait" for ev in s.prefix) for s in make_prefix_samples(split.part(part)))
            for part in ("train", "validation", "test")
        }
        assert min(held.values()) > 0
        fitted = held["train"] + held["validation"]
        assert [cell.train_report["nonconforming_prefixes"] for cell in record.cells] == [fitted, None]
        assert [cell.metrics["nonconforming_prefixes"] for cell in record.cells] == [held["test"], None]
        out = tmp_path / "out"
        cells = {cell["model"]: cell for cell in json.loads((out / "run_record.json").read_text())["cells"]}
        for name, cell in cells.items():
            assert cell == json.loads((out / "cells" / f"generator__{name}.result.json").read_text())
        assert cells["mlp"]["train_report"]["nonconforming_prefixes"] == fitted
        assert cells["mlp"]["metrics"]["nonconforming_prefixes"] == held["test"]
        for name in ("metrics.csv", "report.md"):
            assert "nonconforming" not in (out / name).read_text()
        assert "nonconforming_prefixes" not in TrainReport((), (), 0, 0.0, (), 0, nonconforming_prefixes=3).core()

    def test_identical_split_manifests_across_models(self, tmp_path, log_csv):
        config = small_config(tmp_path, log_csv)
        record = run_matrix(config)
        hashes = {c.manifest_sha256 for c in record.cells}
        assert len(hashes) == 1

    def test_cell_failure_is_recorded_and_skipped(self, tmp_path, log_csv):
        config = small_config(
            tmp_path,
            log_csv,
            models=[
                {"name": "ok", "architecture": "markov"},
                {
                    "name": "broken",
                    "architecture": "autoencoder",
                    "hyperparameters": {"ngram_dim": 16, "ae_hidden": [16]},
                },
            ],
        )
        record = run_matrix(config)
        by_name = {c.model: c for c in record.cells}
        assert by_name["ok"].error is None
        assert by_name["broken"].error is not None
        assert "hidden" in by_name["broken"].error

    def test_determinism_byte_identical_metrics(self, tmp_path, log_csv):
        c1 = small_config(tmp_path, log_csv, out_dir=str(tmp_path / "a"))
        c2 = small_config(tmp_path, log_csv, out_dir=str(tmp_path / "b"))
        run_matrix(c1)
        run_matrix(c2)
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b


class TestDatasetLoading:
    def two_dataset_config(self, tmp_path, log_csv, second_csv, **overrides):
        return small_config(
            tmp_path,
            log_csv,
            datasets=[{"name": "linear", "path": str(log_csv)}, {"name": "second", "path": str(second_csv)}],
            **overrides,
        )

    def test_each_dataset_parsed_once(self, tmp_path, log_csv, monkeypatch):
        calls = []
        parse = bench.parse_csv

        def counted(*args, **kwargs):
            calls.append(args[0])
            return parse(*args, **kwargs)

        monkeypatch.setattr(bench, "parse_csv", counted)
        record = run_matrix(self.two_dataset_config(tmp_path, log_csv, log_csv))
        assert len(record.cells) == 4
        assert all(c.error is None for c in record.cells)
        assert len(calls) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_malformed_dataset_fails_only_its_cells(self, tmp_path, log_csv, jobs):
        broken = tmp_path / "broken.csv"
        broken.write_text("case,what\n1,2\n", encoding="utf-8")
        record = run_matrix(self.two_dataset_config(tmp_path, log_csv, broken, jobs=jobs))
        by_dataset = {}
        for cell in record.cells:
            by_dataset.setdefault(cell.dataset, []).append(cell)
        assert [c.model for c in by_dataset["second"]] == ["markov", "mlp"]
        assert all(c.error.startswith("LogParseError") for c in by_dataset["second"])
        assert all(c.error is None for c in by_dataset["linear"])
        assert all(c.metrics is not None for c in by_dataset["linear"])


class TestReports:
    def make_cells(self):
        return [
            CellResult(
                dataset="d1", model="m1", seed=0,
                metric_rows=[["d1", "m1", "next_activity", "accuracy", 0.9, 10],
                             ["d1", "m1", "next_time", "mae_days", 2.0, 10]],
            ),
            CellResult(
                dataset="d1", model="m2", seed=1,
                metric_rows=[["d1", "m2", "next_activity", "accuracy", 0.8, 10],
                             ["d1", "m2", "next_time", "mae_days", 1.0, 10]],
            ),
        ]

    def test_metrics_csv_sorted_and_typed(self):
        text = metrics_csv(self.make_cells())
        lines = text.splitlines()
        assert lines[0] == "dataset,model,task,metric,value,n_samples"
        assert lines[1].startswith("d1,m1,next_activity,accuracy,0.9")

    def test_markdown_best_highlighting(self):
        text = markdown_tables(self.make_cells())
        # higher accuracy wins; lower MAE wins
        assert "**0.9000**" in text
        assert "**1.0000**" in text
        assert "**0.8000**" not in text
        assert "**2.0000**" not in text


class TestAtomicWrites:
    def test_a_failed_write_keeps_the_previous_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_text_atomic(path, lambda: "old\n")

        def half_written(handle):
            handle.write(b"new, but")
            raise OSError("disk full")

        with pytest.raises(OSError):
            write_atomic(path, half_written)
        with pytest.raises(ZeroDivisionError):
            write_text_atomic(path, lambda: str(1 / 0))
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_reports_that_fail_to_render_keep_the_previous_ones(self, tmp_path, monkeypatch):
        record = RunRecord("hash", "v", TestReports().make_cells(), 0.0)
        emit_reports(record, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(bench, "markdown_tables", lambda cells: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            emit_reports(record, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestParallelJobs:
    def test_jobs_two_matches_serial(self, tmp_path, log_csv):
        serial = small_config(tmp_path, log_csv, out_dir=str(tmp_path / "serial"))
        parallel = small_config(tmp_path, log_csv, out_dir=str(tmp_path / "parallel"), jobs=2)
        run_matrix(serial)
        run_matrix(parallel)
        a = (tmp_path / "serial" / "metrics.csv").read_bytes()
        b = (tmp_path / "parallel" / "metrics.csv").read_bytes()
        assert a == b


class TestDecodeConfigPlumbing:
    def test_beam_and_random_strategies_run(self, tmp_path, log_csv):
        for strategy, extra in (("beam", {"beam_width": 2}), ("random", {})):
            config = small_config(
                tmp_path,
                log_csv,
                out_dir=str(tmp_path / f"out_{strategy}"),
                models=[{"name": "markov", "architecture": "markov"}],
                decode={"strategy": strategy, **extra},
            )
            record = run_matrix(config)
            assert record.cells[0].error is None
            assert record.cells[0].metrics["dl_similarity"] is not None

    def test_user_decode_seed_honored(self, tmp_path, log_csv):
        config = small_config(
            tmp_path,
            log_csv,
            models=[{"name": "markov", "architecture": "markov"}],
            decode={"strategy": "random", "seed": 99},
        )
        record = run_matrix(config)
        assert record.cells[0].error is None


class TestHyperparameterValidation:
    def test_unknown_hyperparameter_is_config_error(self, tmp_path, log_csv):
        config = small_config(
            tmp_path, log_csv,
            models=[{"name": "m", "architecture": "gru", "hyperparameters": {"hiden": 8}}],
        )
        with pytest.raises(ConfigError):
            config.validate()

    def test_unknown_architecture_is_config_error(self, tmp_path, log_csv):
        config = small_config(
            tmp_path, log_csv,
            models=[{"name": "m", "architecture": "transformer"}],
        )
        with pytest.raises(ConfigError):
            config.validate()

    def test_unknown_input_mode_is_config_error(self, tmp_path, log_csv):
        config = small_config(
            tmp_path, log_csv,
            models=[{"name": "m", "architecture": "gru", "hyperparameters": {"input_mode": "typo"}}],
        )
        with pytest.raises(ConfigError, match="input_mode"):
            config.validate()

    @pytest.mark.parametrize(
        "name, value",
        [("hidden", 0), ("alpha", -0.5), ("order", -1), ("embedding_dim", 0),
         ("decay_seconds", 0), ("window", 0), ("max_len", 0), ("ngram_k", 0), ("ngram_dim", 0),
         ("ae_hidden", [8, 0]), ("lr", -0.5), ("momentum", 2.0), ("clip_norm", 0.0),
         ("patience", -1), ("patience", 0), ("lr_decay", 0.0), ("lr_decay", 1.5),
         ("hash_seed", -1), ("hash_seed", 2**64)],
    )
    def test_out_of_range_hyperparameter_is_config_error(self, tmp_path, log_csv, name, value):
        config = small_config(
            tmp_path, log_csv,
            models=[{"name": "m", "architecture": "mlp", "hyperparameters": {name: value}}],
        )
        with pytest.raises(ConfigError, match=name):
            config.validate()

    def test_bad_decode_strategy_is_config_error(self, tmp_path, log_csv):
        config = small_config(tmp_path, log_csv, decode={"strategy": "nucleus"})
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize(
        "name, value",
        [("seed", -1), ("seed", 1.5), ("seed", True), ("max_len", 2.5), ("max_len", False),
         ("beam_width", 2.0), ("beam_width", True)],
    )
    def test_non_integer_or_negative_decode_field_is_config_error(self, tmp_path, log_csv, name, value):
        config = small_config(tmp_path, log_csv, decode={"strategy": "random", name: value})
        with pytest.raises(ConfigError, match=name):
            config.validate()

    def test_timed_state_model_on_dataset_without_net_is_config_error(self, tmp_path, log_csv):
        models = [{"name": "timedmlp", "architecture": "mlp",
                   "hyperparameters": {"input_mode": "timed_state"}}]
        config = small_config(tmp_path, log_csv, models=models)
        with pytest.raises(ConfigError, match="timedmlp.*linear.*petri_net"):
            config.validate()
        models[0]["architecture"] = "gru"  # only the mlp reads the input mode
        small_config(tmp_path, log_csv, models=models).validate()


class TestPetriNetDataset:
    def test_timed_state_model_via_config(self, tmp_path, log_csv):
        net = {
            "places": ["p0", "p1", "p2", "p3", "p4"],
            "transitions": [
                {"id": "tA", "label": "A"}, {"id": "tB", "label": "B"},
                {"id": "tC", "label": "C"}, {"id": "tD", "label": "D"},
            ],
            "arcs": [
                {"from": "p0", "to": "tA"}, {"from": "tA", "to": "p1"},
                {"from": "p1", "to": "tB"}, {"from": "tB", "to": "p2"},
                {"from": "p2", "to": "tC"}, {"from": "tC", "to": "p3"},
                {"from": "p3", "to": "tD"}, {"from": "tD", "to": "p4"},
            ],
            "initial_marking": {"p0": 1},
        }
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))
        config = BenchmarkConfig.from_dict(
            {
                "config_version": 1,
                "seed": 2,
                "out_dir": str(tmp_path / "out"),
                "datasets": [
                    {"name": "linear", "path": str(log_csv), "petri_net": str(net_path)}
                ],
                "models": [
                    {
                        "name": "timedmlp",
                        "architecture": "mlp",
                        "hyperparameters": {
                            "input_mode": "timed_state",
                            "hidden": 16, "layers": 1, "epochs": 10, "patience": 10,
                        },
                    }
                ],
            }
        )
        record = run_matrix(config)
        assert record.cells[0].error is None
        assert record.cells[0].metrics["accuracy"] == 1.0
