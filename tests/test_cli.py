import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from ppmbench import atomic, cli, gradchecks
from ppmbench.cli import main
from ppmbench.eventlog import parse_csv, to_csv, write_csv
from ppmbench.splitting import split_manifest, temporal_split

from conftest import TABLE1_CSV, make_linear_log


# sound workflow net of the A-B-C-D chain that make_linear_log writes
LINEAR_NET = {
    "places": [f"p{i}" for i in range(5)],
    "transitions": [{"id": f"t{a}", "label": a} for a in "ABCD"],
    "arcs": [arc for i, a in enumerate("ABCD")
             for arc in ({"from": f"p{i}", "to": f"t{a}"}, {"from": f"t{a}", "to": f"p{i + 1}"})],
    "initial_marking": {"p0": 1},
}


@pytest.fixture
def table1_path(tmp_path):
    path = tmp_path / "table1.csv"
    path.write_text(TABLE1_CSV, encoding="utf-8")
    return path


@pytest.fixture
def linear_path(tmp_path):
    path = tmp_path / "linear.csv"
    write_csv(make_linear_log(40), path)
    return path


class TestStats:
    def test_table1_counts(self, table1_path, capsys):
        assert main(["stats", str(table1_path)]) == 0
        out = capsys.readouterr().out
        row = out.splitlines()[1].split()
        assert row[0] == "table1"
        assert row[1] == "2"  # cases
        assert row[2] == "5"  # activities (per the source excerpt)
        assert row[3] == "9"  # events

    def test_csv_output(self, table1_path, tmp_path):
        csv_out = tmp_path / "stats.csv"
        assert main(["stats", str(table1_path), "--csv", str(csv_out)]) == 0
        assert csv_out.read_text().splitlines()[1].startswith("table1,2,5,9")

    def test_missing_file_fails_with_one(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, table1_path):
        assert main(["stats", str(table1_path), "--bogus"]) == 2

    def test_no_command(self):
        assert main([]) == 2

    @pytest.mark.parametrize("arch", ["gru", "mlp"])
    def test_unknown_input_mode(self, arch, linear_path, tmp_path):
        argv = ["--out", str(tmp_path), "train", str(linear_path), "--arch", arch,
                "--epochs", "1", "--input-mode", "typo"]
        assert main(argv) == 2
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "gradcheck"])
    def test_negative_seed(self, command, linear_path, tmp_path, capsys):
        out = tmp_path / "run"
        args = {
            "train": ["train", str(linear_path), "--arch", "markov"],
            "evaluate": ["evaluate", str(linear_path), "--checkpoint", str(tmp_path / "model")],
            "gradcheck": ["gradcheck", "rnn"],
        }[command]
        assert main(["--out", str(out), "--seed", "-1"] + args) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--max-len", "--beam-width"])
    def test_non_positive_decode_size(self, flag, linear_path, tmp_path, capsys):
        # the decode settings are checked before the log or checkpoint is read
        out = tmp_path / "run"
        argv = ["--out", str(out), "evaluate", str(tmp_path / "missing.csv"),
                "--checkpoint", str(tmp_path / "model"), flag, "0"]
        assert main(argv) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", ["--epochs", "--batch-size", "--hidden", "--layers", "--patience", "--lr"]
    )
    def test_non_positive_train_size(self, flag, linear_path, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["--out", str(out), "train", str(linear_path), "--arch", "gru", flag, "0"]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("fractions", [("0.9", "0.2"), ("0", "0.1"), ("0.5", "-0.1"), ("nan", "0.1")])
    def test_invalid_split_fractions(self, fractions, tmp_path, capsys):
        # checked before the log is read: the log does not exist
        out = tmp_path / "run"
        argv = ["--out", str(out), "split", str(tmp_path / "missing.csv"),
                "--train", fractions[0], "--val", fractions[1]]
        assert main(argv) == 2
        assert "invalid split fractions" in capsys.readouterr().err
        assert not out.exists()

    def test_timed_state_train_without_net(self, tmp_path, capsys):
        # a usage error, found before the log is read: the log does not exist
        out = tmp_path / "run"
        argv = ["--out", str(out), "train", str(tmp_path / "missing.csv"), "--arch", "mlp",
                "--input-mode", "timed_state"]
        assert main(argv) == 2
        assert "--petri-net" in capsys.readouterr().err
        assert not out.exists()

    def test_timed_state_evaluate_without_net(self, linear_path, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(LINEAR_NET), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["--out", str(out), "train", str(linear_path), "--arch", "mlp",
                     "--input-mode", "timed_state", "--petri-net", str(net),
                     "--hidden", "4", "--layers", "1", "--epochs", "1"]) == 0
        capsys.readouterr()
        evaluate = ["--out", str(out), "evaluate", str(tmp_path / "missing.csv"),
                    "--checkpoint", str(out / "model")]
        assert main(evaluate) == 2
        assert "--petri-net" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()
        evaluate[3] = str(linear_path)
        assert main(evaluate + ["--petri-net", str(net)]) == 0
        assert (out / "metrics.json").exists()


class TestSplit:
    def test_writes_parts_and_manifest(self, linear_path, tmp_path, capsys):
        out = tmp_path / "split_out"
        assert main(["--out", str(out), "split", str(linear_path)]) == 0
        assert (out / "split_manifest.csv").exists()
        for part in ("train", "validation", "test"):
            assert (out / f"{part}.csv").exists()
        assert "train=25" in capsys.readouterr().out  # floor(0.64 * 40)


class TestAtomicWrites:
    def test_every_command_output_replaces_its_file_whole(self, linear_path, tmp_path, monkeypatch):
        replaced = []
        os_replace = atomic.os.replace

        def spy(src, dst):
            replaced.append(Path(dst).name)
            return os_replace(src, dst)

        monkeypatch.setattr(atomic.os, "replace", spy)
        out = tmp_path / "run"
        assert main(["stats", str(linear_path), "--csv", str(tmp_path / "stats.csv")]) == 0
        assert main(["--out", str(out), "split", str(linear_path)]) == 0
        split = temporal_split(parse_csv(linear_path))
        assert (out / "split_manifest.csv").read_bytes() == split_manifest(split).encode()
        for part in ("train", "validation", "test"):
            assert (out / f"{part}.csv").read_bytes() == to_csv(split.part(part)).encode()
        assert main(["--out", str(out), "train", str(linear_path), "--arch", "markov"]) == 0
        assert main(["--out", str(out), "evaluate", str(linear_path), "--checkpoint", str(out / "model")]) == 0
        assert set(replaced) == {
            "stats.csv", "split_manifest.csv", "train.csv", "validation.csv", "test.csv",
            "model.npz", "model.json", "train_report.json", "metrics.json",
        }
        assert not [path for path in tmp_path.rglob("*") if path.name.endswith(".tmp")]


class TestTrainEvaluate:
    def test_round_trip(self, linear_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["--out", str(out), "--seed", "3", "train", str(linear_path),
             "--arch", "markov"]
        )
        assert code == 0
        assert (out / "model.json").exists()
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["epoch_seconds"]) == len(report["train_losses"]) == 1
        assert report["learning_rates"] == []  # Markov trains no SGD stage
        assert capsys.readouterr().out.splitlines()[-1] == f"checkpoint: {out / 'model.npz'} {out / 'model.json'}"

        code = main(
            ["--out", str(out), "evaluate", str(linear_path),
             "--checkpoint", str(out / "model")]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["next_activity/accuracy"] == 1.0
        assert metrics["remaining_time/mae_days"] == 0.0

    def test_neural_train(self, linear_path, tmp_path, capsys):
        out = tmp_path / "run_gru"
        code = main(
            ["--out", str(out), "train", str(linear_path), "--arch", "gru",
             "--hidden", "8", "--layers", "1", "--epochs", "2"]
        )
        assert code == 0
        assert (out / "model.npz").exists()
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"checkpoint: {out / 'model.npz'} {out / 'model.json'}"
        )

    def test_max_len_limits_decoding(self, linear_path, tmp_path):
        # make_linear_log cases are four events plus end of case; one decode
        # step cannot reach it, so every suffix is cut short
        out = tmp_path / "run"
        assert main(["--out", str(out), "train", str(linear_path), "--arch", "markov"]) == 0
        metrics = {}
        for max_len in ("1", "10"):
            assert main(["--out", str(out), "evaluate", str(linear_path),
                         "--checkpoint", str(out / "model"), "--max-len", max_len]) == 0
            metrics[max_len] = json.loads((out / "metrics.json").read_text())
        assert metrics["10"]["suffix/dl_similarity"] == 1.0
        assert metrics["1"]["suffix/dl_similarity"] < 1.0


class TestBenchmark:
    def test_empty_dataset_list_is_config_error(self, tmp_path, capsys):
        config = {"config_version": 1, "datasets": [], "models": [], "out_dir": str(tmp_path)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["benchmark", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_small_matrix(self, linear_path, tmp_path, capsys):
        config = {
            "config_version": 1,
            "seed": 1,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "linear", "path": str(linear_path)}],
            "models": [{"name": "markov", "architecture": "markov"}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["benchmark", str(path)]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_partial_failure_exit_code(self, linear_path, tmp_path):
        config = {
            "config_version": 1,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "linear", "path": str(linear_path)}],
            "models": [
                {"name": "ok", "architecture": "markov"},
                {
                    "name": "bad",
                    "architecture": "autoencoder",
                    "hyperparameters": {"ngram_dim": 16, "ae_hidden": [16]},
                },
            ],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["benchmark", str(path)]) == 1

    @pytest.mark.parametrize(
        "name, value",
        [("hidden", 0), ("alpha", -0.5), ("order", -1), ("embedding_dim", 0), ("lr", -0.5),
         ("momentum", 2.0), ("clip_norm", 0.0), ("patience", -1), ("lr_decay", 1.5)],
    )
    def test_out_of_range_hyperparameter_is_config_error(
        self, linear_path, tmp_path, capsys, name, value
    ):
        config = {
            "config_version": 1,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "linear", "path": str(linear_path)}],
            "models": [{"name": "bad", "architecture": "mlp", "hyperparameters": {name: value}}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["benchmark", str(path)]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, value", [("seed", -1), ("seed", 1.5), ("max_len", 2.5), ("beam_width", True)])
    def test_non_integer_or_negative_decode_field_is_config_error(
        self, linear_path, tmp_path, capsys, name, value
    ):
        config = {
            "config_version": 1,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "linear", "path": str(linear_path)}],
            "models": [{"name": "markov", "architecture": "markov"}],
            "decode": {"strategy": "random", name: value},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["benchmark", str(path)]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_timed_state_model_without_net_is_config_error(self, linear_path, tmp_path, capsys):
        config = {
            "config_version": 1,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "linear", "path": str(linear_path)}],
            "models": [{"name": "timedmlp", "architecture": "mlp",
                        "hyperparameters": {"input_mode": "timed_state"}}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["benchmark", str(path)]) == 2
        assert "petri_net" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_config_seed_is_config_error(self, linear_path, tmp_path, capsys):
        config = {
            "config_version": 1,
            "seed": -1,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "linear", "path": str(linear_path)}],
            "models": [{"name": "gru", "architecture": "gru", "hyperparameters": {"epochs": 1}}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["benchmark", str(path)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, seed, jobs", [([], 7, 2), (["--seed", "0"], 0, 2), (["--jobs", "1"], 7, 1)]
    )
    def test_global_flags_override_config_when_given(
        self, linear_path, tmp_path, monkeypatch, flags, seed, jobs
    ):
        config = {
            "config_version": 1,
            "seed": 7,
            "jobs": 2,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "linear", "path": str(linear_path)}],
            "models": [{"name": "markov", "architecture": "markov"}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        seen = []

        def fake_run_matrix(cfg):
            seen.append((cfg.seed, cfg.jobs))
            return SimpleNamespace(cells=[])

        monkeypatch.setattr(cli, "run_matrix", fake_run_matrix)
        assert main(flags + ["benchmark", str(path)]) == 0
        assert seen == [(seed, jobs)]

    @pytest.mark.parametrize(
        "fault, message",
        [("not-an-object", "config holds a JSON list, not an object"), ("dataset-without-name", "has no 'name'"),
         ("model-without-architecture", "has no 'architecture'"), ("models-not-a-list", "malformed config"),
         ("split-not-a-number", "invalid split fractions"), ("split-not-an-object", "malformed config"),
         ("jobs-not-an-integer", "jobs must be an integer, got 1.7"), ("seed-not-an-integer", "seed must be"),
         ("min_k-not-an-integer", "min_k must be")],
    )
    def test_malformed_config_is_config_error(self, linear_path, tmp_path, capsys, fault, message):
        config = {
            "config_version": 1,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "linear", "path": str(linear_path)}],
            "models": [{"name": "markov", "architecture": "markov"}],
        }
        edits = {
            "dataset-without-name": lambda: config["datasets"][0].pop("name"),
            "model-without-architecture": lambda: config["models"][0].pop("architecture"),
            "models-not-a-list": lambda: config.update(models=5),
            "split-not-a-number": lambda: config.update(split={"train": "a"}),
            "split-not-an-object": lambda: config.update(split=[0.6, 0.2]),
            "jobs-not-an-integer": lambda: config.update(jobs=1.7),
            "seed-not-an-integer": lambda: config.update(seed="1"),
            "min_k-not-an-integer": lambda: config.update(min_k=True),
        }
        if fault in edits:
            edits[fault]()
        path = tmp_path / "config.json"
        path.write_text(json.dumps([config] if fault == "not-an-object" else config))
        assert main(["benchmark", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (tmp_path / "out").exists()

    def test_zero_min_k_is_config_error(self, linear_path, tmp_path, capsys):
        config = {
            "config_version": 1,
            "out_dir": str(tmp_path / "out"),
            "min_k": 0,
            "datasets": [{"name": "linear", "path": str(linear_path)}],
            "models": [{"name": "markov", "architecture": "markov"}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["benchmark", str(path)]) == 2
        assert "min_k" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGradcheckCommand:
    def test_gru_passes_gate(self, capsys):
        assert main(["gradcheck", "gru"]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
        assert "PASS" in out

    def test_error_at_gate_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(gradchecks, "GRADCHECK_GATE", 0.0)
        assert main(["gradcheck", "rnn"]) == 1
        assert "FAIL (>= 0)" in capsys.readouterr().out


class TestOutDirEnvVar:
    def test_env_var_sets_output_dir(self, linear_path, tmp_path, monkeypatch):
        out = tmp_path / "env_out"
        monkeypatch.setenv("PPMBENCH_OUT", str(out))
        assert main(["split", str(linear_path)]) == 0
        assert (out / "split_manifest.csv").exists()


class TestNeuralEvaluate:
    def test_gru_checkpoint_round_trip(self, linear_path, tmp_path):
        out = tmp_path / "gru_run"
        assert main(
            ["--out", str(out), "train", str(linear_path), "--arch", "gru",
             "--hidden", "8", "--layers", "1", "--epochs", "3"]
        ) == 0
        assert main(
            ["--out", str(out), "evaluate", str(linear_path),
             "--checkpoint", str(out / "model"), "--strategy", "beam", "--beam-width", "2"]
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "suffix/dl_similarity" in metrics
