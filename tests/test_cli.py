import json

import pytest

from ppmbench import gradchecks
from ppmbench.cli import main
from ppmbench.eventlog import write_csv

from conftest import TABLE1_CSV, make_linear_log


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

    @pytest.mark.parametrize("flag", ["--epochs", "--batch-size", "--hidden", "--layers"])
    def test_non_positive_train_size(self, flag, linear_path, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["--out", str(out), "train", str(linear_path), "--arch", "gru", flag, "0"]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestSplit:
    def test_writes_parts_and_manifest(self, linear_path, tmp_path, capsys):
        out = tmp_path / "split_out"
        assert main(["--out", str(out), "split", str(linear_path)]) == 0
        assert (out / "split_manifest.csv").exists()
        for part in ("train", "validation", "test"):
            assert (out / f"{part}.csv").exists()
        assert "train=25" in capsys.readouterr().out  # floor(0.64 * 40)


class TestTrainEvaluate:
    def test_round_trip(self, linear_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["--out", str(out), "--seed", "3", "train", str(linear_path),
             "--arch", "markov"]
        )
        assert code == 0
        assert (out / "model.json").exists()
        assert (out / "train_report.json").exists()

        code = main(
            ["--out", str(out), "evaluate", str(linear_path),
             "--checkpoint", str(out / "model")]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["next_activity/accuracy"] == 1.0
        assert metrics["remaining_time/mae_days"] == 0.0

    def test_neural_train(self, linear_path, tmp_path):
        out = tmp_path / "run_gru"
        code = main(
            ["--out", str(out), "train", str(linear_path), "--arch", "gru",
             "--hidden", "8", "--layers", "1", "--epochs", "2"]
        )
        assert code == 0
        assert (out / "model.npz").exists()


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

    def test_zero_hidden_is_config_error(self, linear_path, tmp_path, capsys):
        config = {
            "config_version": 1,
            "out_dir": str(tmp_path / "out"),
            "datasets": [{"name": "linear", "path": str(linear_path)}],
            "models": [{"name": "bad", "architecture": "mlp", "hyperparameters": {"hidden": 0}}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["benchmark", str(path)]) == 2
        assert "hidden" in capsys.readouterr().err
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
