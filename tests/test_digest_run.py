"""The clipped-batch total that ``tools/digest_run.py`` prints beside its listing."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("digest_run", ROOT / "tools" / "digest_run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest_run = load_tool()


def write_result(path: Path, train_report) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"dataset": "d", "model": "m", "train_report": train_report}))


def test_clipped_batches_sums_every_cell_result(tmp_path):
    write_result(tmp_path / "argmax" / "cells" / "d__gru.result.json", {"clipped_batches": [2, 0, 1]})
    write_result(tmp_path / "later" / "beam2" / "cells" / "d__lstm.result.json", {"clipped_batches": [4]})
    write_result(tmp_path / "argmax" / "cells" / "d__markov.result.json", {"clipped_batches": []})
    write_result(tmp_path / "argmax" / "cells" / "d__failed.result.json", None)
    (tmp_path / "argmax" / "metrics.csv").write_text("not a result\n")
    assert digest_run.clipped_batches(tmp_path) == 7


def test_clipped_batches_adds_every_earlier_stage(tmp_path):
    report = {"clipped_batches": [1, 0], "stage_clipped_batches": [[2, 3], [], [4]]}
    write_result(tmp_path / "argmax" / "cells" / "d__autoencoder.result.json", report)
    write_result(tmp_path / "argmax" / "cells" / "d__gru.result.json", {"clipped_batches": [5], "stage_clipped_batches": []})
    assert digest_run.clipped_batches(tmp_path) == 15


def test_no_cell_results_count_zero(tmp_path):
    assert digest_run.clipped_batches(tmp_path) == 0
