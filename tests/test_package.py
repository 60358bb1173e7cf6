"""What the package and its modules export: every name exists, and no oracle ships."""

import importlib
import json
import pkgutil
from pathlib import Path

import minkdecode
from minkdecode import cli, dataio, errors, minkowski

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    modules = [minkdecode] + [
        importlib.import_module(f"minkdecode.{info.name}")
        for info in pkgutil.iter_modules(minkdecode.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_oracles_are_not_shipped():
    assert sorted(minkdecode.__all__) == [
        "DataFormatError",
        "DecodingResult",
        "HmmModel",
        "LOG_FLOOR",
        "LogScoreMatrix",
        "LossOrder",
        "PosteriorMatrix",
        "ValidationError",
        "WerReport",
        "align_and_score",
        "corpus_wer",
        "to_log_scores",
        "transform_matrix",
        "viterbi_decode",
    ]
    assert minkowski.__all__ == ["LossOrder", "transform_values"]
    assert "SplitMix64" not in dataio.__all__
    assert not hasattr(errors, "SolverError")


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, str(README), "exec"), {})


def test_readme_experiment_config_runs(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n### Experiment config\n", 1)[1]
    config = json.loads(section.split("```json\n", 1)[1].split("\n```", 1)[0])
    config["corpus"]["utterances"] = 3  # a tiny corpus; every documented key stays
    (tmp_path / config["hmm"]).write_text(json.dumps({
        "num_states": 3,
        "initial": [0.5, 0.3, 0.2],
        "transitions": [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]],
        "labels": ["red", "green", "blue"],
        "state_to_class": [0, 1, 2],
    }))
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))
    assert cli.main(["experiment", str(path)]) == cli.EXIT_OK
    report = json.loads((tmp_path / config["report"]).read_text())
    assert [row["order"] for row in report["orders"]] == config["orders"]
