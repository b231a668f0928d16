"""The benchmark's tracer runs granite end to end and reads what its observers need.

perfbench/tracer.py reads attributes of arguments and results (a forest's
trees, a fold's skipped flag, a release pair's label).  A change that renames
one of them fails a traced run, so the tracer is run here on the fixture
repository with the rest of the suite.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from granite import experiment, forest
from test_forest import make_dataset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _config(fixture_repo, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "repos": [{"path": str(fixture_repo.root), "tags": "v*"}],
        "output_dir": str(tmp_path / "out"),
        "k_values": [100],
        "seed": 7,
    }))
    return str(path)


@pytest.mark.parametrize("command", ["run", "mine"])
def test_traced_command_counts_every_layer_and_restores_granite(fixture_repo, tmp_path, command):
    tracer = _tracer()
    if command == "run":
        argv = ["run", "--config", _config(fixture_repo, tmp_path)]
    else:
        argv = ["mine", str(fixture_repo.root), "--tags", "v*", "--out", str(tmp_path / "mined.csv")]
    t = tracer.Tracer()
    assert t.run(argv) == 0
    assert t.restored
    assert tracer.leftover_wrappers() == []
    expected = ("commits_walked", "git_spawns") + (("dataset_rows",) if command == "run" else ())
    assert all(t.counts.get(key, 0) > 0 for key in expected), t.counts
    if command == "run":
        # cross_validate grows all its folds' forests in one lockstep, not through train_random_forest,
        # so a run's trees are counted by no traced call (the next test counts them where they are)
        assert "forest.cross_validate" in {t.names[i] for i in t.name_of}


def test_traced_training_counts_its_trees_and_rows():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng.random((30, 4)), rng.integers(0, 2, 30))
    t = _tracer().Tracer()
    t.install()
    try:
        model = forest.train_random_forest(ds, forest.ForestParams(n_trees=3, seed=1))
    finally:
        assert t.restore()
    assert len(model.trees) == 3
    assert t.counts["trees"] == 3 and t.counts["train_rows"] == 30


def test_traced_run_names_the_release_pairs_that_raised(fixture_repo, tmp_path, monkeypatch):
    def failing_pair(repo, scanner, pair, *args):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiment, "analyze_release_pair", failing_pair)
    tracer = _tracer()
    t = tracer.Tracer()
    t.run(["run", "--config", _config(fixture_repo, tmp_path)])
    assert t.restored
    assert t.counts["pairs_failed"] == 2
    assert sorted(label for label, _ in t.failed_units) == ["v1.0..v1.1"] * 2 + ["v1.1..v2.0"] * 2
