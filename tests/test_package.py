"""The package imports nothing itself, `granite.cli` loads every layer the benchmark's tracer binds,
the modules `mine` and `eval` need load no numpy, the forest loads no scoring and cross-validation no
`numpy.ma`, `granite run` loads neither `numpy.random` nor OpenSSL's `_hashlib` and `granite mine` no
`_hashlib`, and no module imports a name it does not use.

perfbench/tracer.py imports `granite.cli` and then looks each layer of its
LAYERS table up in `sys.modules`, so the command line must keep loading them
all.  Each import check runs in a fresh interpreter, where no other test has
imported anything yet.  The unused-import check reads the sources with `ast`.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from granite.experiment import ExperimentConfig, RepoSpec
from test_benchmark_bindings import _tracer_layers

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(statement, prefix="granite"):
    code = f"import json, sys; {statement}; print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_submodule():
    assert _modules_after("import granite") == ["granite"]


def test_importing_the_cli_loads_every_traced_layer():
    loaded = set(_modules_after("import granite.cli"))
    assert {f"granite.{layer}" for layer in _tracer_layers()} <= loaded


def test_the_modules_mine_and_eval_need_import_no_numpy():
    statement = "import granite.gitrepo, granite.javaparse, granite.textdiff, granite.tracking, granite.stats, granite.evaluation"
    assert _modules_after(statement, "numpy") == []


def test_cross_validation_loads_no_masked_arrays():
    # np.unique loads numpy.ma on first use; numpy.matrixlib shares the prefix and comes with numpy
    statement = (
        "import numpy as np; from granite.dataset import LabeledDataset; from granite.forest import cross_validate; "
        "X = np.arange(24, dtype=float).reshape(12, 2) % 5; y = (np.arange(12) % 2).astype(np.int8); "
        "cross_validate(LabeledDataset('r', 'class', ('a', 'b'), tuple(map(str, range(12))), X, y, np.ones(12, int)), folds=3)"
    )
    loaded = _modules_after(statement, "numpy.ma")
    assert "numpy.matrixlib" in loaded
    assert [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


def test_the_forest_leaves_scoring_to_evaluation():
    loaded = set(_modules_after("import granite.forest"))
    assert "granite.forest" in loaded and not loaded & {"granite.evaluation", "granite.stats"}


def test_a_run_loads_neither_numpy_random_nor_openssl_and_mine_no_openssl(fixture_repo, tmp_path):
    # numpy.random maps libcrypto through secrets and hmac, and hashlib maps it itself: about 3.3 MB of RSS
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"repos": [{"path": str(fixture_repo.root), "tags": "v*"}],
                                  "output_dir": str(tmp_path / "out"), "k_values": [50, 100], "folds": 3}))
    run = f"from granite.cli import main; assert main({['run', '--config', str(config)]!r}) == 0"
    assert _modules_after(run, ("numpy.random", "_hashlib")) == []
    assert (tmp_path / "out" / "summary.csv").is_file()
    mine = ["mine", str(fixture_repo.root), "--tags", "v*", "--out", str(tmp_path / "mine.csv")]
    assert _modules_after(f"from granite.cli import main; assert main({mine!r}) == 0", "_hashlib") == []
    assert (tmp_path / "mine.csv").stat().st_size > 0


def test_the_config_hash_is_the_sha256_of_its_json():
    config = ExperimentConfig((RepoSpec("/data/repo", "v*"),), "out", (100, 500), seed=7, folds=4)
    fields = {"repos": [{"path": "/data/repo", "tags": "v*"}], "k_values": [100, 500], "seed": 7, "folds": 4}
    assert config.config_hash == hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def _unused_imports(source):
    """Names a module's imports bind that no expression of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_imported_name_is_used():
    unused = {
        path.name: found
        for path in sorted((SRC / "granite").glob("*.py"))
        if (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_the_unused_import_check_finds_what_it_looks_for():
    source = "from __future__ import annotations\nimport os.path\nimport re as regex\nfrom x import a, b\nb.c(re)\n"
    assert _unused_imports(source) == [(2, "os"), (3, "regex"), (4, "a")]
