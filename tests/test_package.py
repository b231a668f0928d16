"""The package imports nothing itself, `granite.cli` loads every layer the benchmark's tracer binds,
neither it nor the modules `mine` and `eval` need load numpy, and both commands run with numpy blocked;
the forest loads no scoring and cross-validation no `numpy.ma`, `granite run` loads neither
`numpy.random` nor OpenSSL's `_hashlib` and `granite mine` no `_hashlib`; no module imports a name it
does not use, and every name a module reads is bound.

perfbench/tracer.py imports `granite.cli` and then looks each layer of its
LAYERS table up in `sys.modules`, so the command line must keep loading them
all; `granite.metrics`, `granite.dataset` and `granite.forest` import numpy
inside the functions that use it, so loading them maps no numpy.  Each import
check runs in a fresh interpreter, where no other test has imported anything
yet.  The unused-import and undefined-name checks read the sources with `ast`:
the second catches a function that reads `np` but lost its local import.
"""

import ast
import builtins
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from granite.cli import main
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
    # metrics, dataset and forest import numpy in the functions that make arrays, so every layer loads without it
    assert _modules_after("import granite.cli", "numpy") == []
    assert _modules_after("import granite.experiment", "numpy") == []


def test_mine_and_eval_run_with_numpy_blocked(fixture_repo, tmp_path):
    mine = ["mine", str(fixture_repo.root), "--tags", "v*", "--out"]
    evaluate = ["eval", "--predictions", str(tmp_path / "predictions.csv"), "--k", "20,50,100", "--out"]
    assert main([*mine, str(tmp_path / "mine.csv")]) == 0
    with open(tmp_path / "mine.csv", encoding="utf-8", newline="") as fp:
        rows = list(csv.DictReader(fp))
    rows = [row for row in rows if row["release_pair"] == rows[-1]["release_pair"]]  # one row per module
    assert len(rows) > 10
    with open(tmp_path / "predictions.csv", "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["module_id", "score", "loc", "delta_release", "delta_commit"])
        for row in rows:
            score = int(row["changes"]) / int(row["loc"])
            writer.writerow([row["module_id"], repr(score), row["loc"], row["delta_release"], row["delta_commit"]])
    assert main([*evaluate, str(tmp_path / "ratios.csv")]) == 0
    # a None entry in sys.modules makes every `import numpy` raise ImportError
    blocked = (
        "sys.modules['numpy'] = None; from granite.cli import main; "
        f"assert main({[*mine, str(tmp_path / 'mine-blocked.csv')]!r}) == 0; "
        f"assert main({[*evaluate, str(tmp_path / 'ratios-blocked.csv')]!r}) == 0"
    )
    assert _modules_after(blocked, "numpy") == ["numpy"]  # the blocking entry only
    assert (tmp_path / "mine-blocked.csv").read_bytes() == (tmp_path / "mine.csv").read_bytes()
    assert (tmp_path / "ratios-blocked.csv").read_bytes() == (tmp_path / "ratios.csv").read_bytes()


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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _arguments(function):
    args = function.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]


def _scope_nodes(body):
    """The nodes of one scope: nested functions and classes are included, but not their bodies.

    A nested definition's decorators, defaults, annotations and bases are
    evaluated in the scope around it, so they count as its nodes.
    """
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _FUNCTIONS):
            stack += [*getattr(node, "decorator_list", ()), *node.args.defaults, *filter(None, node.args.kw_defaults)]
            stack += filter(None, [getattr(node, "returns", None), *(a.annotation for a in _arguments(node))])
        elif isinstance(node, ast.ClassDef):
            stack += [*node.decorator_list, *node.bases, *node.keywords]
        else:
            stack += ast.iter_child_nodes(node)


def _bindings(nodes):
    """Names that the nodes of one scope bind."""
    bound = set()
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.ExceptHandler)) and node.name:
            bound.add(node.name)
    return bound


def _undefined_names(source):
    """(line, name) of each name read that resolves to no binding, sorted.

    A name resolves to a binding of its own function or an enclosing one
    (arguments, assignments, imports, comprehension targets, nested
    definitions), a module-level runtime binding or a builtin.  A name in an
    annotation may also resolve to an `if TYPE_CHECKING:` import, since
    annotations are not evaluated.  A class body sees its own bindings; its
    methods do not.
    """
    tree = ast.parse(source)
    type_only, runtime = set(), []
    for node in tree.body:
        test = getattr(node, "test", None)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in (getattr(test, "id", None), getattr(test, "attr", None)):
            type_only |= _bindings(_scope_nodes(node.body))
            runtime += node.orelse
        else:
            runtime.append(node)
    annotations = {
        id(name)
        for node in ast.walk(tree)
        for part in (getattr(node, "annotation", None), getattr(node, "returns", None)) if part is not None
        for name in ast.walk(part)
    }
    undefined = set()

    def visit(body, enclosing, arguments=(), in_class=False):
        nodes = list(_scope_nodes(body))
        visible = enclosing | _bindings(nodes) | {a.arg for a in arguments}
        inner = enclosing if in_class else visible  # what a nested scope sees: a method does not see its class
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in visible:
                if not (id(node) in annotations and node.id in type_only):
                    undefined.add((node.lineno, node.id))
            elif isinstance(node, ast.ClassDef):
                visit(node.body, inner, in_class=True)
            elif isinstance(node, _FUNCTIONS):
                visit(node.body if isinstance(node.body, list) else [node.body], inner, _arguments(node))

    visit(runtime, set(dir(builtins)) | {"__file__"})
    return sorted(undefined)


def test_every_name_read_is_bound():
    undefined = {
        path.name: found
        for path in sorted((SRC / "granite").glob("*.py"))
        if (found := _undefined_names(path.read_text(encoding="utf-8")))
    }
    assert undefined == {}


def test_the_undefined_name_check_finds_what_it_looks_for():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "def f(x: np.ndarray) -> np.ndarray:\n"  # annotations may name a TYPE_CHECKING import
        "    return np.sort(x)\n"  # line 5: the body may not
        "def g(rows, *args, key=None, **kw):\n"
        "    import numpy as np\n"
        "    total = sum(v for row in rows for v in row)\n"
        "    def h(y):\n"
        "        return np.asarray(y) + total + missing\n"  # line 10: missing is bound nowhere
        "    try:\n"
        "        h(args)\n"
        "    except ValueError as exc:\n"
        "        return exc, kw, key, (lambda z: z + w)(1)\n"  # line 14: w is bound nowhere
        "class C:\n"
        "    size = 2\n"
        "    def m(self):\n"
        "        return size, self, g, C, __file__\n"  # line 18: a method does not see its class's names
        "def k():\n"
        "    t = [1]\n"
        "    return lambda: t + u\n"  # line 21: u is bound nowhere
    )
    assert _undefined_names(source) == [(5, "np"), (10, "missing"), (14, "w"), (18, "size"), (21, "u")]
