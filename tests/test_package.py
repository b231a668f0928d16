"""The package imports nothing itself, and `granite.cli` loads every layer the benchmark's tracer binds.

perfbench/tracer.py imports `granite.cli` and then looks each layer of its
LAYERS table up in `sys.modules`, so the command line must keep loading them
all.  Each check runs in a fresh interpreter, where no other test has
imported anything yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_benchmark_bindings import _tracer_layers

SRC = Path(__file__).resolve().parents[1] / "src"


def _granite_modules_after(statement):
    code = f"import json, sys; {statement}; print(json.dumps(sorted(m for m in sys.modules if m.startswith('granite'))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_submodule():
    assert _granite_modules_after("import granite") == ["granite"]


def test_importing_the_cli_loads_every_traced_layer():
    loaded = set(_granite_modules_after("import granite.cli"))
    assert {f"granite.{layer}" for layer in _tracer_layers()} <= loaded
