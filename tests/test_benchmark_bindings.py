"""The benchmark's tracer binds granite functions by name; these stay resolvable.

perfbench/tracer.py wraps every name in its LAYERS table and reads some
arguments by position and name.  Renaming or removing one of them breaks the
benchmark, so it is checked here with the rest of the suite.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# function -> (position, name) of each argument the tracer's observers read
READ_ARGUMENTS = {
    "gitrepo.GitRepo.blob_lines": [(1, "sha")],
    "javaparse.extract_modules": [(0, "snapshot")],
    "tracking.HistoryScanner.change_histories": [(1, "commits")],
    "tracking.match_renames": [(0, "prev"), (1, "cur")],
    "forest.train_random_forest": [(0, "train")],
    "forest.cross_validate": [(0, "ds")],
    "experiment.analyze_release_pair": [(2, "pair")],
}


def _tracer_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _resolve(layer, qual):
    home = importlib.import_module(f"granite.{layer}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        return getattr(home, cls_name).__dict__[attr]
    return getattr(home, qual)


def test_every_traced_name_resolves_in_granite():
    layers = _tracer_layers()
    assert layers
    for layer, names in layers.items():
        for qual in names:
            assert callable(_resolve(layer, qual)), f"{layer}.{qual}"


def test_traced_functions_keep_the_arguments_the_tracer_reads():
    layers = _tracer_layers()
    for key, reads in READ_ARGUMENTS.items():
        layer, qual = key.split(".", 1)
        assert qual in layers[layer], key
        params = list(inspect.signature(_resolve(layer, qual)).parameters)
        for position, name in reads:
            assert params[position] == name, f"{key}: argument {position} is {params[position]!r}, not {name!r}"
