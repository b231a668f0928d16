"""Self-test of the benchmark on tiny repositories.

    python3 -m pytest -q perfbench/selftest.py

Not collected by the repository's own test run (the file name does not
start with `test_`), because it spawns several granite processes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import synthrepo  # noqa: E402
import tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_without_failures(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True, proc.stdout
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "failed_ratio 0/" in proc.stdout


def test_spec_lists_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_tracer_restores_every_binding(tmp_path):
    import granite
    import granite.cli  # noqa: F401

    def bindings():
        out = {}
        for name, mod in sys.modules.items():
            if name == "granite" or name.startswith("granite."):
                for attr, value in vars(mod).items():
                    if attr == "__warningregistry__":  # bookkeeping of the warnings module
                        continue
                    out[(name, attr)] = value
                    if isinstance(value, type):
                        out.update({(name, attr, a): v for a, v in vars(value).items()})
        return out

    repo = tmp_path / "repo"
    synthrepo.build(repo, WORKLOADS["mine-history"].tiny, seed=5)
    before = bindings()
    t = tracer.Tracer()
    code = t.run(["mine", str(repo), "--tags", synthrepo.TAG_GLOB, "--out", str(tmp_path / "mined.csv")])
    assert code == 0
    assert t.restored
    assert tracer.leftover_wrappers() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert len(t.start) > 1 and t.counts["git_spawns"] > 0
    assert granite.parse_source.__module__ == "granite.javaparse"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "run-wide", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
