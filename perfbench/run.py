"""granite benchmark: end-to-end and per-layer metrics on synthetic repositories.

    python3 perfbench/run.py --workload run-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; granite runs from `src` (it need not be
installed).  The repository for (workload, size, seed) is generated once
into `.perfbench/repos` and reused; generation is not timed.  Every timed
run is one fresh granite process with `jobs=1`, started from this process;
runs are sequential (a closed loop with one client).

--trace 0 reports the end-to-end metrics:
  total_s      wall seconds from spawning granite to its exit (median)
  setup_s      wall seconds of a fresh process that imports granite, loads the
               config, opens the repository and resolves its release pairs
               (median of several)
  peak_rss_mb  peak RSS of the granite process, from wait4 (median)
  rows_per_s   dataset rows (run) or mined CSV rows (mine) per second of total_s
--trace 1 alternates untraced runs with runs under tracer.py and reports the
per-layer metrics of layers.py, including the tracing overhead.

Every run's output is checked against the generator's ledger and by digest
(check.py); failed units are reported as `failed` out of `attempted` in the
last line, which is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
import synthrepo  # noqa: E402
from synthrepo import Shape  # noqa: E402

MIN_RUNS = 2  # two untraced runs at least, so their digests can be compared
RUN_TIMEOUT_S = 150
GRANITE_SEED = 0
FOLDS = 10


@dataclass(frozen=True)
class Workload:
    command: str  # "run" or "mine"
    full: Shape
    tiny: Shape  # for the self-test


# Why each workload exists: see README.md in this directory.
WORKLOADS: Dict[str, Workload] = {
    "run-wide": Workload(
        "run",
        Shape(classes=32, methods=8, fanout=3, commits=90, tags=3, ops_per_commit=4,
              rename_rate=0.05, move_rate=0.02, authors=6),
        Shape(classes=12, methods=3, fanout=3, commits=24, tags=3, ops_per_commit=2,
              rename_rate=0.05, move_rate=0.05, authors=3),
    ),
    "run-long": Workload(
        "run",
        Shape(classes=16, methods=5, fanout=3, commits=300, tags=5, ops_per_commit=2,
              rename_rate=0.05, move_rate=0.02, authors=6),
        Shape(classes=12, methods=3, fanout=3, commits=60, tags=4, ops_per_commit=2,
              rename_rate=0.05, move_rate=0.05, authors=3),
    ),
    "mine-history": Workload(
        "mine",
        Shape(classes=40, methods=6, fanout=3, commits=500, tags=6, ops_per_commit=3,
              rename_rate=0.3, move_rate=0.2, authors=8),
        Shape(classes=10, methods=3, fanout=3, commits=40, tags=4, ops_per_commit=2,
              rename_rate=0.3, move_rate=0.2, authors=3),
    ),
}
END_TO_END = [("total_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("rows_per_s", "1/s")]


def prepare_repo(cache: Path, name: str, size: str, shape: Shape, seed: int):
    """(repository path, ledger, seconds spent building or 0.0 when cached)."""
    home = cache / f"{name}-{size}-s{seed}"
    ledger_file = home / "ledger.json"
    if ledger_file.is_file():
        doc = json.loads(ledger_file.read_text(encoding="utf-8"))
        if doc["shape"] == asdict(shape):
            return home / "repo", doc["pairs"], 0.0
    start = time.perf_counter()
    tmp = cache / f".{home.name}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(home, ignore_errors=True)
    ledger = synthrepo.build(tmp / "repo", shape, seed)
    (tmp / "ledger.json").write_text(
        json.dumps({"shape": asdict(shape), "seed": seed, "pairs": ledger}), encoding="utf-8"
    )
    tmp.rename(home)
    return home / "repo", ledger, time.perf_counter() - start


def spawn(cmd: List[str], cwd: Path, env: Dict[str, str], log: Path):
    """Run cmd to completion: (wall seconds, peak RSS in KiB, exit code)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


class Bench:
    def __init__(self, root: Path, name: str, size: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.size = size
        self.seed = seed
        self.key = f"{name}/{size}/{seed}"  # of the reference digest
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".perfbench" / "work" / f"{name}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("GRANITE_LOG", None)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: List[str] = []

    # -- commands ------------------------------------------------------------

    def _granite_args(self) -> List[str]:
        if self.workload.command == "run":
            return ["run", "--config", str(self.work / "config.json")]
        return ["mine", str(self.repo), "--tags", synthrepo.TAG_GLOB, "--out", str(self.out / "mined.csv")]

    def _probe(self) -> float:
        if self.workload.command == "run":
            args = ["run", str(self.work / "config.json")]
        else:
            args = ["mine", str(self.repo), synthrepo.TAG_GLOB]
        log = self.work / "probe.log"
        wall, _, code = spawn([sys.executable, str(HERE / "probe.py"), *args], self.root, self.env, log)
        lines = log.read_text(encoding="utf-8", errors="replace").splitlines()
        if code != 0 or not lines:
            raise RuntimeError(f"set-up probe failed ({code}): {lines[-3:]}")
        self.pairs = json.loads(lines[-1])
        return wall

    def _granite(self, traced: bool):
        """One granite run: (wall seconds, peak RSS KiB, output rows, trace document)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        trace_file = self.work / "trace.json"
        trace_file.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file), "--", *self._granite_args()]
        else:
            cmd = [sys.executable, "-m", "granite.cli", *self._granite_args()]
        log = self.work / "granite.log"
        wall, rss, code = spawn(cmd, self.root, self.env, log)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-3:]
            self.problems.append(f"granite exited with {code}: {tail}")
        doc = json.loads(trace_file.read_text(encoding="utf-8")) if traced and trace_file.is_file() else None
        rows = self._check(code, doc, traced)
        return wall, rss, rows, doc

    def _check(self, code: int, doc: Optional[Dict], traced: bool) -> int:
        if self.workload.command == "run":
            units, failed, rows = check.check_run(self.out, self.repo.name, self.ledger, self.pairs)
            dg = check.run_digest(self.out)
        else:
            csv_path = self.out / "mined.csv"
            units, failed, rows = check.check_mine(csv_path, self.ledger, self.pairs)
            dg = check.digest([csv_path], self.out) if csv_path.is_file() else "missing"
        if code != 0:
            failed = set(units)
        if doc is not None:
            if not doc["restored"]:
                self.problems.append("tracer left a wrapper in place")
            failed |= {tuple(u) for u in doc["failed_units"]} & set(units)
        elif traced:
            self.problems.append("tracer wrote no trace")
            failed = set(units)
        failed |= self._digest_failures(dg, units)
        if failed:
            self.problems.append(f"{len(failed)} failed units: {sorted(failed)[:4]}")
        self.attempted += len(units)
        self.failed += len(failed)
        return rows

    def _digest_failures(self, dg: str, units) -> Set:
        want = REFERENCE.get(self.key, self.digests[0] if self.digests else dg)
        self.digests.append(dg)
        if dg == want:
            return set()
        self.problems.append(f"output digest {dg[:12]} differs from {want[:12]} ({self.key})")
        return set(units)

    # -- the measured loop ----------------------------------------------------

    def run(self) -> Dict:
        cache = self.root / ".perfbench" / "repos"
        cache.mkdir(parents=True, exist_ok=True)
        shape = self.workload.tiny if self.size == "tiny" else self.workload.full
        self.repo, self.ledger, built_s = prepare_repo(cache, self.name, self.size, shape, self.seed)
        print(f"perfbench {self.name} size={self.size} seed={self.seed}: {shape}; "
              + (f"built in {built_s:.2f} s" if built_s else "repository cached"))

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out = self.work / "out"
        config = {"repos": [{"path": str(self.repo), "tags": synthrepo.TAG_GLOB}],
                  "output_dir": str(self.out), "seed": GRANITE_SEED, "folds": FOLDS, "jobs": 1}
        (self.work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        try:
            return self._measure()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _measure(self) -> Dict:
        self._probe()  # warm-up: byte-code and file caches, as after any earlier invocation
        deadline = time.perf_counter() + self.seconds
        setups: List[float] = []
        walls: Dict[bool, List[float]] = {False: [], True: []}
        rss: List[int] = []
        rates: List[float] = []
        docs: List[Dict] = []

        def room(traced: bool) -> bool:
            """Whether one more round (set-up probe and granite run) ends before the deadline."""
            if not walls[traced]:
                return True
            need = statistics.median(walls[traced]) + (statistics.median(setups) if setups else 0.0)
            return time.perf_counter() + need <= deadline

        # Untraced: a set-up probe and a granite run per round, so both sample
        # the same stretch of time.  Traced: untraced and traced runs alternate.
        traced = False
        while True:
            enough = walls[False] and walls[True] if self.trace else len(walls[False]) >= MIN_RUNS
            if enough and not room(traced):
                break
            if not self.trace:
                setups.append(self._probe())
            wall, peak, rows, doc = self._granite(traced)
            walls[traced].append(wall)
            if traced:
                if doc is not None:
                    docs.append(doc)
            else:
                rss.append(peak)
                rates.append(rows / wall)
            if self.trace:
                traced = not traced

        if self.trace:
            metrics = self._layer_metrics(docs, walls)
        else:
            metrics = {
                "total_s": statistics.median(walls[False]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(rss) / 1024,
                "rows_per_s": statistics.median(rates),
            }
            self._print_spread("total_s", walls[False], "s")
            self._print_spread("setup_s", setups, "s")
            self._print_spread("peak_rss_mb", [r / 1024 for r in rss], "MB")
            self._print_spread("rows_per_s", rates, "1/s")
        ratio = self.failed / self.attempted if self.attempted else 1.0
        print(f"  failed_ratio {self.failed}/{self.attempted} = {ratio:.4f} ratio")
        reference = "reference for this seed" if self.key in REFERENCE else "no reference for this seed"
        print(f"  output digest {self.digests[0] if self.digests else 'none'} ({reference})")
        for problem in dict.fromkeys(self.problems):
            print(f"  PROBLEM: {problem}")
        units = layers.UNITS if self.trace else dict(END_TO_END)
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }

    def _layer_metrics(self, docs: List[Dict], walls: Dict[bool, List[float]]) -> Dict[str, float]:
        if not docs:
            self.problems.append("no traced run produced a trace")
            return {name: 0.0 for name in layers.UNITS}
        per_run = [layers.layer_metrics(d) for d in docs]
        metrics = dict(per_run[0])
        for name in layers.TIMES:
            metrics[name] = statistics.median(m[name] for m in per_run)
        counts = [{k: v for k, v in m.items() if k not in layers.TIMES} for m in per_run]
        for other in counts[1:]:
            differing = sorted(k for k in counts[0] if counts[0][k] != other[k])
            if differing:
                self.problems.append("counts differ between traced runs of the same repository: "
                                     + ", ".join(differing))
        metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(walls[False])
        print(f"  traced runs n={len(walls[True])}, untraced runs n={len(walls[False])}")
        for name, unit in layers.PER_LAYER:
            print(f"  {name:30s} {metrics[name]:14.6g} {unit}")
        return metrics

    @staticmethod
    def _print_spread(name: str, values: List[float], unit: str) -> None:
        # with fewer than ten samples no upper percentile has ten beyond it,
        # so the median is given with the range
        print(f"  {name:12s} median {statistics.median(values):10.4f} {unit:4s}"
              f" min {min(values):.4f} max {max(values):.4f} n={len(values)}")


REFERENCE: Dict[str, str] = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny repositories, for the self-test")
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "granite" / "__init__.py").is_file():
        print(f"perfbench: no granite sources at {root / 'src' / 'granite'}", file=sys.stderr)
        return 2
    result = Bench(root, args.workload, args.size, args.seed, args.seconds, bool(args.trace)).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
