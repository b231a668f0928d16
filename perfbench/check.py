"""Output checks: granite's CSVs against the generator's ledger, and digests.

A unit is what the failure ratio counts: a (release pair, granularity) for
`granite run`, a release pair for `granite mine`.  The expected units come
from `GitRepo.release_pairs` (reported by the set-up probe) and from the
ledger; a unit fails when its output row is missing or disagrees with the
ledger.  Nothing here reads granite's log.
"""

from __future__ import annotations

import csv
import hashlib
import re
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

Unit = Tuple[str, ...]
GRANULARITIES = ("class", "method")


def digest(paths: Iterable[Path], base: Path) -> str:
    """sha256 over the relative name and bytes of every file, in name order."""
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.relative_to(base).as_posix()):
        h.update(path.relative_to(base).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def run_digest(out_dir: Path) -> str:
    """Every CSV granite run wrote; manifest.json is left out because its
    config hash covers output_dir."""
    return digest(out_dir.rglob("*.csv"), out_dir)


def _read(path: Path) -> List[Dict[str, str]]:
    if not path.is_file():
        return []
    with open(path, encoding="utf-8", newline="") as fp:
        return list(csv.DictReader(fp))


def _safe(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", label)


def expected_labels(entries: Dict[str, List[int]], granularity: str) -> Dict[str, int]:
    """The strict-median rule applied to the ledger's change counts."""
    counts = {m: e[0] for m, e in entries.items() if m.startswith(granularity + ":")}
    median = statistics.median(counts.values())
    return {m: int(c > median) for m, c in counts.items()}


def check_run(out_dir: Path, repo_name: str, ledger: Dict, pairs: List[str]) -> Tuple[List[Unit], Set[Unit], int]:
    """(units, failed units, dataset rows) of one `granite run` output."""
    labels = list(dict.fromkeys(pairs + list(ledger)))
    units = [(label, g) for label in labels for g in GRANULARITIES]
    failed: Set[Unit] = set()
    releases = {
        (r["release_pair"], r["granularity"]): r
        for r in _read(out_dir / "releases.csv") if r["repo"] == repo_name
    }
    rows = 0
    for label, g in units:
        entries = ledger.get(label)
        row = releases.get((label, g))
        if entries is None or label not in pairs or row is None:
            failed.add((label, g))
            continue
        data = _read(out_dir / "datasets" / f"{_safe(repo_name)}__{_safe(label)}__{g}.csv")
        rows += len(data)
        want = expected_labels(entries, g)
        got = {r["module_id"]: (int(r["label"]), int(r["loc"])) for r in data}
        if int(row["n_modules"]) != len(want) or got != {m: (y, entries[m][2]) for m, y in want.items()}:
            failed.add((label, g))
    return units, failed, rows


def check_mine(out_csv: Path, ledger: Dict, pairs: List[str]) -> Tuple[List[Unit], Set[Unit], int]:
    """(units, failed units, rows) of one `granite mine` output."""
    units = [(label,) for label in dict.fromkeys(pairs + list(ledger))]
    data = _read(out_csv)
    by_pair: Dict[str, Dict[str, List[int]]] = {}
    for r in data:
        by_pair.setdefault(r["release_pair"], {})[r["module_id"]] = [
            int(r["changes"]), int(r["total_churn"]), int(r["loc"])
        ]
    failed = {
        (label,) for (label,) in units
        if label not in pairs or by_pair.get(label) != ledger.get(label)
    }
    return units, failed, len(data)
