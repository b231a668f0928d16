"""Run one granite command with its public functions wrapped in spans.

    python3 perfbench/tracer.py OUT.json -- <granite arguments>

Every function named in LAYERS is replaced at every granite module that
binds it (`from x import f` copies the binding, so `metrics.parse_source`
and `javaparse.parse_source` are both wrapped), and methods are replaced on
their class.  Each call records a span (name, start, end, parent span) in
memory; counters that need a call's arguments or result are taken by
observers.  `gitrepo.subprocess` is swapped for a proxy that counts git
spawns.  After the command returns every binding is restored and checked,
and the spans and counters are written to OUT.json.

The program itself is not modified; this file is the only place spans are
recorded.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "gitrepo": (
        "GitRepo.__init__", "GitRepo.tags", "GitRepo.release_pairs", "GitRepo.first_parent_chain",
        "GitRepo.linearize", "GitRepo.commit_meta", "GitRepo.source_files", "GitRepo.blob_lines",
        "GitRepo.file_lines", "GitRepo.snapshot", "GitRepo.diff_churn", "GitRepo.close",
        "resolve_release_pairs",
    ),
    "javaparse": ("parse_source", "extract_modules"),
    "tracking": (
        "HistoryScanner.snapshot_modules", "HistoryScanner.adjacent_delta",
        "HistoryScanner.change_histories", "match_renames", "build_change_histories",
    ),
    "textdiff": ("similarity", "diff_sizes", "line_churn", "lcs_length"),
    "metrics": ("class_product_metrics", "method_product_metrics", "process_metrics"),
    "dataset": (
        "assemble", "label_change_prone", "min_max_normalize", "random_under_sample",
        "fit_min_max", "apply_min_max", "write_csv",
    ),
    "forest": ("cross_validate", "train_random_forest", "score_matrix", "predict_proba"),
    "evaluation": (
        "confusion_counts", "classification_scores", "auc_roc", "project_class_predictions_to_methods",
        "rank_by_score", "top_k_cutoff", "change_sizes", "top_k_change_ratio",
    ),
    "stats": ("wilcoxon_signed_rank", "cliffs_delta", "compare_paired"),
    "experiment": ("load_config", "run_experiment", "analyze_repository", "analyze_release_pair", "emit_report"),
}
ROOT = "cli.main"
_MARK = "__perfbench_wrapped__"


class Tracer:
    """Spans in parallel arrays, counters in a dict; one per traced process."""

    def __init__(self):
        self.names: List[str] = [ROOT]
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        self.counts: Dict[str, int] = {}
        self.sets: Dict[str, set] = {}
        self.failed_units: List[List[str]] = []  # raised, or left NaN scores by skipping folds
        self._bindings: List[Tuple[object, str, object]] = []
        self.restored = False

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def remember(self, key: str, item) -> None:
        self.sets.setdefault(key, set()).add(item)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        name_idx = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(name_idx)
            self.parent.append(self.stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(sid)
            self.start[sid] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(self, args, kwargs, None, exc)
                raise
            finally:
                self.end[sid] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result, None)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- installing and restoring ------------------------------------------

    def install(self) -> None:
        import granite  # noqa: F401  (loads every layer module)
        import granite.cli  # noqa: F401

        modules = {n: m for n, m in sys.modules.items() if n == "granite" or n.startswith("granite.")}
        for layer, names in LAYERS.items():
            home = modules[f"granite.{layer}"]
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._bind(cls, attr, original, self.span(f"{layer}.{qual}", original, OBSERVERS.get(qual)))
                    continue
                original = getattr(home, qual)
                wrapper = self.span(f"{layer}.{qual}", original, OBSERVERS.get(qual))
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, attr, original, wrapper)
        gitrepo = modules["granite.gitrepo"]
        self._bind(gitrepo, "subprocess", gitrepo.subprocess, _CountingSubprocess(gitrepo.subprocess, self))

    def _bind(self, owner, attr: str, original, replacement) -> None:
        self._bindings.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere in granite."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        ok = all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
            for owner, attr, original in self._bindings
        )
        self._bindings.clear()
        return ok and not leftover_wrappers()

    def run(self, argv: List[str]) -> int:
        from granite import cli

        self.install()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.name_of.append(0)
        self.parent.append(-1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(0)
        try:
            code = cli.main(argv)
        except Exception as exc:  # a non-zero exit makes the benchmark count every unit failed
            print(f"granite raised {exc!r}", file=sys.stderr)
            code = 1
        finally:
            self.end[0] = time.perf_counter()
            self.stack.pop()
            self.restored = self.restore()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.counts["child_cpu_us"] = round(
            1e6 * (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        )
        return code

    def dump(self, path: Path) -> None:
        doc = {
            "names": self.names,
            "spans": {
                "name": self.name_of.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.sets.items()},
            "failed_units": self.failed_units,
            "restored": self.restored,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def leftover_wrappers() -> List[str]:
    """Names of granite bindings that still hold a wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "granite" and not name.startswith("granite."):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False) or isinstance(value, _CountingSubprocess):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                found += [f"{name}.{attr}.{a}" for a, v in vars(value).items() if getattr(v, _MARK, False)]
    return found


class _CountingSubprocess:
    """Stands in for the `subprocess` module inside gitrepo and counts spawns."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def run(self, *args, **kwargs):
        self._tracer.add("git_spawns")
        return self._real.run(*args, **kwargs)

    def Popen(self, *args, **kwargs):  # noqa: N802  (mirrors subprocess.Popen)
        self._tracer.add("git_spawns")
        return self._real.Popen(*args, **kwargs)


# -- observers: counters that need a call's arguments or result ---------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _blob(t: Tracer, args, kwargs, result, exc) -> None:
    t.remember("blobs_read", _arg(args, kwargs, 1, "sha"))


def _extract(t: Tracer, args, kwargs, result, exc) -> None:
    t.remember("blobs_extracted", _arg(args, kwargs, 0, "snapshot").lines)


def _histories(t: Tracer, args, kwargs, result, exc) -> None:
    commits = _arg(args, kwargs, 1, "commits")
    t.add("commits_walked", len(commits))
    for c in commits:
        t.remember("commits", c)


def _renames(t: Tracer, args, kwargs, result, exc) -> None:
    prev_ids = {d.id for d in _arg(args, kwargs, 0, "prev")}
    cur_ids = {d.id for d in _arg(args, kwargs, 1, "cur")}
    t.add("rename_candidates", len(prev_ids - cur_ids) * len(cur_ids - prev_ids))
    if result is not None:
        t.add("renamed", sum(1 for p, c in result.items() if p != c))


def _assemble(t: Tracer, args, kwargs, result, exc) -> None:
    if result is not None:
        t.add("dataset_rows", len(result))


def _train(t: Tracer, args, kwargs, result, exc) -> None:
    t.add("train_rows", len(_arg(args, kwargs, 0, "train")))
    if result is not None:
        t.add("trees", len(result.trees))


def _cross_validate(t: Tracer, args, kwargs, result, exc) -> None:
    ds = _arg(args, kwargs, 0, "ds")
    unit = [ds.release, ds.granularity]
    if exc is not None:
        t.add("cv_failed")
        t.failed_units.append(unit)
        return
    skipped = sum(1 for f in result.folds if f.skipped)
    if skipped:
        t.add("folds_skipped", skipped)
        t.failed_units.append(unit)


def _pair(t: Tracer, args, kwargs, result, exc) -> None:
    if exc is not None:
        t.add("pairs_failed")
        label = _arg(args, kwargs, 2, "pair").label
        t.failed_units += [[label, "class"], [label, "method"]]


OBSERVERS: Dict[str, Callable] = {
    "GitRepo.blob_lines": _blob,
    "extract_modules": _extract,
    "HistoryScanner.change_histories": _histories,
    "match_renames": _renames,
    "assemble": _assemble,
    "train_random_forest": _train,
    "cross_validate": _cross_validate,
    "analyze_release_pair": _pair,
}


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    code = tracer.run(argv[2:])
    tracer.dump(Path(argv[0]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
