"""Per-layer metrics from one traced run (see tracer.py).

Times named `*.self_s`, or after one function (`tracking.snapshot_s` is
`HistoryScanner.snapshot_modules`), are self times: a span's duration minus
the time its child spans cover, summed over the layer's spans, so the self
times of all layers add up to the traced run.  `experiment.report_s` and
`experiment.pair_s` are inclusive: the whole of `emit_report`, and the
median of `analyze_release_pair`.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

# name, unit; the order is the order they are printed in
PER_LAYER: List[Tuple[str, str]] = [
    ("gitrepo.self_s", "s"), ("gitrepo.git_spawns", "count"), ("gitrepo.child_cpu_s", "s"),
    ("gitrepo.chain_walks", "count"), ("gitrepo.blob_reads", "count"), ("gitrepo.blob_unique", "count"),
    ("gitrepo.tree_lists", "count"),
    ("javaparse.self_s", "s"), ("javaparse.parse_calls", "count"), ("javaparse.extract_calls", "count"),
    ("javaparse.parses_per_blob", "ratio"),
    ("tracking.snapshot_s", "s"), ("tracking.delta_s", "s"), ("tracking.rename_s", "s"),
    ("tracking.history_s", "s"), ("tracking.commits_walked", "count"), ("tracking.walk_redundancy", "ratio"),
    ("tracking.rename_candidates", "count"), ("tracking.rename_yield", "ratio"),
    ("textdiff.self_s", "s"), ("textdiff.similarity_calls", "count"), ("textdiff.diff_calls", "count"),
    ("metrics.class_s", "s"), ("metrics.method_s", "s"), ("metrics.process_s", "s"),
    ("metrics.class_rows", "count"), ("metrics.method_rows", "count"), ("metrics.parses_per_class_row", "ratio"),
    ("dataset.self_s", "s"), ("dataset.rows", "count"),
    ("forest.cv_s", "s"), ("forest.train_s", "s"), ("forest.score_s", "s"), ("forest.forests", "count"),
    ("forest.trees", "count"), ("forest.train_rows", "count"), ("forest.folds_skipped", "count"),
    ("forest.cv_failed", "count"),
    ("evaluation.self_s", "s"), ("stats.self_s", "s"),
    ("experiment.report_s", "s"), ("experiment.pair_s", "s"), ("experiment.pair_s_max", "s"),
    ("experiment.pairs", "count"), ("experiment.pairs_failed", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
UNITS = dict(PER_LAYER)
TIMES = [name for name, unit in PER_LAYER if unit == "s"]

# self-time metrics that cover one or a few functions rather than a whole layer
_SELF_OF = {
    "tracking.snapshot_s": ("tracking.HistoryScanner.snapshot_modules",),
    "tracking.delta_s": ("tracking.HistoryScanner.adjacent_delta",),
    "tracking.rename_s": ("tracking.match_renames",),
    "tracking.history_s": ("tracking.HistoryScanner.change_histories", "tracking.build_change_histories"),
    "metrics.class_s": ("metrics.class_product_metrics",),
    "metrics.method_s": ("metrics.method_product_metrics",),
    "metrics.process_s": ("metrics.process_metrics",),
    "forest.cv_s": ("forest.cross_validate",),
    "forest.train_s": ("forest.train_random_forest",),
    "forest.score_s": ("forest.score_matrix", "forest.predict_proba"),
    "cli.self_s": ("cli.main",),
}
_CALLS_OF = {
    "gitrepo.chain_walks": ("gitrepo.GitRepo.first_parent_chain",),
    "gitrepo.blob_reads": ("gitrepo.GitRepo.blob_lines",),
    "gitrepo.tree_lists": ("gitrepo.GitRepo.source_files",),
    "javaparse.parse_calls": ("javaparse.parse_source",),
    "javaparse.extract_calls": ("javaparse.extract_modules",),
    "textdiff.similarity_calls": ("textdiff.similarity",),
    "textdiff.diff_calls": ("textdiff.diff_sizes", "textdiff.line_churn"),
    "metrics.class_rows": ("metrics.class_product_metrics",),
    "metrics.method_rows": ("metrics.method_product_metrics",),
    "forest.forests": ("forest.train_random_forest",),
    "experiment.pairs": ("experiment.analyze_release_pair",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: Dict) -> Dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_ratio, from one trace document."""
    names = doc["names"]
    spans = doc["spans"]
    name_of, parent = spans["name"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]

    self_by_name: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    incl: Dict[str, List[float]] = {}
    for i, n in enumerate(name_of):
        name = names[n]
        self_by_name[name] = self_by_name.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        incl.setdefault(name, []).append(dur[i])

    # parse_source calls with class_product_metrics somewhere above them
    class_idx = names.index("metrics.class_product_metrics")
    parse_idx = names.index("javaparse.parse_source")
    under_class = 0
    for i, n in enumerate(name_of):
        if n != parse_idx:
            continue
        p = parent[i]
        while p >= 0 and name_of[p] != class_idx:
            p = parent[p]
        under_class += p >= 0

    counts, distinct = doc["counts"], doc["distinct"]
    out: Dict[str, float] = {}
    for layer in ("gitrepo", "javaparse", "textdiff", "dataset", "evaluation", "stats"):
        out[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items() if k.startswith(layer + "."))
    for metric, fns in _SELF_OF.items():
        out[metric] = sum(self_by_name.get(f, 0.0) for f in fns)
    for metric, fns in _CALLS_OF.items():
        out[metric] = sum(calls.get(f, 0) for f in fns)
    pair_s = incl.get("experiment.analyze_release_pair", [])
    out.update({
        "gitrepo.git_spawns": counts.get("git_spawns", 0),
        "gitrepo.child_cpu_s": counts.get("child_cpu_us", 0) / 1e6,
        "gitrepo.blob_unique": distinct.get("blobs_read", 0),
        "javaparse.parses_per_blob": _ratio(out["javaparse.parse_calls"], distinct.get("blobs_extracted", 0)),
        "tracking.commits_walked": counts.get("commits_walked", 0),
        "tracking.walk_redundancy": _ratio(counts.get("commits_walked", 0), distinct.get("commits", 0)),
        "tracking.rename_candidates": counts.get("rename_candidates", 0),
        "tracking.rename_yield": _ratio(counts.get("renamed", 0), out["textdiff.similarity_calls"]),
        "metrics.parses_per_class_row": _ratio(under_class, out["metrics.class_rows"]),
        "dataset.rows": counts.get("dataset_rows", 0),
        "forest.trees": counts.get("trees", 0),
        "forest.train_rows": counts.get("train_rows", 0),
        "forest.folds_skipped": counts.get("folds_skipped", 0),
        "forest.cv_failed": counts.get("cv_failed", 0),
        "experiment.report_s": sum(incl.get("experiment.emit_report", [])),
        "experiment.pair_s": statistics.median(pair_s) if pair_s else 0.0,
        "experiment.pair_s_max": max(pair_s, default=0.0),
        "experiment.pairs_failed": counts.get("pairs_failed", 0),
    })
    return out
