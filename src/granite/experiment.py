"""End-to-end experiment driver: mine, featurize, cross-validate, evaluate, report.

For every release pair of every configured repository this builds the class
and method datasets, scores them out-of-fold with the random forest, projects
class predictions onto methods, computes effort-aware top-k change ratios,
and emits deterministic CSV reports plus cross-granularity statistics.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from granite import __version__
from granite.dataset import LabeledDataset, assemble, label_change_prone, write_csv
from granite.evaluation import (
    EvalScores,
    change_sizes,
    classification_scores,
    confusion_counts,
    project_class_predictions_to_methods,
    rank_by_score,
    top_k_change_ratio,
)
from granite.forest import CrossValResult, ForestParams, cross_validate
from granite.gitrepo import GitRepo, ReleasePair
from granite.javaparse import ModuleId
from granite.metrics import class_hierarchy, class_product_metrics, method_product_metrics, process_metrics
from granite.stats import compare_paired
from granite.tracking import HistoryScanner, PriorHistories, module_loc

log = logging.getLogger(__name__)

GRANULARITIES = ("class", "method")
DEFAULT_K = (100, 500, 1000, 5000, 10000)


def _ratio_columns(k_values: Sequence[int]) -> List[Tuple[str, int]]:
    return [(kind, k) for kind in ("release", "commit") for k in k_values]


@dataclass(frozen=True)
class RepoSpec:
    path: str
    tags: str = "*"

    @property
    def name(self) -> str:
        return Path(self.path).name


@dataclass(frozen=True)
class ExperimentConfig:
    repos: Tuple[RepoSpec, ...]
    output_dir: str
    k_values: Tuple[int, ...] = DEFAULT_K
    seed: int = 0
    folds: int = 10

    @property
    def config_hash(self) -> str:
        """sha256 over the fields that affect results; output_dir does not."""
        fields = {
            "repos": [{"path": r.path, "tags": r.tags} for r in self.repos],
            "k_values": list(self.k_values),
            "seed": self.seed,
            "folds": self.folds,
        }
        return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fp:
        raw = json.load(fp)
    return config_from_dict(raw)


def _repo_spec(entry) -> RepoSpec:
    if not isinstance(entry, Mapping) or not isinstance(entry.get("path"), str):
        raise ValueError(f"a repository entry needs a string path, got {entry!r}")
    spec = RepoSpec(entry["path"], entry.get("tags", "*"))
    if not isinstance(spec.tags, str):
        raise ValueError(f"the tags of repository {spec.path!r} must be a string glob")
    return spec


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    if not isinstance(raw, Mapping):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    if not isinstance(raw.get("repos", []), list):
        raise ValueError("repos must be a list of repository entries")
    repos = tuple(_repo_spec(r) for r in raw.get("repos", []))
    if not repos:
        raise ValueError("config needs at least one repository")
    path_of: Dict[str, str] = {}
    for r in repos:
        if r.name in path_of:  # reports and dataset files are keyed by the name
            raise ValueError(f"repositories {path_of[r.name]!r} and {r.path!r} share the directory name {r.name!r}")
        path_of[r.name] = r.path
    try:
        k_values = tuple(int(k) for k in raw.get("k_values", DEFAULT_K))
        folds, seed = int(raw.get("folds", 10)), int(raw.get("seed", 0))
    except TypeError:  # null, a list or an object where a number belongs
        raise ValueError("k_values must be a list of integers, and folds and seed integers") from None
    if any(k <= 0 for k in k_values) or list(k_values) != sorted(set(k_values)):
        raise ValueError("k_values must be positive and strictly increasing")
    if "output_dir" not in raw:
        raise ValueError("config needs output_dir")
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    return ExperimentConfig(
        repos=repos,
        output_dir=str(raw["output_dir"]),
        k_values=k_values,
        seed=seed,
        folds=folds,
    )


# ---------------------------------------------------------------------------
# per-release analysis


@dataclass
class GranularityResult:
    dataset: LabeledDataset
    cv: CrossValResult
    scores: EvalScores  # pooled out-of-fold scores
    ratios: Dict[Tuple[str, int], Optional[float]]
    cp_ratio: float


@dataclass
class ReleaseResult:
    repo: str
    pair: ReleasePair
    by_granularity: Dict[str, GranularityResult]
    projected: Optional[EvalScores]  # class predictions scored on method truth
    skipped: Dict[str, str]  # granularity -> why it has no result


def analyze_release_pair(
    repo: GitRepo,
    scanner: HistoryScanner,
    pair: ReleasePair,
    prior: Optional[PriorHistories],
    k_values: Sequence[int],
    seed: int,
    folds: int,
) -> Tuple[ReleaseResult, PriorHistories]:
    """The pair's result, and the histories at r' to carry to the next pair.

    prior holds the histories at the previous pair's r'; when it does not end
    at this pair's r, the first-parent chain up to r is walked from the root.
    """
    if prior is None or prior.commits[-1] != pair.r_commit:
        root_scan = scanner.change_histories(list(reversed(repo.first_parent_chain(pair.r_commit))))
        prior = PriorHistories(root_scan.commits, root_scan.end_histories, root_scan.touched)
    pair_scan = scanner.change_histories(pair.commits)
    metas = repo.commit_meta(prior.commits)

    start_defs = pair_scan.start_defs
    class_context = [d for d in start_defs.values() if d.id.kind == "class"]
    hierarchy = class_hierarchy(class_context)

    results: Dict[str, GranularityResult] = {}
    skipped: Dict[str, str] = {}
    for granularity in GRANULARITIES:
        mods = sorted(
            (m for m in start_defs if m.kind == granularity), key=lambda m: m.sort_key
        )
        if not mods:
            skipped[granularity] = f"no {granularity} modules at release"
            log.warning("%s %s: %s", repo.path, pair.label, skipped[granularity])
            continue
        counts = {m: len(pair_scan.histories[m].events) for m in mods}
        labels = label_change_prone(counts)
        locs = {m: module_loc(start_defs[m]) for m in mods}
        touched = {c: kinds.get(granularity, 0) for c, kinds in prior.touched.items()}
        product = {}
        process = {}
        for m in mods:
            d = start_defs[m]
            if granularity == "class":
                product[m] = class_product_metrics(d, hierarchy)
            else:
                product[m] = method_product_metrics(d)
            process[m] = process_metrics(prior.histories[m], metas, touched, pair.r_commit)
        ds = assemble(product, process, labels, locs, pair.label, granularity)

        try:
            cv = cross_validate(ds, folds=folds, params=ForestParams(seed=seed))
        except ValueError as exc:
            skipped[granularity] = f"cross-validation impossible: {exc}"
            log.warning("%s %s %s: %s", repo.path, pair.label, granularity, skipped[granularity])
            continue

        sizes = {m: change_sizes(pair_scan, m) for m in mods}
        ranking = rank_by_score(cv.predictions, locs)
        ratios = {(kind, k): top_k_change_ratio(ranking, k, sizes, kind) for kind, k in _ratio_columns(k_values)}
        results[granularity] = GranularityResult(
            dataset=ds,
            cv=cv,
            scores=cv.pooled_scores(),
            ratios=ratios,
            cp_ratio=float(np.mean(ds.y)),
        )

    projected = None
    if "class" in results and "method" in results:
        method_ds = results["method"].dataset
        predicted_classes = {p.module for p in results["class"].cv.predictions if p.predicted}
        methods_of: Dict[ModuleId, set] = {d.id: set() for d in class_context}
        for m in method_ds.modules:  # every method's class is in the same start snapshot
            methods_of[ModuleId("class", m.file_path, m.qualified_class)].add(m)
        p_cm = project_class_predictions_to_methods(predicted_classes, methods_of)
        truth_m = {m for m, y in zip(method_ds.modules, method_ds.y) if y == 1}
        projected = classification_scores(confusion_counts(p_cm, truth_m, set(method_ds.modules)))

    result = ReleaseResult(Path(str(repo.path)).name, pair, results, projected, skipped)
    return result, prior.extended(pair_scan)


def analyze_repository(
    spec: RepoSpec, k_values: Sequence[int], seed: int, folds: int
) -> Tuple[List[ReleaseResult], List[Dict[str, str]]]:
    """Results of the release pairs that ran, and a manifest entry for each that raised."""
    with GitRepo(spec.path) as repo:
        scanner = HistoryScanner(repo)
        out = []
        failed = []
        prior = None
        for pair in repo.release_pairs(spec.tags):
            try:
                result, prior = analyze_release_pair(repo, scanner, pair, prior, k_values, seed, folds)
                out.append(result)
            except Exception as exc:  # keep one bad pair from sinking the repo
                reason = f"{type(exc).__name__}: {exc}"
                log.warning("%s %s: release pair failed: %s", spec.path, pair.label, reason)
                failed.append({"repo": spec.name, "release_pair": pair.label, "reason": reason})
        return out, failed


# ---------------------------------------------------------------------------
# reports


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _safe(label: str) -> str:
    """label with every UTF-8 byte outside [A-Za-z0-9.-] percent-encoded, so distinct labels stay distinct.

    '_' is encoded too, so the '__' that joins the parts of a file name never occurs inside one.
    """
    return re.sub(rb"[^A-Za-z0-9.-]", lambda m: b"%%%02X" % m[0][0], label.encode()).decode()


def emit_report(
    results: List[ReleaseResult],
    config: ExperimentConfig,
    repo_status: Mapping[str, str],
    failed_pairs: Sequence[Mapping[str, str]] = (),
) -> None:
    out_dir = Path(config.output_dir)
    dataset_dir = out_dir / "datasets"
    ratio_cols = _ratio_columns(config.k_values)

    # releases.csv: one row per (repo, release pair, granularity), then the pair's projection row;
    # fold_assignments.csv is seed-sensitive by construction
    releases = [
        ["repo", "release_pair", "granularity", "n_modules", "cp_ratio",
         "precision", "recall", "f1", "accuracy", "auc"]
        + [f"ratio_{kind}_k{k}" for kind, k in ratio_cols]
    ]
    fold_rows = [["repo", "release_pair", "granularity", "module_id", "fold"]]
    for res in results:
        for granularity, gr in sorted(res.by_granularity.items()):  # GRANULARITIES order
            s = gr.scores
            releases.append(
                [res.repo, res.pair.label, granularity, len(gr.dataset), _fmt(gr.cp_ratio),
                 _fmt(s.precision), _fmt(s.recall), _fmt(s.f1), _fmt(s.accuracy), _fmt(s.auc)]
                + [_fmt(gr.ratios[col]) for col in ratio_cols]
            )
            fold_rows.extend(
                [res.repo, res.pair.label, granularity, str(module), int(fold)]
                for module, fold in zip(gr.dataset.modules, gr.cv.fold_assignment)
            )
            name = f"{_safe(res.repo)}__{_safe(res.pair.label)}__{granularity}.csv"
            with open(dataset_dir / name, "w", encoding="utf-8", newline="") as fp:
                write_csv(gr.dataset, fp)
        if (p := res.projected) is not None:
            releases.append(
                [res.repo, res.pair.label, "class_to_method", len(res.by_granularity["method"].dataset), "",
                 _fmt(p.precision), _fmt(p.recall), _fmt(p.f1), _fmt(p.accuracy), ""]
                + [""] * len(ratio_cols)
            )
    _write_rows(out_dir / "releases.csv", releases)
    _write_rows(out_dir / "summary.csv", _summary_rows(results, config))
    _write_rows(out_dir / "fold_assignments.csv", fold_rows)

    manifest = {
        "tool": "granite",
        "version": __version__,
        "seed": config.seed,
        "folds": config.folds,
        "k_values": list(config.k_values),
        "config_hash": config.config_hash,
        "repos": dict(repo_status),
        "release_pairs": len(results),
        "failed_release_pairs": list(failed_pairs),
        "skipped_granularities": [
            {"repo": res.repo, "release_pair": res.pair.label, "granularity": g, "reason": reason}
            for res in results for g, reason in res.skipped.items()
        ],
        "skipped_folds": [
            {"repo": res.repo, "release_pair": res.pair.label, "granularity": g, "folds": folds}
            for res in results for g, gr in res.by_granularity.items()
            if (folds := [f.fold for f in gr.cv.folds if f.skipped])
        ],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_rows(path: Path, rows: List[List]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp, lineterminator="\n").writerows(rows)


_SCORES = ("precision", "recall", "f1", "accuracy", "auc")


def _summary_rows(results: List[ReleaseResult], config: ExperimentConfig) -> List[List]:
    """One row per metric over the release pairs with both granularities: rq1 scores, rq2 projected
    class predictions (no auc) against method scores, rq3 effort ratios. Empty sides are left out."""
    # projected is set exactly when both granularities ran
    both = [(r.by_granularity["class"], r.by_granularity["method"], r.projected)
            for r in results if r.projected is not None]
    table = (
        [("rq1", s, [(getattr(c.scores, s), getattr(m.scores, s)) for c, m, _ in both]) for s in _SCORES]
        + [("rq2", s, [(getattr(p, s), getattr(m.scores, s)) for _, m, p in both]) for s in _SCORES[:-1]]
        + [("rq3", f"ratio_{kind}_k{k}", [(c.ratios[kind, k], m.ratios[kind, k]) for c, m, _ in both])
           for kind, k in _ratio_columns(config.k_values)]
    )
    rows = [["rq", "metric", "class_median", "method_median", "p_value", "delta", "magnitude", "significance"]]
    for rq, metric, pairs in table:
        kept = [(float(c), float(m)) for c, m in pairs if c is not None and m is not None]
        if not kept:
            continue
        class_vals, method_vals = zip(*kept)
        stat = compare_paired(class_vals, method_vals)
        rows.append(
            [rq, metric, _fmt(statistics.median(class_vals)), _fmt(statistics.median(method_vals)),
             _fmt(stat.p_value), _fmt(stat.delta), stat.magnitude, stat.significance_mark]
        )
    return rows


# ---------------------------------------------------------------------------
# entry point


def run_experiment(config: ExperimentConfig) -> int:
    """Run every repository; nonzero exit only when all of them fail.

    The output directory is made first, so an OSError for it comes before any analysis.
    """
    Path(config.output_dir, "datasets").mkdir(parents=True, exist_ok=True)
    all_results: List[ReleaseResult] = []
    failed_pairs: List[Dict[str, str]] = []
    status: Dict[str, str] = {}
    for spec in config.repos:
        try:
            results, failed = analyze_repository(spec, config.k_values, config.seed, config.folds)
            all_results.extend(results)
            failed_pairs += failed
            status[spec.name] = f"ok:{len(results)} release pairs"
        except Exception as exc:
            log.error("repository %s failed: %s", spec.path, exc)
            status[spec.name] = f"failed:{exc}"
    emit_report(all_results, config, status, failed_pairs)
    any_ok = any(s.startswith("ok") for s in status.values())
    return 0 if any_ok else 1
