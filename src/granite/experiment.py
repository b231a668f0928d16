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
    ChangeSizes,
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
from granite.tracking import HistoryScanner, PriorHistories, count_changes_between, module_loc

log = logging.getLogger(__name__)

GRANULARITIES = ("class", "method")
DEFAULT_K = (100, 500, 1000, 5000, 10000)


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

    def as_dict(self) -> dict:
        return {
            "repos": [{"path": r.path, "tags": r.tags} for r in self.repos],
            "output_dir": self.output_dir,
            "k_values": list(self.k_values),
            "seed": self.seed,
            "folds": self.folds,
        }

    @property
    def config_hash(self) -> str:
        """sha256 over the fields that affect results; output_dir does not."""
        fields = self.as_dict()
        del fields["output_dir"]
        canon = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fp:
        raw = json.load(fp)
    return config_from_dict(raw)


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    repos = tuple(RepoSpec(r["path"], r.get("tags", "*")) for r in raw.get("repos", []))
    if not repos:
        raise ValueError("config needs at least one repository")
    k_values = tuple(int(k) for k in raw.get("k_values", DEFAULT_K))
    if any(k <= 0 for k in k_values) or list(k_values) != sorted(set(k_values)):
        raise ValueError("k_values must be positive and strictly increasing")
    if "output_dir" not in raw:
        raise ValueError("config needs output_dir")
    return ExperimentConfig(
        repos=repos,
        output_dir=str(raw["output_dir"]),
        k_values=k_values,
        seed=int(raw.get("seed", 0)),
        folds=int(raw.get("folds", 10)),
    )


# ---------------------------------------------------------------------------
# per-release analysis


@dataclass
class GranularityResult:
    granularity: str
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

    @property
    def label(self) -> str:
        return self.pair.label


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
        counts = {m: count_changes_between(pair_scan.histories[m]) for m in mods}
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

        sizes: Dict[ModuleId, ChangeSizes] = {}
        for m in mods:
            end = pair_scan.end_defs.get(m)
            sizes[m] = change_sizes(
                m,
                pair_scan.histories[m],
                start_defs[m].body,
                end.body if end is not None else (),
            )
        ranking = rank_by_score(cv.predictions, locs)
        ratios = {
            (kind, k): top_k_change_ratio(ranking, k, sizes, kind)
            for kind in ("release", "commit")
            for k in k_values
        }
        results[granularity] = GranularityResult(
            granularity=granularity,
            dataset=ds,
            cv=cv,
            scores=cv.pooled_scores(),
            ratios=ratios,
            cp_ratio=float(np.mean(ds.y)),
        )

    projected = None
    if "class" in results and "method" in results:
        class_res = results["class"]
        predicted_classes = {p.module for p in class_res.cv.predictions if p.predicted}
        method_mods = set(results["method"].dataset.modules)
        methods_of: Dict[ModuleId, set] = {
            d.id: set() for d in class_context
        }
        for m in method_mods:
            owner = ModuleId("class", m.file_path, m.qualified_class)
            if owner in methods_of:
                methods_of[owner].add(m)
        p_cm = project_class_predictions_to_methods(predicted_classes, methods_of)
        truth_m = {
            m for m, y in zip(results["method"].dataset.modules, results["method"].dataset.y) if y == 1
        }
        projected = classification_scores(confusion_counts(p_cm, truth_m, method_mods))

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
    return re.sub(r"[^A-Za-z0-9._-]+", "-", label)


def _ratio_columns(k_values: Sequence[int]) -> List[Tuple[str, int]]:
    return [(kind, k) for kind in ("release", "commit") for k in k_values]


def emit_report(
    results: List[ReleaseResult],
    config: ExperimentConfig,
    repo_status: Mapping[str, str],
    failed_pairs: Sequence[Mapping[str, str]] = (),
) -> None:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_dir = out_dir / "datasets"
    dataset_dir.mkdir(exist_ok=True)

    ratio_cols = _ratio_columns(config.k_values)

    # releases.csv: one row per (repo, release pair, granularity) plus the projection row
    lines = []
    header = (
        ["repo", "release_pair", "granularity", "n_modules", "cp_ratio",
         "precision", "recall", "f1", "accuracy", "auc"]
        + [f"ratio_{kind}_k{k}" for kind, k in ratio_cols]
    )
    lines.append(header)
    for res in results:
        for granularity in GRANULARITIES:
            gr = res.by_granularity.get(granularity)
            if gr is None:
                continue
            s = gr.scores
            lines.append(
                [res.repo, res.label, granularity, len(gr.dataset), _fmt(gr.cp_ratio),
                 _fmt(s.precision), _fmt(s.recall), _fmt(s.f1), _fmt(s.accuracy), _fmt(s.auc)]
                + [_fmt(gr.ratios.get(col)) for col in ratio_cols]
            )
        if res.projected is not None:
            p = res.projected
            n_methods = len(res.by_granularity["method"].dataset)
            lines.append(
                [res.repo, res.label, "class_to_method", n_methods, "",
                 _fmt(p.precision), _fmt(p.recall), _fmt(p.f1), _fmt(p.accuracy), ""]
                + ["" for _ in ratio_cols]
            )
    _write_rows(out_dir / "releases.csv", lines)

    _write_rows(out_dir / "summary.csv", _summary_rows(results, config))

    # fold assignment manifest: seed-sensitive by construction
    fold_lines = [["repo", "release_pair", "granularity", "module_id", "fold"]]
    for res in results:
        for granularity in GRANULARITIES:
            gr = res.by_granularity.get(granularity)
            if gr is None:
                continue
            for module, fold in zip(gr.dataset.modules, gr.cv.fold_assignment):
                fold_lines.append([res.repo, res.label, granularity, str(module), int(fold)])
    _write_rows(out_dir / "fold_assignments.csv", fold_lines)

    for res in results:
        for granularity, gr in sorted(res.by_granularity.items()):
            name = f"{_safe(res.repo)}__{_safe(res.label)}__{granularity}.csv"
            with open(dataset_dir / name, "w", encoding="utf-8", newline="") as fp:
                write_csv(gr.dataset, fp)

    manifest = {
        "tool": "granite",
        "version": __version__,
        "seed": config.seed,
        "folds": config.folds,
        "k_values": list(config.k_values),
        "config_hash": config.config_hash,
        "repos": {name: status for name, status in sorted(repo_status.items())},
        "release_pairs": sum(1 for _ in results),
        "failed_release_pairs": list(failed_pairs),
        "skipped_granularities": [
            {"repo": res.repo, "release_pair": res.label, "granularity": g, "reason": reason}
            for res in results for g, reason in res.skipped.items()
        ],
        "skipped_folds": [
            {"repo": res.repo, "release_pair": res.label, "granularity": g, "folds": folds}
            for res in results for g, gr in res.by_granularity.items()
            if (folds := [f.fold for f in gr.cv.folds if f.skipped])
        ],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_rows(path: Path, rows: List[List]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        for row in rows:
            writer.writerow(row)


def _summary_rows(results: List[ReleaseResult], config: ExperimentConfig) -> List[List]:
    rows = [["rq", "metric", "class_median", "method_median", "p_value", "delta", "magnitude", "significance"]]

    def paired(metric_pairs: List[Tuple[float, float]], rq: str, metric: str) -> None:
        if not metric_pairs:
            return
        class_vals = [c for c, _ in metric_pairs]
        method_vals = [m for _, m in metric_pairs]
        stat = compare_paired(class_vals, method_vals)
        rows.append(
            [rq, metric, _fmt(statistics.median(class_vals)), _fmt(statistics.median(method_vals)),
             _fmt(stat.p_value), _fmt(stat.delta), stat.magnitude, stat.significance_mark]
        )

    both = [r for r in results if "class" in r.by_granularity and "method" in r.by_granularity]

    for metric in ("precision", "recall", "f1", "accuracy", "auc"):
        pairs = []
        for r in both:
            c = getattr(r.by_granularity["class"].scores, metric)
            m = getattr(r.by_granularity["method"].scores, metric)
            if c is not None and m is not None:
                pairs.append((float(c), float(m)))
        paired(pairs, "rq1", metric)

    for metric in ("precision", "recall", "f1", "accuracy"):
        pairs = []
        for r in both:
            if r.projected is None:
                continue
            c = getattr(r.projected, metric)
            m = getattr(r.by_granularity["method"].scores, metric)
            pairs.append((float(c), float(m)))
        paired(pairs, "rq2", metric)

    for kind, k in _ratio_columns(config.k_values):
        pairs = []
        for r in both:
            c = r.by_granularity["class"].ratios.get((kind, k))
            m = r.by_granularity["method"].ratios.get((kind, k))
            if c is not None and m is not None:
                pairs.append((float(c), float(m)))
        paired(pairs, "rq3", f"ratio_{kind}_k{k}")

    return rows


# ---------------------------------------------------------------------------
# entry point


def run_experiment(config: ExperimentConfig) -> int:
    """Run every repository; nonzero exit only when all of them fail."""
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
