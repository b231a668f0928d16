"""End-to-end experiment driver: mine, featurize, cross-validate, evaluate, report.

For every release pair of every configured repository this builds the class
and method datasets, scores them out-of-fold with the random forest, projects
class predictions onto methods, computes effort-aware top-k change ratios,
and emits deterministic CSV reports plus cross-granularity statistics.
"""

from __future__ import annotations

import csv
import json
import logging
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from granite import __version__
from granite.dataset import assemble, label_change_prone, write_csv
from granite.evaluation import (
    CHANGE_SIZE_KINDS,
    DEFAULT_K,
    EvalScores,
    change_sizes,
    classification_scores,
    confusion_counts,
    pooled_scores,
    predicted_modules,
    project_class_predictions_to_methods,
    rank_by_score,
    top_k_change_ratio,
)
from granite.javaparse import ModuleId
from granite.forest import CrossValResult, ForestParams, cross_validate
from granite.gitrepo import GitRepo, ReleasePair
from granite.metrics import class_hierarchy, class_product_metrics, method_product_metrics, process_metrics
from granite.stats import compare_paired
from granite.tracking import HistoryScanner, ScanResult, module_loc

# CPython's builtin SHA-256, so that a run does not load hashlib's OpenSSL backend (libcrypto, about 3.3 MB of RSS)
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without the builtin hashes
        from hashlib import sha256

log = logging.getLogger(__name__)

GRANULARITIES = ("class", "method")


def _ratio_columns(k_values: Sequence[int]) -> List[Tuple[str, int]]:
    return [(kind, k) for kind in CHANGE_SIZE_KINDS for k in k_values]


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
        return sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fp:
        raw = json.load(fp)
    return config_from_dict(raw)


def _warn_unknown_keys(raw: Mapping, known: Tuple[str, ...], where: str) -> None:
    # an ignored key changes no report, so it warns rather than fails
    if unknown := [key for key in raw if key not in known]:
        log.warning("%s: ignoring unknown keys %s", where, ", ".join(map(repr, unknown)))


def _repo_spec(entry) -> RepoSpec:
    if not isinstance(entry, Mapping) or not isinstance(entry.get("path"), str):
        raise ValueError(f"a repository entry needs a string path, got {entry!r}")
    _warn_unknown_keys(entry, ("path", "tags"), f"repository {entry['path']!r}")
    if not entry["path"]:  # an empty path would open the working directory
        raise ValueError("a repository path must not be empty")
    spec = RepoSpec(entry["path"], entry.get("tags", "*"))
    if not isinstance(spec.tags, str):
        raise ValueError(f"the tags of repository {spec.path!r} must be a string glob")
    return spec


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    if not isinstance(raw, Mapping):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    _warn_unknown_keys(raw, ("repos", "output_dir", "k_values", "seed", "folds"), "config")
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
    k_values, folds, seed = raw.get("k_values", DEFAULT_K), raw.get("folds", 10), raw.get("seed", 0)
    # JSON integers only (no float, bool or string), so config_hash hashes the values that run
    if not isinstance(k_values, (list, tuple)) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in (*k_values, folds, seed)
    ):
        raise ValueError("k_values must be a list of integers, and folds and seed integers")
    if not k_values:  # no k gives no rq3 rows and no ratio columns
        raise ValueError("k_values must name at least one k")
    if any(k <= 0 for k in k_values) or list(k_values) != sorted(set(k_values)):
        raise ValueError("k_values must be positive and strictly increasing")
    if not isinstance(raw.get("output_dir"), str) or not raw["output_dir"]:
        raise ValueError("config needs output_dir, a non-empty string")
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    return ExperimentConfig(
        repos=repos,
        output_dir=raw["output_dir"],
        k_values=tuple(k_values),
        seed=seed,
        folds=folds,
    )


# ---------------------------------------------------------------------------
# per-release analysis


@dataclass
class GranularityResult:
    cv: CrossValResult
    truth: Set[ModuleId]  # the change-prone modules
    scores: EvalScores  # pooled out-of-fold scores
    ratios: Dict[Tuple[str, int], Optional[float]]


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
    prior: Optional[ScanResult],
    k_values: Sequence[int],
    seed: int,
    folds: int,
) -> Tuple[ReleaseResult, ScanResult]:
    """The pair's result, and its scan for the next pair to continue.

    The pair's scan continues prior, the previous pair's scan, or, when that
    does not end at r, a walk from the root to r; so the pair's modules and
    their histories up to r are those of a walk from the root.
    """
    if prior is None or prior.commits[-1] != pair.r_commit:
        prior = scanner.change_histories(list(reversed(repo.first_parent_chain(pair.r_commit))))
    pair_scan = scanner.change_histories(pair.commits, prior)
    metas = repo.commit_meta(prior.chain)

    start_defs = pair_scan.start_defs
    hierarchy = class_hierarchy(start_defs.values())

    results: Dict[str, GranularityResult] = {}
    skipped: Dict[str, str] = {}
    for granularity in GRANULARITIES:
        mods = [m for m in start_defs if m.kind == granularity]
        if not mods:
            skipped[granularity] = f"no {granularity} modules at release"
            log.warning("%s %s: %s", repo.path, pair.label, skipped[granularity])
            continue
        counts = {m: len(pair_scan.histories[m].events) for m in mods}
        labels = label_change_prone(counts)
        locs = {m: module_loc(start_defs[m]) for m in mods}
        if granularity == "class":
            product = {m: class_product_metrics(start_defs[m], hierarchy) for m in mods}
        else:
            product = {m: method_product_metrics(start_defs[m]) for m in mods}
        process = {m: process_metrics(prior.end_histories[m], metas, pair.r_commit) for m in mods}
        ds = assemble(product, process, labels, locs, pair.label, granularity)

        try:
            cv = cross_validate(ds, folds=folds, params=ForestParams(seed=seed))
        except ValueError as exc:
            skipped[granularity] = f"cross-validation impossible: {exc}"
            log.warning("%s %s %s: %s", repo.path, pair.label, granularity, skipped[granularity])
            continue

        predictions = cv.predictions
        truth = {m for m, y in labels.items() if y}
        sizes = {m: change_sizes(pair_scan, m) for m in mods}
        ranking = rank_by_score(predictions, locs)
        ratios = {(kind, k): top_k_change_ratio(ranking, k, sizes, kind) for kind, k in _ratio_columns(k_values)}
        results[granularity] = GranularityResult(cv, truth, pooled_scores(predictions, truth), ratios)

    projected = None
    if "class" in results and "method" in results:
        method = results["method"]
        methods = method.cv.dataset.modules
        p_cm = project_class_predictions_to_methods(predicted_modules(results["class"].cv.predictions), methods)
        projected = classification_scores(confusion_counts(p_cm, method.truth, methods))

    result = ReleaseResult(Path(str(repo.path)).name, pair, results, projected, skipped)
    return result, pair_scan


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
        for granularity, gr in res.by_granularity.items():  # filled in GRANULARITIES order
            s = gr.scores
            releases.append(
                [res.repo, res.pair.label, granularity, len(gr.cv.dataset), _fmt(len(gr.truth) / len(gr.cv.dataset)),
                 _fmt(s.precision), _fmt(s.recall), _fmt(s.f1), _fmt(s.accuracy), _fmt(s.auc)]
                + [_fmt(gr.ratios[col]) for col in ratio_cols]
            )
            fold_rows.extend(
                [res.repo, res.pair.label, granularity, str(module), int(fold)]
                for module, fold in zip(gr.cv.dataset.modules, gr.cv.fold_assignment)
            )
            name = f"{_safe(res.repo)}__{_safe(res.pair.label)}__{granularity}.csv"
            with open(dataset_dir / name, "w", encoding="utf-8", newline="") as fp:
                write_csv(gr.cv.dataset, fp)
        if (p := res.projected) is not None:
            releases.append(
                [res.repo, res.pair.label, "class_to_method", len(res.by_granularity["method"].cv.dataset), "",
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
