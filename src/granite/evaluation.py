"""Classification scores, class-to-method projection, and effort-aware ratios.

Change-proneness predictions are scored three ways: directly at their own
granularity, projected from classes onto their methods, and by how much of
the realized change a top-k LOC budget of the ranking would have covered.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Set, Tuple

from granite.javaparse import ModuleId
from granite.stats import average_ranks
from granite.textdiff import line_churn
from granite.tracking import ScanResult

DEFAULT_K = (100, 500, 1000, 5000, 10000)  # LOC budgets of the effort-aware ratios
CHANGE_SIZE_KINDS = ("release", "commit")  # the two change sizes a ratio can sum
PREDICTION_THRESHOLD = 0.5  # a score at or above it predicts change-prone


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class EvalScores:
    precision: float
    recall: float
    f1: float
    accuracy: float
    auc: Optional[float] = None  # absent for projected evaluations


@dataclass(frozen=True)
class RankedModule:
    module: ModuleId
    score: float
    loc: int


Ranking = Tuple[RankedModule, ...]


@dataclass(frozen=True)
class ChangeSizes:
    module: ModuleId
    delta_release: int  # churn between the two endpoint snapshots
    delta_commit: int  # summed per-commit churn across the milestone


def confusion_counts(
    preds: Set[Hashable], truth: Set[Hashable], universe: Iterable[Hashable]
) -> ConfusionCounts:
    """Set-intersection confusion counts over a universe of modules (or row indices)."""
    all_modules = set(universe)
    tp = len(preds & truth)
    fp = len(preds - truth)
    fn = len(truth - preds)
    tn = len(all_modules) - tp - fp - fn
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def classification_scores(c: ConfusionCounts) -> EvalScores:
    """Precision, recall, F1 (harmonic mean), accuracy; 0/0 cases score 0."""
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) else 0.0
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    accuracy = (c.tp + c.tn) / c.total if c.total else 0.0
    return EvalScores(precision=precision, recall=recall, f1=f1, accuracy=accuracy)


def auc_roc(scored: Sequence[Tuple[float, int]]) -> Optional[float]:
    """Rank-based AUC (ties count one half); None when one label is missing."""
    labels = [label for _, label in scored]
    n_pos, n_neg = labels.count(1), labels.count(0)
    if not n_pos or not n_neg:
        return None
    ranks = average_ranks([s for s, _ in scored])
    rank_sum = sum(r for r, label in zip(ranks, labels) if label == 1)
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def predicted_modules(scores: Mapping[ModuleId, float]) -> Set[ModuleId]:
    """The modules whose score predicts change-prone."""
    return {m for m, s in scores.items() if s >= PREDICTION_THRESHOLD}


def pooled_scores(scores: Mapping[ModuleId, float], truth: Set[ModuleId]) -> EvalScores:
    """Scores of the scored modules against the change-prone ones in truth; AUC in map order."""
    counts = confusion_counts(predicted_modules(scores), truth.intersection(scores), scores)
    return replace(classification_scores(counts), auc=auc_roc([(s, int(m in truth)) for m, s in scores.items()]))


def project_class_predictions_to_methods(
    predicted_classes: Set[ModuleId], methods: Iterable[ModuleId]
) -> Set[ModuleId]:
    """The methods whose class, the one their id names, is predicted."""
    return {m for m in methods if ModuleId("class", m.file_path, m.qualified_class) in predicted_classes}


def rank_by_score(scores: Mapping[ModuleId, float], locs: Mapping[ModuleId, int]) -> Ranking:
    """Descending-score ranking of the scored modules; ties order by ascending LOC then module id."""
    items = [RankedModule(m, float(s), int(locs[m])) for m, s in scores.items()]
    items.sort(key=lambda r: (-r.score, r.loc, r.module))
    return tuple(items)


def top_k_cutoff(ranking: Ranking, k: int) -> int:
    """Largest l with the top-l LOC sum strictly below the budget k.

    0 when the first module alone meets the budget; len(ranking) when even the
    whole ranking stays under it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    total = 0
    cutoff = 0
    for r in ranking:
        if total + r.loc < k:
            total += r.loc
            cutoff += 1
        else:
            break
    return cutoff


def change_sizes(scan: ScanResult, module: ModuleId) -> ChangeSizes:
    """Release-based and commit-based change size of a module alive at the scan's first commit.

    A module that died before the last commit has an empty body there, so its
    deletions count toward the release-based size.
    """
    end = scan.end_defs.get(module)
    delta_release = line_churn(scan.start_defs[module].body, end.body if end is not None else ())
    delta_commit = sum(e.churn for e in scan.histories[module].events)
    return ChangeSizes(module=module, delta_release=delta_release, delta_commit=delta_commit)


def top_k_change_ratio(
    ranking: Ranking,
    k: int,
    sizes: Mapping[ModuleId, ChangeSizes],
    kind: str,
) -> Optional[float]:
    """Summed change size over summed LOC of the top-l modules; None when l is 0."""
    if kind not in CHANGE_SIZE_KINDS:
        raise ValueError(f"unknown change size kind: {kind!r}")
    cutoff = top_k_cutoff(ranking, k)
    if cutoff == 0:
        return None
    head = ranking[:cutoff]
    loc_sum = sum(r.loc for r in head)
    if kind == "release":
        delta_sum = sum(sizes[r.module].delta_release for r in head)
    else:
        delta_sum = sum(sizes[r.module].delta_commit for r in head)
    return delta_sum / loc_sum
