"""Seeded random forest of Gini decision trees, plus stratified cross-validation.

Per-tree randomness derives from (seed, tree index) only, so training is
bit-reproducible regardless of scheduling.  Scores are vote fractions: each
tree votes the majority label of its leaf (ties vote change-prone) and the
forest score is the fraction of trees voting 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from granite.dataset import LabeledDataset, apply_min_max, fit_min_max, random_under_sample
from granite.evaluation import EvalScores, PredictionScore, auc_roc, classification_scores, confusion_counts

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    seed: int = 0


@dataclass
class ForestModel:
    """All trees' nodes in flat arrays, each tree in preorder; rows <= threshold go left."""

    trees: np.ndarray  # root node index of each tree
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # (label-0, label-1) training rows per node, shape (n_nodes, 2)
    feature_names: Tuple[str, ...]


def _best_split(
    X: np.ndarray, y: np.ndarray, features: Sequence[int]
) -> Optional[Tuple[int, float, np.ndarray]]:
    """Best (feature, threshold, left mask) by weighted Gini over the node rows.

    All drawn features are sorted and scored in one (n-1) x k matrix; a split
    lies between two adjacent sorted values that differ.  Ties: within a
    feature the first minimum in sorted order wins, and across features the
    first one in draw order wins unless a later one scores lower by more than
    1e-12.  The threshold is the midpoint of the two values around the split.
    """
    n = len(y)
    total_pos = int(y.sum())
    cols = X[:, features]
    k = cols.shape[1]
    column = np.arange(k)
    order = np.argsort(cols, axis=0, kind="stable")
    xs = cols[order, column]
    pos_l = np.cumsum(y[order], axis=0)[:-1].astype(np.float64)
    n_l = np.arange(1, n, dtype=np.float64)[:, None]
    n_r = n - n_l
    pos_r = total_pos - pos_l
    # weighted Gini impurity, up to the constant 1/n factor
    gini_l = n_l - (pos_l**2 + (n_l - pos_l) ** 2) / n_l
    gini_r = n_r - (pos_r**2 + (n_r - pos_r) ** 2) / n_r
    scores = gini_l + gini_r
    scores[~(xs[1:] > xs[:-1])] = math.inf  # not `<=`: a NaN next to a value is no split either
    rows = scores.argmin(axis=0)
    best = None
    best_score = math.inf
    for c, score in enumerate(scores[rows, column].tolist()):
        if score < best_score - 1e-12:
            best_score = score
            best = c
    if best is None:
        return None
    r = rows[best]
    threshold = float((xs[r, best] + xs[r + 1, best]) / 2.0)
    return int(features[best]), threshold, cols[:, best] <= threshold


def _grow(X: np.ndarray, y: np.ndarray, rng: np.random.Generator, max_features: int, nodes: List[list]) -> int:
    """Append the subtree over (X, y) to nodes in preorder; return its root index.

    A node is a leaf when it is pure (a node of one row always is) or when no
    drawn feature splits it; trees grow to full depth.
    """
    n = len(y)
    pos = int(y.sum())
    node = len(nodes)
    nodes.append([-1, 0.0, -1, -1, n - pos, pos])
    if pos == 0 or pos == n:
        return node
    features = rng.choice(X.shape[1], size=max_features, replace=False)
    split = _best_split(X, y, features)
    if split is None:
        return node
    f, threshold, left_mask = split
    left = _grow(X[left_mask], y[left_mask], rng, max_features, nodes)
    right = _grow(X[~left_mask], y[~left_mask], rng, max_features, nodes)
    nodes[node][:4] = [f, threshold, left, right]
    return node


def train_random_forest(train: LabeledDataset, params: ForestParams) -> ForestModel:
    """Grow n_trees on bootstrap samples; per-tree draws depend only on (seed, i)."""
    X, y = train.X, train.y.astype(np.int64)
    n, m = X.shape
    if n < 2:
        raise ValueError("need at least 2 training rows")
    if len(np.unique(y)) < 2:
        raise ValueError("training set has a single label")
    if params.n_trees < 1:
        raise ValueError("need at least one tree")
    max_features = min(max(1, math.isqrt(m)), m)  # floor(sqrt(m)) candidate features per node
    nodes: List[list] = []
    roots = []
    for i in range(params.n_trees):
        rng = np.random.default_rng([params.seed & 0x7FFFFFFFFFFF, i])
        sample = rng.integers(0, n, size=n)
        roots.append(_grow(X[sample], y[sample], rng, max_features, nodes))
    feature, threshold, left, right, neg, pos = (np.array(column) for column in zip(*nodes))
    counts = np.column_stack([neg, pos])
    return ForestModel(np.array(roots), feature, threshold, left, right, counts, train.feature_names)


def score_matrix(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Vote fraction per row of X; every (tree, row) pair moves down one level per pass."""
    if X.shape[1] != len(model.feature_names):
        raise ValueError(
            f"feature length mismatch: got {X.shape[1]}, model expects {len(model.feature_names)}"
        )
    node = np.repeat(model.trees, len(X))
    row = np.tile(np.arange(len(X)), len(model.trees))
    active = np.flatnonzero(model.feature[node] >= 0)
    while active.size:
        at = node[active]
        go_left = X[row[active], model.feature[at]] <= model.threshold[at]
        node[active] = np.where(go_left, model.left[at], model.right[at])
        active = active[model.feature[node[active]] >= 0]
    votes = model.counts[node, 1] >= model.counts[node, 0]
    return votes.reshape(len(model.trees), len(X)).sum(axis=0) / len(model.trees)


def predict_proba(model: ForestModel, features: np.ndarray) -> float:
    """Change-proneness score of one feature vector."""
    row = np.asarray(features, dtype=np.float64).reshape(1, -1)
    return float(score_matrix(model, row)[0])


# ---------------------------------------------------------------------------
# cross-validation


@dataclass
class FoldResult:
    fold: int
    skipped: bool = False


@dataclass
class CrossValResult:
    dataset: LabeledDataset
    fold_assignment: np.ndarray  # fold index per row
    out_of_fold_scores: np.ndarray  # NaN where a fold was skipped
    folds: List[FoldResult]

    @property
    def predictions(self) -> List[PredictionScore]:
        out = []
        for i, m in enumerate(self.dataset.modules):
            s = self.out_of_fold_scores[i]
            if not np.isnan(s):
                out.append(PredictionScore(m, float(s)))
        return out

    def pooled_scores(self) -> EvalScores:
        """Scores over all out-of-fold predictions pooled together."""
        rows = np.flatnonzero(~np.isnan(self.out_of_fold_scores))
        scores = self.out_of_fold_scores[rows]
        labels = self.dataset.y[rows].astype(int)
        counts = confusion_counts(
            set(rows[scores >= 0.5].tolist()), set(rows[labels == 1].tolist()), rows.tolist()
        )
        scored = list(zip(scores.tolist(), labels.tolist()))
        return replace(classification_scores(counts), auc=auc_roc(scored))


def _stratified_folds(y: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Deal each class round-robin after a shuffle; fold sizes stay within one."""
    assignment = np.zeros(len(y), dtype=np.int64)
    next_fold = 0
    for label in (1, 0):
        idx = np.flatnonzero(y == label)
        rng.shuffle(idx)
        for i, row in enumerate(idx):
            assignment[row] = (next_fold + i) % folds
        next_fold = (next_fold + len(idx)) % folds
    return assignment


def _combine_seed(seed: int, salt: int) -> int:
    return (seed * 1_000_003 + salt) % (2**62)


def cross_validate(
    ds: LabeledDataset, folds: int = 10, params: ForestParams = ForestParams()
) -> CrossValResult:
    """Stratified k-fold out-of-fold scoring.

    Normalization and undersampling are fit inside each training fold; a fold
    whose training split is single-label is skipped with a warning.
    """
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    n = len(ds)
    if n < folds:
        raise ValueError(f"need at least {folds} rows, have {n}")
    if len(np.unique(ds.y)) < 2:
        raise ValueError("both labels must be present")
    fold_rng = np.random.default_rng([params.seed & 0x7FFFFFFFFFFF, 0xF01D])
    assignment = _stratified_folds(ds.y, folds, fold_rng)
    oof = np.full(n, np.nan, dtype=np.float64)
    results: List[FoldResult] = []
    for fold in range(folds):
        test_idx = np.flatnonzero(assignment == fold)
        train_idx = np.flatnonzero(assignment != fold)
        y_train = ds.y[train_idx]
        if len(test_idx) == 0 or len(np.unique(y_train)) < 2:
            log.warning("%s/%s fold %d skipped: single-label training split", ds.release, ds.granularity, fold)
            results.append(FoldResult(fold, skipped=True))
            continue
        mins, maxs = fit_min_max(ds.X[train_idx])
        train_ds = ds.subset(train_idx)
        train_ds = replace(train_ds, X=apply_min_max(train_ds.X, mins, maxs))
        train_ds = random_under_sample(train_ds, seed=_combine_seed(params.seed, 1000 + fold))
        model = train_random_forest(
            train_ds, replace(params, seed=_combine_seed(params.seed, fold + 1))
        )
        X_test = apply_min_max(ds.X[test_idx], mins, maxs)
        oof[test_idx] = score_matrix(model, X_test)
        results.append(FoldResult(fold))
    return CrossValResult(ds, assignment, oof, results)
