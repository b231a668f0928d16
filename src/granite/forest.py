"""Seeded random forest of Gini decision trees, plus stratified cross-validation.

Per-tree randomness derives from (seed, tree index) only, so training is
bit-reproducible regardless of scheduling: tree i draws the stream of numpy's
`default_rng([seed, i])`, reproduced by granite.streams for all trees at once.
A forest's trees grow in lockstep, with batched split searches, and each comes
out as a per-tree recursion grows it.  Scores are vote fractions: each tree
votes the majority label of its leaf (ties vote change-prone) and the forest
score is the fraction of trees voting 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from granite.dataset import LabeledDataset, apply_min_max, fit_min_max, random_under_sample
from granite.javaparse import ModuleId

if TYPE_CHECKING:  # the functions that use them import them, so `granite mine` and `granite eval` load no numpy
    import numpy as np
    from granite.streams import Streams

log = logging.getLogger(__name__)

SEARCH_CAP = 8192  # elements (nodes x rows x drawn features) in one batched split search
DRAW_AHEAD = 4  # feature choices each tree draws with its bootstrap; each later draw doubles, to at most 64


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    seed: int = 0


@dataclass
class ForestModel:
    """All trees' nodes in flat arrays, each tree in preorder; rows <= threshold go left.

    In preorder a split node's left child is the next node, so only the right child is stored.
    """

    trees: np.ndarray  # root node index of each tree
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # (label-0, label-1) training rows per node, shape (n_nodes, 2)
    feature_names: Tuple[str, ...]


def _best_splits(
    X: np.ndarray, y: np.ndarray, rows: Sequence[np.ndarray], features: np.ndarray
) -> Tuple[List[Tuple[int, int, float, int, int]], np.ndarray]:
    """Best split by weighted Gini of each node b, which holds rows[b] of (X, y) and draws features[b].

    All nodes and their drawn features are sorted and scored in one
    (B, n_max - 1, k) array.  Rows past a node's own count are padding: NaN
    with label 0, which a stable sort keeps after the node's real rows (its
    NaN included), so no split falls in the padding.  A split lies between two
    adjacent sorted values that differ.  Ties: within a feature the first
    minimum in sorted order wins, and across features the first one in draw
    order wins unless a later one scores lower by more than 1e-12.  The
    threshold is the midpoint of the two values around the split, or the lower
    one where the midpoint rounds up to the upper, so the rows <= threshold,
    which go left, are exactly those before the split.

    Returns (b, feature, threshold, left rows, left positives) for each node b
    that some drawn feature splits, and, one per split in the same order, the
    node's rows sorted by that feature.
    """
    import numpy as np
    sizes = np.array([len(r) for r in rows])
    n_max = int(sizes.max())
    real = np.arange(n_max) < sizes[:, None]
    index = np.zeros(real.shape, dtype=np.int64)
    index[real] = np.concatenate(rows)
    cols = X[index[:, :, None], features[:, None, :]]
    cols[~real] = np.nan
    labels = np.where(real, y[index], 0)
    order = np.argsort(cols, axis=1, kind="stable")
    xs = np.take_along_axis(cols, order, axis=1)
    cum_pos = np.cumsum(labels[np.arange(len(rows))[:, None, None], order], axis=1)
    pos_l = cum_pos[:, :-1].astype(np.float64)
    n_l = np.arange(1, n_max, dtype=np.float64)[:, None]
    n_r = np.maximum(sizes[:, None, None] - n_l, 1.0)  # below 1 only in the padding, where 0/0 would warn
    pos_r = cum_pos[:, -1:] - pos_l
    # weighted Gini impurity, up to the constant 1/n factor
    gini_l = n_l - (pos_l**2 + (n_l - pos_l) ** 2) / n_l
    gini_r = n_r - (pos_r**2 + (n_r - pos_r) ** 2) / n_r
    scores = gini_l + gini_r
    scores[~(xs[:, 1:] > xs[:, :-1])] = math.inf  # not `<=`: a NaN next to a value is no split either
    at = scores.argmin(axis=1)
    at_score = np.take_along_axis(scores, at[:, None], axis=1)[:, 0]
    best = np.full(len(rows), -1)
    best_score = np.full(len(rows), math.inf)
    for c in range(features.shape[1]):
        better = at_score[:, c] < best_score - 1e-12
        best[better] = c
        best_score[better] = at_score[better, c]
    node = np.flatnonzero(best >= 0)
    column = best[node]
    split = at[node, column]
    lower, upper = xs[node, split, column], xs[node, split + 1, column]
    threshold = (lower + upper) / 2.0
    threshold = np.where(threshold < upper, threshold, lower)  # the midpoint of two adjacent floats may round up
    splits = (node, features[node, column], threshold, split + 1, cum_pos[node, split, column])
    return list(zip(*(a.tolist() for a in splits))), index[node[:, None], order[node, :, column]]


def _chunks(searches: List[tuple], k: int):
    """The searches by row count, in runs of at most SEARCH_CAP elements each; a larger node goes alone.

    Sorting by row count keeps the padding small; the features are drawn
    before, so the order cannot move them.
    """
    chunk: List[tuple] = []
    for search in sorted(searches, key=lambda search: search[0]):
        if chunk and (len(chunk) + 1) * search[0] * k > SEARCH_CAP:
            yield chunk
            chunk = []
        chunk.append(search)
    if chunk:
        yield chunk


def _queue(draws: np.ndarray, count: int) -> List[List[list]]:
    """Per row of draws, its count equal parts as lists, the first part last."""
    return [parts[::-1] for parts in draws.reshape(len(draws), count, -1).tolist()]


def train_random_forest(train: LabeledDataset, params: ForestParams) -> ForestModel:
    """Grow n_trees on bootstrap samples; per-tree draws depend only on (seed, i).

    A node is a leaf when it is pure (a node of one row always is) or when no
    drawn feature splits it; trees grow to full depth.  The trees grow in
    lockstep: each step pops one node from every tree's stack, appends it and
    takes its features from the tree's stream, then scores the impure ones in
    a few batched searches (by row count, at most SEARCH_CAP elements each).
    A split node pushes its right child and then its left, so each tree draws
    and lists its nodes in preorder, and a split node's left child is the node
    after it.
    """
    import numpy as np
    from granite.streams import Streams, choice_indices, choice_ranges
    X, y = train.X, train.y.astype(np.int64)
    n, m = X.shape
    if n < 2:
        raise ValueError("need at least 2 training rows")
    if y.min() == y.max():
        raise ValueError("training set has a single label")
    if params.n_trees < 1:
        raise ValueError("need at least one tree")
    max_features = min(max(1, math.isqrt(m)), m)  # floor(sqrt(m)) candidate features per node
    streams = Streams([(params.seed & 0x7FFFFFFFFFFF, i) for i in range(params.n_trees)])
    # a tree's stream gives its bootstrap sample, as integers(0, n, size=n), and then one
    # choice(m, max_features, replace=False) per impure node in preorder; choices are drawn ahead
    # for all trees at once, and a tree's unused ones change nothing
    ranges = choice_ranges(m, max_features)
    ahead = DRAW_AHEAD
    draws = streams.bounded(np.concatenate([np.full(n, n - 1), np.tile(ranges, ahead)]))
    samples = draws[:, :n].astype(np.int64)
    queued = _queue(draws[:, n:], ahead)  # per tree, the draws of its next feature choices, the next one last
    # per tree, its nodes in preorder: feature, threshold, right, neg, pos
    trees: List[List[list]] = [[] for _ in range(params.n_trees)]
    # (tree, stack of (rows, positives, parent node of a right child)) per unfinished tree
    growing = [(i, [(sample, int(y[sample].sum()), None)]) for i, sample in enumerate(samples)]
    while growing:
        impure = []
        for i, stack in growing:
            rows, pos, parent = stack.pop()
            if parent is not None:
                parent[2] = len(trees[i])
            trees[i].append([-1, 0.0, -1, len(rows) - pos, pos])
            if 0 < pos < len(rows):
                impure.append((len(rows), rows, i, stack))
        if any(not queued[i] for _, _, i, _ in impure):
            ahead = min(2 * ahead, 64)
            lanes = [i for i, _ in growing]
            for i, more in zip(lanes, _queue(streams.bounded(np.tile(ranges, ahead), lanes), ahead)):
                queued[i] = more + queued[i]
        searches = [
            (size, rows, choice_indices(m, max_features, queued[i].pop()), stack, trees[i])
            for size, rows, i, stack in impure
        ]
        for chunk in _chunks(searches, max_features):
            splits, sorted_rows = _best_splits(
                X, y, [search[1] for search in chunk], np.array([search[2] for search in chunk])
            )
            for row, (b, f, threshold, cut, left_pos) in enumerate(splits):
                size, _, _, stack, nodes = chunk[b]
                node = nodes[-1]
                node[:2] = f, threshold
                # the left child is popped next step; the right one may wait long, so it keeps only its rows
                stack.append((sorted_rows[row, cut:size].copy(), node[4] - left_pos, node))
                stack.append((sorted_rows[row, :cut], left_pos, None))
        growing = [(i, stack) for i, stack in growing if stack]
    sizes = [len(nodes) for nodes in trees]
    roots = np.cumsum([0] + sizes[:-1])
    all_nodes = (node for nodes in trees for node in nodes)
    feature, threshold, right, neg, pos = (np.array(column) for column in zip(*all_nodes))
    right = np.where(right >= 0, right + np.repeat(roots, sizes), -1)
    counts = np.column_stack([neg, pos])
    return ForestModel(roots, feature, threshold, right, counts, train.feature_names)


def score_matrix(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Vote fraction per row of X; every (tree, row) pair moves down one level per pass."""
    import numpy as np
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
        node[active] = np.where(go_left, at + 1, model.right[at])
        active = active[model.feature[node[active]] >= 0]
    votes = model.counts[node, 1] >= model.counts[node, 0]
    return votes.reshape(len(model.trees), len(X)).sum(axis=0) / len(model.trees)


def predict_proba(model: ForestModel, features: np.ndarray) -> float:
    """Change-proneness score of one feature vector."""
    import numpy as np
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
    def predictions(self) -> Dict[ModuleId, float]:
        """Each module's out-of-fold score, in dataset order; modules of skipped folds have none."""
        return {m: s for m, s in zip(self.dataset.modules, self.out_of_fold_scores.tolist()) if not math.isnan(s)}


def _stratified_folds(y: np.ndarray, folds: int, stream: Streams) -> np.ndarray:
    """Deal each class round-robin after a shuffle; fold sizes stay within one."""
    import numpy as np
    assignment = np.zeros(len(y), dtype=np.int64)
    next_fold = 0
    for label in (1, 0):
        idx = np.flatnonzero(y == label)
        idx = idx[stream.permutation(len(idx))[0]]
        assignment[idx] = (next_fold + np.arange(len(idx))) % folds
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
    import numpy as np
    from granite.streams import Streams
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    n = len(ds)
    if n < folds:
        raise ValueError(f"need at least {folds} rows, have {n}")
    if ds.y.min() == ds.y.max():
        raise ValueError("both labels must be present")
    assignment = _stratified_folds(ds.y, folds, Streams([(params.seed & 0x7FFFFFFFFFFF, 0xF01D)]))
    oof = np.full(n, np.nan, dtype=np.float64)
    results: List[FoldResult] = []
    for fold in range(folds):
        test_idx = np.flatnonzero(assignment == fold)
        train_idx = np.flatnonzero(assignment != fold)
        y_train = ds.y[train_idx]
        if len(test_idx) == 0 or y_train.min() == y_train.max():
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
