"""Seeded random forest of Gini decision trees, plus stratified cross-validation.

Per-tree randomness derives from (seed, tree index) only, so training is
bit-reproducible regardless of scheduling: tree i draws the stream of numpy's
`default_rng([seed, i])`, reproduced by granite.streams for all trees at once.
All trees of one training set, or of every training fold of a
cross-validation, grow in one lockstep.  Each step takes one node of every
unfinished tree, draws the features of the impure ones in one batch, and
scores every (node, feature) from its counts of rows and positives per
distinct value of the training set, so each tree comes out as a per-tree
recursion over sorted rows grows it.  Scores are vote fractions: each tree
votes the majority label of its leaf (ties vote change-prone) and the forest
score is the fraction of trees voting 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Sequence, Tuple

from granite.dataset import LabeledDataset, apply_min_max, fit_min_max, under_sampled_rows
from granite.javaparse import ModuleId

if TYPE_CHECKING:  # the functions that use them import them, so `granite mine` and `granite eval` load no numpy
    import numpy as np
    from granite.streams import Streams

log = logging.getLogger(__name__)

CHUNK = 1 << 14  # elements (rows x drawn features) of one batched split search
_SEED_MASK = 0x7FFFFFFFFFFF


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


def _ranked(X: np.ndarray):
    """Dense ranks of each column of X, NaN last as one value; per column its distinct values, their count, and NaN's presence."""
    import numpy as np
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    nan = np.isnan(xs)
    new = np.ones(xs.shape, dtype=bool)
    new[1:] = (xs[1:] > xs[:-1]) | (nan[1:] & ~nan[:-1])
    rank = np.empty(X.shape, dtype=np.min_scalar_type(len(X)))
    np.put_along_axis(rank, order, np.cumsum(new, axis=0) - 1, axis=0)
    return rank, xs.T[new.T], new.sum(axis=0), nan[-1]


@dataclass
class _Tables:
    """The training sets of one lockstep, ranked, and the rows of every tree's nodes."""

    rank: np.ndarray  # (rows of all sets, features) dense rank of each value
    labels: np.ndarray  # label of each row of all sets
    width: np.ndarray  # (sets, features) distinct values, NaN counted as one
    nan_last: np.ndarray  # (sets, features) whether the last distinct value is NaN
    values: np.ndarray  # the distinct values, by set, feature and rank
    value_base: np.ndarray  # (sets, features) where each column's values start
    sizes: np.ndarray  # rows of each set
    pool: np.ndarray  # each node's rows lie in one slice, its left child's rows first


def _tables(sets: Iterable[Tuple[np.ndarray, np.ndarray]], copies: int) -> _Tables:
    """The training sets (X, y) ranked, and a pool of copies rows for each of their rows; a lazy X is dropped once ranked."""
    import numpy as np
    rank, values, width, nan_last, labels = zip(*[(*_ranked(X), y) for X, y in sets])
    width, sizes = np.array(width), np.array([len(y) for y in labels])
    return _Tables(
        np.concatenate(rank),  # in the widest of the sets' rank types
        np.concatenate(labels),
        width,
        np.array(nan_last),
        np.concatenate(values),
        np.cumsum(width).reshape(width.shape) - width,
        sizes,
        np.empty(int(sizes.sum()) * copies, dtype=np.min_scalar_type(int(sizes.sum()))),
    )


def _runs(cost: np.ndarray):
    """Slices of consecutive nodes whose costs sum to at most CHUNK; a costlier node goes alone."""
    import numpy as np
    ends = np.cumsum(cost)
    start = 0
    while start < len(cost):
        stop = max(int(np.searchsorted(ends, ends[start] - cost[start] + CHUNK, side="right")), start + 1)
        yield slice(start, stop)
        start = stop


def _held(t: _Tables, rows, node, ranks, base, bins: int):
    """Each (node, feature) bin that the rows hold, in order, with its rows and positives.

    A bincount of the keys (bin, label) where the bins are no more than the
    keys; else, as in deep nodes over features of many distinct values, a
    sort of the keys, which costs no array of all bins.
    """
    import numpy as np
    keys = base[node]
    keys += ranks
    keys *= 2
    keys += t.labels[rows][:, None]
    keys = keys.ravel()
    if bins <= len(keys):
        counts = np.bincount(keys, minlength=2 * bins)
        del keys  # the largest array of a run
        total = counts[0::2] + counts[1::2]
        held = np.flatnonzero(total)
        return held, total[held], counts[1::2][held]
    keys.sort()
    first = np.flatnonzero(np.diff(keys >> 1, prepend=-1))
    return keys[first] >> 1, np.diff(first, append=len(keys)), np.add.reduceat(keys & 1, first)


def _split(t: _Tables, start, size, pos, node_set, drawn):
    """Best split of each node b by weighted Gini, and its rows partitioned: left rows first.

    Node b of set node_set[b] holds the rows t.pool[start[b]:start[b] + size[b]]
    and draws the features drawn[b].  The threshold is the midpoint of the two
    values around the split (_best), or the lower one where the midpoint rounds
    up to the upper, so the rows <= threshold, which go left, are exactly those
    below the split.

    Returns per node its feature (-1 where no drawn feature splits it),
    threshold, left rows and left positives.
    """
    import numpy as np
    first_row = np.cumsum(size) - size
    node = np.repeat(np.arange(len(size)), size)
    rows = t.pool[np.arange(len(node)) + np.repeat(start - first_row, size)]
    ranks = t.rank[rows[:, None], drawn[node]]
    column, lower, upper, n_left, pos_left = _best(t, rows, node, ranks, size, pos, node_set, drawn)
    feature, threshold = np.full(len(size), -1), np.zeros(len(size))
    sb = np.flatnonzero(column >= 0)
    feature[sb] = drawn[sb, column[sb]]
    value_at = t.value_base[node_set[sb], feature[sb]]
    low, high = t.values[value_at + lower[sb]], t.values[value_at + upper[sb]]
    midpoint = (low + high) / 2.0
    threshold[sb] = np.where(midpoint < high, midpoint, low)  # the midpoint of two adjacent floats may round up
    # move each split node's rows in place, those at or below the lower value first, each side in its order
    e = np.flatnonzero(column[node] >= 0)
    en = node[e]
    left = ranks[e, column[en]] <= lower[en]
    within = e - first_row[en]
    lefts_before = np.cumsum(left) - left
    lefts_before -= lefts_before[np.flatnonzero(within == 0)[np.cumsum(within == 0) - 1]]
    t.pool[start[en] + np.where(left, lefts_before, n_left[en] + within - lefts_before)] = rows[e]
    return feature, threshold, n_left, pos_left


def _best(t: _Tables, rows, node, ranks, size, pos, node_set, drawn):
    """Per node, the column of drawn that splits it best, the ranks of the values below and above the split, and its left rows and positives.

    The rows and positives are counted per distinct value of each drawn
    feature (_held); a split lies between two adjacent values that the node
    holds, not before NaN.  Ties: within a feature the first minimum in value
    order wins, and across features the first one in draw order wins unless a
    later one scores lower by more than 1e-12.  The column is -1 where no
    drawn feature splits the node.
    """
    import numpy as np
    nodes, k = drawn.shape
    column, lower, upper = np.full(nodes, -1), np.zeros(nodes, dtype=np.int64), np.zeros(nodes, dtype=np.int64)
    n_left, pos_left = np.zeros(nodes, dtype=np.int64), np.zeros(nodes, dtype=np.int64)
    width = t.width[node_set[:, None], drawn].ravel()
    base = np.cumsum(width) - width  # each (node, column)'s first bin
    held, total, positives = _held(t, rows, node, ranks, base.reshape(nodes, k), int(width.sum()))
    group = np.searchsorted(base, held, side="right") - 1
    rank = held - base[group]
    head = np.ones(len(held), dtype=bool)
    head[1:] = group[1:] != group[:-1]
    nan = t.nan_last[node_set[:, None], drawn].ravel()[group] & (rank == width[group] - 1)
    at = np.flatnonzero(~head[1:] & ~nan[1:])  # below each held value but the first of its group, and not below NaN
    if not len(at):
        return column, lower, upper, n_left, pos_left
    first = np.flatnonzero(head)[np.cumsum(head) - 1][at]  # the first held value of each split's group
    n_cum, pos_cum = np.cumsum(total), np.cumsum(positives)
    n_l = n_cum[at] - n_cum[first] + total[first]
    pos_l = pos_cum[at] - pos_cum[first] + positives[first]
    group = group[at]
    b = group // k
    nl, pl = n_l.astype(np.float64), pos_l.astype(np.float64)
    nr, pr = size[b] - nl, pos[b] - pl
    # weighted Gini impurity, up to the constant 1/n factor
    scores = (nl - (pl**2 + (nl - pl) ** 2) / nl) + (nr - (pr**2 + (nr - pr) ** 2) / nr)
    head = np.ones(len(at), dtype=bool)
    head[1:] = group[1:] != group[:-1]
    starts = np.flatnonzero(head)
    lowest = np.flatnonzero(scores == np.repeat(np.minimum.reduceat(scores, starts), np.diff(starts, append=len(at))))
    lowest = lowest[np.concatenate([[True], group[lowest[1:]] != group[lowest[:-1]]])]  # the first minimum
    at_score = np.full(nodes * k, math.inf)
    at_score[group[lowest]] = scores[lowest]
    at_split = np.zeros(nodes * k, dtype=np.int64)
    at_split[group[lowest]] = lowest
    at_score, at_split = at_score.reshape(nodes, k), at_split.reshape(nodes, k)
    best_score = np.full(nodes, math.inf)
    for c in range(k):
        better = at_score[:, c] < best_score - 1e-12
        column[better] = c
        best_score[better] = at_score[better, c]
    sb = np.flatnonzero(column >= 0)
    chosen = at_split[sb, column[sb]]
    lower[sb], upper[sb] = rank[at[chosen]], rank[at[chosen] + 1]
    n_left[sb], pos_left[sb] = n_l[chosen], pos_l[chosen]
    return column, lower, upper, n_left, pos_left


def _grow(sets: Iterable[Tuple[np.ndarray, np.ndarray]], seeds: Sequence[int], n_trees: int,
          feature_names: Tuple[str, ...]) -> Callable[[int], ForestModel]:
    """Grow a forest of n_trees for each training set (X, y), tree i of set s on the stream of (seeds[s], i).

    Returns a function of s that builds set s's forest from the grown
    nodes, so a caller that scores each forest and drops it holds the arrays
    of one forest at a time.

    A node is a leaf when it is pure (a node of one row always is) or when no
    drawn feature splits it; trees grow to full depth.  All trees grow in
    lockstep.  Each step takes one node of every unfinished tree: the left
    child of the node it split last step, or else the top of its stack of right
    children.  So node j of a tree is the one of step j, each tree draws and
    lists its nodes in preorder, and a split node's left child is the node
    after it.  The impure nodes of a step draw their features in one batch and
    are scored in runs of at most CHUNK elements.
    """
    import numpy as np
    from granite.streams import Streams, choice_ranges, choose
    if n_trees < 1:
        raise ValueError("need at least one tree")
    m = len(feature_names)
    k = min(max(1, math.isqrt(m)), m)  # floor(sqrt(m)) candidate features per node
    t = _tables(sets, n_trees)
    sizes = t.sizes
    row_base = np.cumsum(sizes) - sizes
    lanes = len(sizes) * n_trees
    lane_set = np.repeat(np.arange(len(sizes)), n_trees)
    streams = Streams([(seed & _SEED_MASK, i) for seed in seeds for i in range(n_trees)])
    # a tree's stream gives its bootstrap sample, as integers(0, n, size=n), and then one
    # choice(m, k, replace=False) per impure node in preorder; the samples are drawn by row count
    index = np.int32 if t.pool.size < 2**31 else np.int64
    node = np.zeros((lanes, 4), dtype=index)  # per unfinished tree, its node of this step: start, size, pos, parent
    filled = 0
    for n in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes[lane_set] == n)
        sample = t.pool[filled:filled + len(group) * n].reshape(len(group), n)
        sample[:] = streams.bounded(np.full(n, n - 1), group)
        sample += row_base[lane_set[group], None].astype(t.pool.dtype)
        node[group] = np.column_stack([filled + n * np.arange(len(group)), np.full(len(group), n),
                                       t.labels[sample].sum(axis=1), np.full(len(group), -1)])
        filled += sample.size
    active = np.arange(lanes, dtype=index)
    ranges = choice_ranges(m, k)
    stack = np.zeros((lanes, 4, 4), dtype=index)  # per tree, the nodes of its right children, the last on top
    depth = np.zeros(lanes, dtype=np.int64)
    records = []  # per step: its trees, their nodes' size, pos and parent, features and thresholds
    step = 0
    while len(active):
        start, size, pos = node[:, 0], node[:, 1], node[:, 2]
        feature, threshold = np.full(len(active), -1, dtype=index), np.zeros(len(active))
        n_left, pos_left = np.zeros(len(active), dtype=index), np.zeros(len(active), dtype=index)
        impure = np.flatnonzero((pos > 0) & (pos < size))
        if len(impure):
            drawn = choose(m, k, streams.bounded(ranges, active[impure]))
            node_set = lane_set[active[impure]]
            for run in _runs(size[impure] * k):
                b = impure[run]
                feature[b], threshold[b], n_left[b], pos_left[b] = _split(
                    t, start[b], size[b], pos[b], node_set[run], drawn[run]
                )
        records.append([active, node[:, 1:].copy(), feature, threshold])
        split = feature >= 0
        # a split node's right child waits on its tree's stack, and its left child comes next
        waits = active[split]
        if len(waits) and depth[waits].max() == stack.shape[1]:
            stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
        stack[waits, depth[waits]] = np.column_stack(
            [start[split] + n_left[split], size[split] - n_left[split], pos[split] - pos_left[split],
             np.full(len(waits), step)]
        )
        depth[waits] += 1
        # after a leaf, its tree goes on with the top of its stack, or is done
        resumes = ~split & (depth[active] > 0)
        popped = active[resumes]
        depth[popped] -= 1
        after = np.empty(node.shape, dtype=index)
        after[split] = np.column_stack([start[split], n_left[split], pos_left[split], np.full(len(waits), -1)])
        after[resumes] = stack[popped, depth[popped]]
        goes_on = split | resumes
        active, node = active[goes_on], after[goes_on]
        step += 1
    # node j of a tree is its node of step j; each column is freed once joined
    lane, node, feature, threshold = (_joined(records, c) for c in range(4))
    order = np.argsort(lane, kind="stable")  # by tree, and within a tree by step: the nodes in preorder
    tree_size = np.bincount(lane, minlength=lanes)
    roots = np.cumsum(tree_size) - tree_size

    def forest(s: int) -> ForestModel:
        trees = roots[s * n_trees:(s + 1) * n_trees]
        lo = int(trees[0])
        at = order[lo:lo + int(tree_size[s * n_trees:(s + 1) * n_trees].sum())]
        right = np.full(len(at), -1)
        child = node[at, 2] >= 0
        right[trees[lane[at[child]] - s * n_trees] - lo + node[at[child], 2]] = np.flatnonzero(child)
        counts = np.column_stack([node[at, 0] - node[at, 1], node[at, 1]]).astype(np.int64)
        return ForestModel(trees - lo, feature[at].astype(np.int64), threshold[at], right, counts, feature_names)

    return forest


def _joined(records: List[list], column: int) -> np.ndarray:
    """One column of the records, concatenated, and dropped from them."""
    import numpy as np
    joined = np.concatenate([record[column] for record in records])
    for record in records:
        record[column] = None
    return joined


def train_random_forest(train: LabeledDataset, params: ForestParams) -> ForestModel:
    """Grow n_trees on bootstrap samples; per-tree draws depend only on (seed, i)."""
    if len(train) < 2:
        raise ValueError("need at least 2 training rows")
    if train.y.min() == train.y.max():
        raise ValueError("training set has a single label")
    return _grow([(train.X, train.y)], [params.seed], params.n_trees, train.feature_names)(0)


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
    whose training split is single-label is skipped with a warning.  The
    folds' forests grow in one lockstep, and their under-samplings draw from
    one batch of streams.
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
    assignment = _stratified_folds(ds.y, folds, Streams([(params.seed & _SEED_MASK, 0xF01D)]))
    oof = np.full(n, np.nan, dtype=np.float64)
    results: List[FoldResult] = []
    trained = []  # (fold, test rows, training rows)
    for fold in range(folds):
        test_idx = np.flatnonzero(assignment == fold)
        train_idx = np.flatnonzero(assignment != fold)
        y_train = ds.y[train_idx]
        if len(test_idx) == 0 or y_train.min() == y_train.max():
            log.warning("%s/%s fold %d skipped: single-label training split", ds.release, ds.granularity, fold)
            results.append(FoldResult(fold, skipped=True))
            continue
        trained.append((fold, test_idx, train_idx))
        results.append(FoldResult(fold))
    if not trained:
        return CrossValResult(ds, assignment, oof, results)
    scales = [fit_min_max(ds.X[train_idx]) for _, _, train_idx in trained]
    kept = under_sampled_rows(
        [ds.y[train_idx] for _, _, train_idx in trained],
        [_combine_seed(params.seed, 1000 + fold) for fold, _, _ in trained],
    )
    rows = [train_idx[keep] for (_, _, train_idx), keep in zip(trained, kept)]
    forest = _grow(
        ((apply_min_max(ds.X[r], *scale), ds.y[r]) for r, scale in zip(rows, scales)),
        [_combine_seed(params.seed, fold + 1) for fold, _, _ in trained],
        params.n_trees,
        ds.feature_names,
    )
    for s, ((_, test_idx, _), scale) in enumerate(zip(trained, scales)):
        oof[test_idx] = score_matrix(forest(s), apply_min_max(ds.X[test_idx], *scale))
    return CrossValResult(ds, assignment, oof, results)
