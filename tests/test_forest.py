import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granite import forest
from granite.dataset import LabeledDataset
from granite.evaluation import pooled_scores
from granite.forest import (
    ForestParams,
    cross_validate,
    predict_proba,
    score_matrix,
    train_random_forest,
)
from granite.javaparse import ModuleId


def make_dataset(X, y, release="r", granularity="method"):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int8)
    modules = tuple(
        ModuleId("method", f"src/F{i}.java", f"C{i}", f"m{i}", ()) for i in range(len(y))
    )
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    loc = np.full(len(y), 10, dtype=np.int64)
    return LabeledDataset(release, granularity, names, modules, X, y, loc)


def blobs(n=500, m=10, shift=2.0, seed=1234):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([rng.normal(0.0, 1.0, (half, m)), rng.normal(shift, 1.0, (n - half, m))])
    y = np.array([0] * half + [1] * (n - half))
    return make_dataset(X, y)


def change_prone(ds):
    return {m for m, label in zip(ds.modules, ds.y) if label}


# independent model evaluation: plain tree walking, no library scoring path
def walk_tree(model, node, row):
    while model.feature[node] >= 0:
        f = model.feature[node]
        node = node + 1 if row[f] <= model.threshold[node] else model.right[node]
    return 1 if model.counts[node][1] >= model.counts[node][0] else 0


def manual_score(model, row):
    return sum(walk_tree(model, t, row) for t in model.trees) / len(model.trees)


def test_two_row_dataset_trains():
    ds = make_dataset([[0.0, 1.0], [1.0, 0.0]], [0, 1])
    model = train_random_forest(ds, ForestParams(n_trees=5, seed=3))
    assert len(model.trees) == 5


def test_single_label_training_errors():
    ds = make_dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(ValueError):
        train_random_forest(ds, ForestParams(n_trees=3, seed=1))


def test_perfectly_separating_feature_fits_training_set():
    rng = np.random.default_rng(7)
    n = 60
    X = rng.random((n, 4))
    y = (X[:, 2] > 0.5).astype(int)
    ds = make_dataset(X, y)
    model = train_random_forest(ds, ForestParams(n_trees=25, seed=11))
    # verify with the independent tree walker, not the library scorer
    manual = np.array([manual_score(model, row) for row in X])
    predicted = (manual >= 0.5).astype(int)
    assert np.array_equal(predicted, y)


def test_same_seed_identical_scores_on_probe_set():
    ds = blobs(n=80, m=5, seed=21)
    probe = np.random.default_rng(9).random((12, 5))
    a = train_random_forest(ds, ForestParams(n_trees=30, seed=5))
    b = train_random_forest(ds, ForestParams(n_trees=30, seed=5))
    assert np.array_equal(score_matrix(a, probe), score_matrix(b, probe))
    c = train_random_forest(ds, ForestParams(n_trees=30, seed=6))
    assert not np.array_equal(score_matrix(a, probe), score_matrix(c, probe))


def test_scores_are_vote_fractions():
    ds = blobs(n=60, m=4, shift=0.6, seed=3)
    model = train_random_forest(ds, ForestParams(n_trees=8, seed=2))
    scores = score_matrix(model, ds.X)
    grid = {i / 8 for i in range(9)}
    assert set(np.round(scores, 12).tolist()) <= grid


def test_library_scorer_matches_independent_walker():
    ds = blobs(n=100, m=6, shift=1.0, seed=13)
    model = train_random_forest(ds, ForestParams(n_trees=20, seed=4))
    scores = score_matrix(model, ds.X)
    for i in range(0, 100, 7):
        assert scores[i] == manual_score(model, ds.X[i])
        assert predict_proba(model, ds.X[i]) == scores[i]


def test_predict_feature_length_mismatch_errors():
    ds = make_dataset([[0.0, 1.0], [1.0, 0.0]], [0, 1])
    model = train_random_forest(ds, ForestParams(n_trees=3, seed=1))
    with pytest.raises(ValueError):
        predict_proba(model, np.zeros(5))


def test_node_arrays_hold_each_tree_in_preorder():
    ds = blobs(n=40, m=3, seed=77)
    model = train_random_forest(ds, ForestParams(n_trees=4, seed=2))
    assert len(model.trees) == 4
    n_nodes = len(model.feature)
    for arr in (model.threshold, model.right, model.counts):
        assert len(arr) == n_nodes
    seen = []

    def walk(node):
        seen.append(node)
        if model.feature[node] < 0:
            assert model.counts[node].sum() > 0
            return
        assert 0 <= model.feature[node] < 3
        walk(node + 1)
        walk(model.right[node])

    for tree in model.trees:
        walk(tree)
    assert seen == list(range(n_nodes))  # preorder, each node in exactly one tree


def test_tree_paths_have_narrowing_boxes():
    ds = blobs(n=120, m=5, shift=1.2, seed=17)
    model = train_random_forest(ds, ForestParams(n_trees=10, seed=8))

    def check(node, lo, hi):
        if model.feature[node] < 0:
            assert model.counts[node][0] + model.counts[node][1] > 0
            return
        f, t = model.feature[node], model.threshold[node]
        assert lo[f] < t < hi[f]
        check(node + 1, lo, {**hi, f: t})
        check(model.right[node], {**lo, f: t}, hi)

    for tree in model.trees:
        check(tree, {f: -np.inf for f in range(5)}, {f: np.inf for f in range(5)})


# -- split search -------------------------------------------------------------


def per_feature_best_split(X, y, features):
    """The split search that scored one feature at a time; kept as the oracle."""
    n = len(y)
    total_pos = int(y.sum())
    best = None
    best_score = math.inf
    for f in features:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ys = y[order]
        cum_pos = np.cumsum(ys)
        idx = np.arange(1, n)
        valid = xs[1:] > xs[:-1]
        if not valid.any():
            continue
        n_l = idx[valid].astype(np.float64)
        n_r = n - n_l
        pos_l = cum_pos[:-1][valid].astype(np.float64)
        pos_r = total_pos - pos_l
        # weighted Gini impurity, up to the constant 1/n factor
        gini_l = n_l - (pos_l**2 + (n_l - pos_l) ** 2) / n_l
        gini_r = n_r - (pos_r**2 + (n_r - pos_r) ** 2) / n_r
        scores = gini_l + gini_r
        j = int(np.argmin(scores))
        if scores[j] < best_score - 1e-12:
            best_score = float(scores[j])
            split_at = idx[valid][j]
            threshold = float((xs[split_at - 1] + xs[split_at]) / 2.0)
            best = (int(f), threshold, col <= threshold)
    return best


def recursive_best_split(X, y, features):
    """The search that scored one node at a time, all its drawn features in one matrix; kept as the oracle."""
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
    gini_l = n_l - (pos_l**2 + (n_l - pos_l) ** 2) / n_l
    gini_r = n_r - (pos_r**2 + (n_r - pos_r) ** 2) / n_r
    scores = gini_l + gini_r
    scores[~(xs[1:] > xs[:-1])] = math.inf
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


def recursive_grow(X, y, rng, max_features, nodes, best_split):
    """Append the subtree over (X, y) to nodes in preorder and return its root; kept as the oracle."""
    n = len(y)
    pos = int(y.sum())
    node = len(nodes)
    nodes.append([-1, 0.0, -1, -1, n - pos, pos])
    if pos == 0 or pos == n:
        return node
    features = rng.choice(X.shape[1], size=max_features, replace=False)
    split = best_split(X, y, features)
    if split is None:
        return node
    f, threshold, left_mask = split
    left = recursive_grow(X[left_mask], y[left_mask], rng, max_features, nodes, best_split)
    right = recursive_grow(X[~left_mask], y[~left_mask], rng, max_features, nodes, best_split)
    nodes[node][:4] = [f, threshold, left, right]
    return node


def recursive_forest(ds, params, best_split=recursive_best_split):
    """The forest as grown one tree at a time, each by recursion over its own row copies, and its left children.

    Kept as the oracle; it stores each node's left child, which the model leaves to preorder.
    """
    X, y = ds.X, ds.y.astype(np.int64)
    n, m = X.shape
    max_features = min(max(1, math.isqrt(m)), m)
    nodes, roots = [], []
    for i in range(params.n_trees):
        rng = np.random.default_rng([params.seed & 0x7FFFFFFFFFFF, i])
        sample = rng.integers(0, n, size=n)
        roots.append(recursive_grow(X[sample], y[sample], rng, max_features, nodes, best_split))
    feature, threshold, left, right, neg, pos = (np.array(column) for column in zip(*nodes))
    counts = np.column_stack([neg, pos])
    return forest.ForestModel(np.array(roots), feature, threshold, right, counts, ds.feature_names), left


def assert_same_nodes(got, oracle):
    """got holds the oracle's nodes, and the oracle's left child of each split node is the next node."""
    want, left = oracle
    split = np.flatnonzero(want.feature >= 0)
    assert np.array_equal(left[split], split + 1)
    for name in ("trees", "feature", "threshold", "right", "counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@st.composite
def tied_nodes(draw):
    """Nodes over one table with heavy ties and some NaN: constant and duplicated columns, maybe one positive.

    Each node has its own rows (repeats allowed, as in a bootstrap) and its
    own 1-8 drawn features (repeats allowed); all nodes draw the same number.
    """
    n = draw(st.integers(2, 40))
    value = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.nan])
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["values", "constant", "copy"]))
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "constant":
            columns.append([draw(value)] * n)
        else:
            columns.append(draw(st.lists(value, min_size=n, max_size=n)))
    X = np.array(columns, dtype=np.float64).T / draw(st.sampled_from([1.0, 3.0, 7.0]))
    if draw(st.booleans()):
        y = np.zeros(n, dtype=np.int64)
        y[draw(st.integers(0, n - 1))] = 1
    else:
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    k = draw(st.integers(1, 8))
    row = st.integers(0, n - 1)
    rows = draw(st.lists(st.lists(row, min_size=2, max_size=2 * n).map(np.array), min_size=1, max_size=5))
    feature = st.integers(0, len(columns) - 1)
    features = np.array(draw(st.lists(st.lists(feature, min_size=k, max_size=k), min_size=len(rows), max_size=len(rows))))
    return X, y, rows, features


@given(tied_nodes())
def test_split_search_equals_the_per_feature_search(nodes):
    X, y, rows, features = nodes
    tables = forest._tables([(X, y)], 0)
    tables.pool = np.concatenate(rows)
    size = np.array([len(r) for r in rows])
    start = np.cumsum(size) - size
    pos = np.array([int(y[r].sum()) for r in rows])
    found = forest._split(tables, start, size, pos, np.zeros(len(rows), dtype=np.int64), features)
    for b, (node_rows, node_features) in enumerate(zip(rows, features)):
        feature, threshold, cut, left_pos = (column[b] for column in found)
        want = per_feature_best_split(X[node_rows], y[node_rows], node_features)
        moved = tables.pool[start[b] : start[b] + size[b]]
        if want is None:
            assert feature == -1
            assert moved.tolist() == node_rows.tolist()  # a node that does not split keeps its rows as they were
            continue
        assert (feature, threshold) == want[:2]
        left, right = moved[:cut], moved[cut:]
        assert sorted(left.tolist()) == sorted(node_rows[want[2]].tolist())
        assert sorted(right.tolist()) == sorted(node_rows[~want[2]].tolist())
        assert left_pos == y[left].sum()


@pytest.mark.parametrize("tied", [True, False])
def test_forest_nodes_equal_those_grown_with_the_per_feature_search(tied):
    rng = np.random.default_rng(99)
    X = rng.integers(0, 4, (70, 9)).astype(np.float64) if tied else rng.random((70, 9))
    ds = make_dataset(X, rng.integers(0, 2, 70))
    params = ForestParams(n_trees=30, seed=5)
    assert_same_nodes(train_random_forest(ds, params), recursive_forest(ds, params, per_feature_best_split))


@st.composite
def training_sets(draw):
    """Up to 1,000 rows of 1-8 features: tied, NaN, random, constant and duplicated columns, maybe one positive."""
    n = draw(st.integers(2, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["tied", "random", "constant", "copy"]))
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "constant":
            columns.append(np.full(n, draw(st.sampled_from([0.0, 1.0, math.nan]))))
        elif kind == "random":
            columns.append(rng.random(n))
        else:
            columns.append(rng.choice([0.0, 1.0, 2.0, 3.0, math.nan], n) / draw(st.sampled_from([1.0, 3.0, 7.0])))
    if draw(st.booleans()):
        y = np.zeros(n, dtype=np.int64)
        y[draw(st.integers(0, n - 1))] = 1
    else:
        y = (rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(np.int64)
        y[:2] = [0, 1]
    params = ForestParams(n_trees=draw(st.integers(1, 12)), seed=draw(st.integers(0, 2**40)))
    return make_dataset(np.column_stack(columns), y), params


@settings(deadline=None)
@given(training_sets())
def test_forest_nodes_equal_the_recursive_forests(training):
    ds, params = training
    assert_same_nodes(train_random_forest(ds, params), recursive_forest(ds, params))


@st.composite
def lockstep_sets(draw):
    """1-4 training sets of distinct row counts and one feature count, each with its own seed, some above 2**32."""
    m = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(2, 120), min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for n in sizes:
        X = rng.choice([0.0, 1.0, 2.0, 3.0, math.nan], (n, m)) if draw(st.booleans()) else rng.random((n, m))
        y = (rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(np.int64)
        y[:2] = [0, 1]
        sets.append(make_dataset(X, y))
    seed = st.sampled_from([0, 5, 2**32 - 1, 2**32, 2**32 + 7, 2**47 - 1]) | st.integers(0, 2**34)
    seeds = draw(st.lists(seed, min_size=len(sets), max_size=len(sets)))
    return sets, seeds, draw(st.integers(1, 6))


@settings(deadline=None)
@given(lockstep_sets())
def test_sets_grown_together_equal_each_grown_alone_and_the_recursive_forests(lockstep):
    sets, seeds, n_trees = lockstep
    grown = forest._grow([(ds.X, ds.y) for ds in sets], seeds, n_trees, sets[0].feature_names)
    for s, (ds, seed) in enumerate(zip(sets, seeds)):
        model = grown(s)
        params = ForestParams(n_trees=n_trees, seed=seed)
        assert_same_nodes(model, recursive_forest(ds, params))
        assert_same_nodes(train_random_forest(ds, params), recursive_forest(ds, params))


def test_a_step_over_the_cap_is_searched_in_chunks_by_row_count(monkeypatch):
    steps = []
    runs = forest._runs

    def recorded(cost):
        step = list(runs(cost))
        steps.append((cost.tolist(), step))
        return step

    monkeypatch.setattr(forest, "_runs", recorded)
    rng = np.random.default_rng(3)
    X = rng.random((300, 5))
    ds = make_dataset(X, (X[:, 0] + X[:, 1] > 1.0).astype(int))
    params = ForestParams(n_trees=3 * forest.CHUNK // (300 * 2) + 1, seed=8)
    assert_same_nodes(train_random_forest(ds, params), recursive_forest(ds, params))
    assert len(steps[0][1]) >= 3  # every root of 300 rows and 2 drawn features: over three times the cap
    for cost, step in steps:
        # consecutive runs cover the step's nodes in order, each run within the cap unless it is one node
        assert [i for run in step for i in range(len(cost))[run]] == list(range(len(cost)))
        assert all(run.stop - run.start == 1 or sum(cost[run]) <= forest.CHUNK for run in step)


def test_a_split_between_adjacent_floats_separates_them():
    # the midpoint of 0.75 and the float just below rounds up to 0.75, which as a
    # threshold would send both rows left, to be split again without end
    upper = 0.75
    lower = np.nextafter(upper, 0.0)
    assert (lower + upper) / 2.0 == upper
    model = train_random_forest(make_dataset([[lower], [upper]], [0, 1]), ForestParams(n_trees=6, seed=0))
    split = np.flatnonzero(model.feature >= 0)
    assert split.size and np.all(model.threshold[split] == lower)
    assert model.counts[split + 1].tolist() == [[1, 0]] * split.size
    assert model.counts[model.right[split]].tolist() == [[0, 1]] * split.size


# -- cross-validation ---------------------------------------------------------


def test_fold_partition_each_row_once():
    ds = blobs(n=100, m=4, seed=31)
    result = cross_validate(ds, folds=10, params=ForestParams(n_trees=10, seed=1))
    assert len(result.fold_assignment) == 100
    counts = np.bincount(result.fold_assignment, minlength=10)
    assert counts.sum() == 100
    assert np.all(counts == 10)  # balanced labels, balanced folds
    assert not np.any(np.isnan(result.out_of_fold_scores))


def test_stratified_positive_counts_within_one():
    rng = np.random.default_rng(5)
    X = rng.random((83, 4))
    y = (rng.random(83) < 0.3).astype(int)
    if y.sum() < 10:
        y[:10] = 1
    ds = make_dataset(X, y)
    result = cross_validate(ds, folds=10, params=ForestParams(n_trees=5, seed=2))
    pos_per_fold = [
        int(np.sum((result.fold_assignment == f) & (ds.y == 1))) for f in range(10)
    ]
    assert max(pos_per_fold) - min(pos_per_fold) <= 1
    sizes = [int(np.sum(result.fold_assignment == f)) for f in range(10)]
    assert max(sizes) - min(sizes) <= 1


def test_separable_blobs_high_out_of_fold_auc():
    ds = blobs(n=200, m=8, shift=2.0, seed=41)
    result = cross_validate(ds, folds=10, params=ForestParams(n_trees=40, seed=3))
    pooled = pooled_scores(result.predictions, change_prone(ds))
    assert pooled.auc is not None and pooled.auc >= 0.95
    assert pooled.f1 >= 0.9


def test_out_of_fold_scores_pinned():
    # pinned before trees became flat arrays; training, fold assignment,
    # scoring and pooled scoring must all stay bit-identical
    ds = blobs(n=150, m=6, shift=0.8, seed=2024)
    cv = cross_validate(ds, folds=10, params=ForestParams(n_trees=25, seed=17))
    payload = cv.out_of_fold_scores.tobytes() + repr(pooled_scores(cv.predictions, change_prone(ds))).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "2465fdb3dd8ef70030d231806b24b8ac74b7bc1d90fe4f5ee452548c184e6319"
    )


def _cross_validation_peak(flipped: float) -> int:
    """tracemalloc's peak during the second cross-validation of a 256 x 32 set, run-wide's largest, with a share of labels flipped."""
    # a third change-prone, and the process metrics that count changes are 0 exactly on the rest, so
    # unflipped the trees stay as small as on the bench (4 nodes each); flipped labels grow them deeper
    rng = np.random.default_rng(0)
    y = (rng.random(256) < 1 / 3).astype(int)
    X = rng.integers(0, rng.integers(2, 40, 32), (256, 32)).astype(np.float64)
    X[:, 24:] = (X[:, 24:] + 1) * y[:, None]
    y ^= np.random.default_rng(1).random(256) < flipped
    ds = make_dataset(X, y)
    params = ForestParams(n_trees=100, seed=1)
    cross_validate(ds, folds=10, params=params)  # loads what a first call loads
    tracemalloc.start()
    try:
        cross_validate(ds, folds=10, params=params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cross_validation_of_a_run_wide_sized_set_keeps_its_peak_memory():
    # training one fold at a time peaked at 1.31 MB here (numpy 2.4.6). The bound leaves room for ten
    # folds' nodes at once, but not for an array that spans every tree's rows (1.8 MB as int64)
    assert _cross_validation_peak(0.0) < 1.6 * 2**20


def test_cross_validation_of_deep_trees_keeps_its_peak_memory():
    # 5 % of labels flipped: 33 nodes a tree. Every fold's node records live until the forests are built,
    # 2.27 MB at the peak here (numpy 2.4.6), where training one fold at a time peaked at 1.73 MB; the
    # bound holds the records to what they take now
    assert _cross_validation_peak(0.05) < 2.5 * 2**20


def test_training_and_cross_validation_warn_nothing():
    # a batched split search must not divide 0 by 0 where a warning could escape
    rng = np.random.default_rng(12)
    X = rng.integers(0, 3, (160, 7)).astype(np.float64)
    X[:, 4] = 1.0
    y = rng.integers(0, 2, 160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cv = cross_validate(make_dataset(X, y), folds=10, params=ForestParams(n_trees=30, seed=6))
        X[rng.random(X.shape) < 0.2] = np.nan
        model = train_random_forest(make_dataset(X, y), ForestParams(n_trees=30, seed=6))
    assert not np.isnan(cv.out_of_fold_scores).any()
    assert len(model.trees) == 30 and (model.feature >= 0).any()


def test_fewer_rows_than_folds_errors():
    ds = blobs(n=8, m=3, seed=51)
    with pytest.raises(ValueError):
        cross_validate(ds, folds=10, params=ForestParams(n_trees=3, seed=1))


@pytest.mark.parametrize("folds", [1, 0])
def test_fewer_than_two_folds_errors(folds):
    ds = blobs(n=40, m=3, seed=52)
    with pytest.raises(ValueError, match="folds must be at least 2"):
        cross_validate(ds, folds=folds, params=ForestParams(n_trees=3, seed=1))


def test_single_label_dataset_errors():
    ds = make_dataset(np.random.default_rng(0).random((20, 3)), [1] * 20)
    with pytest.raises(ValueError):
        cross_validate(ds, folds=10, params=ForestParams(n_trees=3, seed=1))


def test_lone_positive_fold_skipped_with_remaining_predictions():
    rng = np.random.default_rng(61)
    X = rng.random((30, 3))
    y = np.zeros(30, dtype=int)
    y[4] = 1  # single positive: its fold cannot train
    ds = make_dataset(X, y)
    result = cross_validate(ds, folds=10, params=ForestParams(n_trees=5, seed=9))
    skipped = [f.fold for f in result.folds if f.skipped]
    assert len(skipped) == 1
    assert int(np.isnan(result.out_of_fold_scores).sum()) == 3  # rows of the skipped fold


def test_cross_validate_deterministic():
    ds = blobs(n=90, m=5, seed=71)
    a = cross_validate(ds, folds=9, params=ForestParams(n_trees=12, seed=13))
    b = cross_validate(ds, folds=9, params=ForestParams(n_trees=12, seed=13))
    assert np.array_equal(a.fold_assignment, b.fold_assignment)
    assert np.array_equal(a.out_of_fold_scores, b.out_of_fold_scores, equal_nan=True)
    c = cross_validate(ds, folds=9, params=ForestParams(n_trees=12, seed=14))
    assert not np.array_equal(a.fold_assignment, c.fold_assignment)
