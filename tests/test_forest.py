import hashlib

import numpy as np
import pytest

from granite.dataset import LabeledDataset
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


# independent model evaluation: plain tree walking, no library scoring path
def walk_tree(model, node, row):
    while model.feature[node] >= 0:
        f = model.feature[node]
        node = model.left[node] if row[f] <= model.threshold[node] else model.right[node]
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


def test_model_json_dump_roundtrips_structure():
    import json

    from granite.forest import model_to_json

    ds = blobs(n=40, m=3, seed=77)
    model = train_random_forest(ds, ForestParams(n_trees=4, seed=2))
    dump = json.loads(model_to_json(model))
    assert dump["n_trees"] == 4
    assert len(dump["trees"]) == 4
    n_nodes = len(dump["feature"])
    for key in ("threshold", "left", "right", "counts"):
        assert len(dump[key]) == n_nodes
    seen = []

    def walk(node):
        seen.append(node)
        if dump["feature"][node] < 0:
            assert sum(dump["counts"][node]) > 0
            return
        assert 0 <= dump["feature"][node] < 3
        walk(dump["left"][node])
        walk(dump["right"][node])

    for tree in dump["trees"]:
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
        check(model.left[node], lo, {**hi, f: t})
        check(model.right[node], {**lo, f: t}, hi)

    for tree in model.trees:
        check(tree, {f: -np.inf for f in range(5)}, {f: np.inf for f in range(5)})


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
    pooled = result.pooled_scores()
    assert pooled.auc is not None and pooled.auc >= 0.95
    assert pooled.f1 >= 0.9


def test_out_of_fold_scores_pinned():
    # pinned before trees became flat arrays; training, fold assignment,
    # scoring and pooled scoring must all stay bit-identical
    ds = blobs(n=150, m=6, shift=0.8, seed=2024)
    cv = cross_validate(ds, folds=10, params=ForestParams(n_trees=25, seed=17))
    payload = cv.out_of_fold_scores.tobytes() + repr(cv.pooled_scores()).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "2465fdb3dd8ef70030d231806b24b8ac74b7bc1d90fe4f5ee452548c184e6319"
    )


def test_fewer_rows_than_folds_errors():
    ds = blobs(n=8, m=3, seed=51)
    with pytest.raises(ValueError):
        cross_validate(ds, folds=10, params=ForestParams(n_trees=3, seed=1))


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
