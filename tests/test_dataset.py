import csv
import io
import random
import statistics

import numpy as np
import pytest

from granite.dataset import (
    assemble,
    feature_names_for,
    label_change_prone,
    min_max_normalize,
    random_under_sample,
    write_csv,
)
from granite.javaparse import ModuleId, parse_module_id
from granite.metrics import CLASS_METRIC_NAMES, PROCESS_METRIC_NAMES


def mod(i, kind="method"):
    if kind == "class":
        return ModuleId("class", f"src/F{i}.java", f"C{i}")
    return ModuleId("method", f"src/F{i}.java", f"C{i}", f"m{i}", ("int",))


def counts_map(counts):
    return {mod(i): c for i, c in enumerate(counts)}


# -- labeling ----------------------------------------------------------------


def test_median_zero_any_change_is_prone():
    labels = label_change_prone(counts_map([0, 0, 1, 2]))
    assert [labels[mod(i)] for i in range(4)] == [0, 0, 1, 1]


def test_strict_inequality_at_median():
    labels = label_change_prone(counts_map([5, 5, 5]))
    assert list(labels.values()) == [0, 0, 0]


def test_even_count_median_is_mean_of_middles():
    labels = label_change_prone(counts_map([1, 2, 3, 4]))
    assert [labels[mod(i)] for i in range(4)] == [0, 0, 1, 1]


def test_empty_counts_error():
    with pytest.raises(ValueError):
        label_change_prone({})


def test_labeling_matches_median_oracle_on_random_vectors():
    rng = random.Random(411)
    for _ in range(200):
        n = rng.randrange(1, 30)
        counts = [rng.randrange(0, 6) for _ in range(n)]
        labels = label_change_prone(counts_map(counts))
        med = statistics.median(counts)
        for i, c in enumerate(counts):
            assert labels[mod(i)] == (1 if c > med else 0)


def test_change_prone_ratio_equals_changed_fraction_when_median_zero():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(4, 40)
        changed = rng.randrange(0, (n - 1) // 2 + 1)  # fewer than half changed
        counts = [0] * (n - changed) + [rng.randrange(1, 5) for _ in range(changed)]
        rng.shuffle(counts)
        labels = label_change_prone(counts_map(counts))
        ratio = sum(labels.values()) / n
        assert ratio == changed / n


# -- assembly ----------------------------------------------------------------


def small_dataset(n=6, seed=0, granularity="method"):
    rng = np.random.default_rng(seed)
    names = feature_names_for(granularity)
    modules = [mod(i, granularity) for i in range(n)]
    n_prod = len(names) - len(PROCESS_METRIC_NAMES)
    product = {m: rng.random(n_prod) for m in modules}
    process = {m: rng.random(len(PROCESS_METRIC_NAMES)) for m in modules}
    labels = {m: int(i % 3 == 0) for i, m in enumerate(modules)}
    locs = {m: 5 + i for i, m in enumerate(modules)}
    return assemble(product, process, labels, locs, "r1..r2", granularity)


def test_assemble_row_per_module_and_order():
    ds = small_dataset(3)
    assert len(ds) == 3
    assert list(ds.modules) == sorted(ds.modules)
    assert ds.feature_names[: len(ds.feature_names) - len(PROCESS_METRIC_NAMES)][0].startswith("product_")
    assert ds.feature_names[-1].startswith("process_")


def test_overloads_sort_by_their_parameter_types_one_by_one():
    # "Foo" sorts before "Foo$Bar", so f(Foo, int) comes first although "$" sorts below ","
    pair = ModuleId("method", "src/A.java", "A", "f", ("Foo", "int"))
    nested = ModuleId("method", "src/A.java", "A", "f", ("Foo$Bar",))
    n_prod = len(feature_names_for("method")) - len(PROCESS_METRIC_NAMES)
    ids = (nested, pair)
    ds = assemble({m: np.zeros(n_prod) for m in ids}, {m: np.zeros(len(PROCESS_METRIC_NAMES)) for m in ids},
                  {m: 0 for m in ids}, {m: 1 for m in ids}, "r1..r2", "method")
    assert ds.modules == (pair, nested)


def test_assemble_missing_module_errors_with_name():
    modules = [mod(0), mod(1)]
    names = feature_names_for("method")
    n_prod = len(names) - len(PROCESS_METRIC_NAMES)
    product = {m: np.zeros(n_prod) for m in modules}
    process = {modules[0]: np.zeros(len(PROCESS_METRIC_NAMES))}
    labels = {m: 0 for m in modules}
    locs = {m: 1 for m in modules}
    with pytest.raises(ValueError, match="m1"):
        assemble(product, process, labels, locs, "r", "method")


def test_class_feature_length():
    ds = small_dataset(4, granularity="class")
    assert ds.X.shape[1] == len(CLASS_METRIC_NAMES) + len(PROCESS_METRIC_NAMES)


# -- normalization -------------------------------------------------------------


def test_min_max_maps_to_unit_interval():
    ds = small_dataset(5)
    ds = ds.__class__(**{**ds.__dict__, "X": np.array([[0.0], [5.0], [10.0]]),
                         "feature_names": ("f",),
                         "modules": ds.modules[:3], "y": ds.y[:3], "loc": ds.loc[:3]})
    out = min_max_normalize(ds)
    assert np.allclose(out.X.ravel(), [0.0, 0.5, 1.0])


def test_constant_column_maps_to_zero():
    ds = small_dataset(3)
    X = np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]])
    ds = ds.__class__(**{**ds.__dict__, "X": X, "feature_names": ("a", "b"),
                         "modules": ds.modules, "y": ds.y, "loc": ds.loc})
    out = min_max_normalize(ds)
    assert np.all(out.X[:, 0] == 0.0)


def test_normalize_output_in_unit_range_and_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        ds = small_dataset(n=rng.integers(2, 12), seed=int(rng.integers(1e6)))
        out = min_max_normalize(ds)
        assert out.X.min() >= 0.0 and out.X.max() <= 1.0
        again = min_max_normalize(out)
        assert np.allclose(out.X, again.X)


# -- undersampling --------------------------------------------------------------


def dataset_with_labels(labels, seed=3):
    rng = np.random.default_rng(seed)
    modules = [mod(i) for i in range(len(labels))]
    names = ("f1", "f2")
    from granite.dataset import LabeledDataset

    return LabeledDataset(
        "r", "method", names, tuple(modules),
        rng.random((len(labels), 2)), np.array(labels, dtype=np.int8),
        np.arange(1, len(labels) + 1, dtype=np.int64),
    )


def test_rus_balances_majority_down():
    ds = dataset_with_labels([0] * 10 + [1] * 4)
    out = random_under_sample(ds, seed=7)
    assert int((out.y == 0).sum()) == 4
    assert int((out.y == 1).sum()) == 4
    assert set(out.modules) <= set(ds.modules)


def test_rus_keeps_balanced_dataset_unchanged():
    ds = dataset_with_labels([0, 1, 0, 1])
    out = random_under_sample(ds, seed=1)
    assert out.modules == ds.modules


def test_rus_deterministic_per_seed():
    ds = dataset_with_labels([0] * 12 + [1] * 3)
    a = random_under_sample(ds, seed=42)
    b = random_under_sample(ds, seed=42)
    assert a.modules == b.modules
    c = random_under_sample(ds, seed=43)
    assert a.modules != c.modules or np.array_equal(a.X, c.X)


def test_rus_single_label_errors():
    ds = dataset_with_labels([1, 1, 1])
    with pytest.raises(ValueError):
        random_under_sample(ds, seed=0)


def test_rus_minority_rows_untouched():
    ds = dataset_with_labels([0] * 9 + [1] * 2)
    out = random_under_sample(ds, seed=5)
    minority = [m for m, y in zip(ds.modules, ds.y) if y == 1]
    assert all(m in set(out.modules) for m in minority)


# -- CSV round trip ---------------------------------------------------------------


def test_csv_roundtrip_lossless():
    ds = small_dataset(7, seed=11)
    buf = io.StringIO()
    write_csv(ds, buf)
    buf.seek(0)
    header, *rows = csv.reader(buf)
    assert header == ["module_id", "loc", *ds.feature_names, "label"]
    assert len(rows) == len(ds)
    for i, row in enumerate(rows):
        assert parse_module_id(row[0]) == ds.modules[i]
        assert int(row[1]) == ds.loc[i]
        values = np.array([float(v) for v in row[2:-1]], dtype=np.float64)
        assert values.view(np.int64).tolist() == ds.X[i].view(np.int64).tolist()  # bit-equal
        assert int(row[-1]) == ds.y[i]
