"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria are property-based (fixture-repo ledger equality, brute-force formula
oracles, exact statistics, learner sanity, determinism, effort triangle) plus
an optional live spot check against a local apache/commons-io clone that is
skipped when no clone is available (set GRANITE_COMMONS_IO to enable it).
"""

import itertools
import os
import random
import time

import numpy as np
import pytest

from granite.dataset import label_change_prone
from granite.evaluation import (
    ChangeSizes,
    change_sizes,
    classification_scores,
    confusion_counts,
    pooled_scores,
    project_class_predictions_to_methods,
    rank_by_score,
    top_k_change_ratio,
    top_k_cutoff,
)
from granite.experiment import ExperimentConfig, RepoSpec, run_experiment
from granite.forest import ForestParams, cross_validate
from granite.gitrepo import GitRepo
from granite.javaparse import ModuleId
from granite.stats import cliffs_delta, magnitude_of, wilcoxon_signed_rank
from granite.tracking import HistoryScanner, module_loc


def report(criterion, started):
    print(f"[acceptance] criterion {criterion}: PASS ({time.monotonic() - started:.2f}s)")


def mid(i, kind="method"):
    if kind == "class":
        return ModuleId("class", f"f{i}.java", f"C{i}")
    return ModuleId("method", f"f{i}.java", f"C{i}", f"m{i}", ())


# -- criterion 1: fixture-repo oracle ----------------------------------------


def test_criterion_1_fixture_ledger_exact(fixture_repo):
    started = time.monotonic()
    with GitRepo(fixture_repo.root) as repo:
        scanner = HistoryScanner(repo)
        pairs = repo.release_pairs("v*")
        assert [p.label for p in pairs] == list(fixture_repo.pairs)
        for pair in pairs:
            ledger = fixture_repo.pairs[pair.label]
            assert len(pair.commits) == ledger.n_commits
            scan = scanner.change_histories(pair.commits)
            alive = {str(m) for m in scan.start_defs}
            assert alive == set(ledger.entries), pair.label
            for module in sorted(scan.start_defs):
                expected = ledger.entries[str(module)]
                history = scan.histories[module]
                assert len(history.events) == expected.count, module
                assert tuple(e.churn for e in history.events) == expected.churns, module
                assert module_loc(scan.start_defs[module]) == expected.loc, module
                sizes = change_sizes(scan, module)
                assert sizes.delta_release == expected.delta_release, module
                assert sizes.delta_commit == expected.delta_commit, module
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"fixture mining took {elapsed:.1f}s"
    report(1, started)


# -- criterion 2: formula suite against brute force ---------------------------


def brute_confusion(preds, truth, universe):
    tp = sum(1 for m in universe if m in preds and m in truth)
    tn = sum(1 for m in universe if m not in preds and m not in truth)
    fp = sum(1 for m in universe if m in preds and m not in truth)
    fn = sum(1 for m in universe if m not in preds and m in truth)
    return tp, tn, fp, fn


def brute_scores(tp, tn, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / (tp + tn + fp + fn) if tp + tn + fp + fn else 0.0
    return precision, recall, f1, accuracy


def brute_cutoff(locs, k):
    sums = [0]
    for loc in locs:
        sums.append(sums[-1] + loc)
    if sums[-1] < k:
        return len(locs)
    for l in range(len(locs) + 1):
        if sums[l] < k <= sums[l + 1]:
            return l
    raise AssertionError("no cutoff satisfies the condition")


def test_criterion_2_formula_suite_randomized():
    started = time.monotonic()
    rng = random.Random(987654321)
    for _ in range(1000):
        n = rng.randrange(0, 12)
        universe = {mid(i) for i in range(n)}
        preds = {m for m in universe if rng.random() < 0.4}
        truth = {m for m in universe if rng.random() < 0.4}
        c = confusion_counts(preds, truth, universe)
        assert (c.tp, c.tn, c.fp, c.fn) == brute_confusion(preds, truth, universe)

        s = classification_scores(c)
        bp, br, bf, ba = brute_scores(c.tp, c.tn, c.fp, c.fn)
        assert (s.precision, s.recall, s.f1, s.accuracy) == (bp, br, bf, ba)

        # projection
        classes = [mid(i, "class") for i in range(rng.randrange(0, 5))]
        methods_of = {}
        for cls in classes:
            members = {
                ModuleId("method", cls.file_path, cls.qualified_class, f"m{j}", ()) for j in range(12)
                if rng.random() < 0.3
            }
            methods_of[cls] = members
        # and methods of classes not among them, which no prediction reaches
        methods = [m for members in methods_of.values() for m in members] + [mid(i) for i in range(5, 12)]
        predicted_classes = {cls for cls in classes if rng.random() < 0.5}
        got = project_class_predictions_to_methods(predicted_classes, methods)
        expected_union = set()
        for cls in predicted_classes:
            for m in methods_of[cls]:
                expected_union.add(m)
        assert got == expected_union

        # ranking, cutoff, ratios
        m_count = rng.randrange(0, 10)
        locs = {mid(i): rng.randrange(1, 40) for i in range(m_count)}
        scores = {mid(i): round(rng.random(), 3) for i in range(m_count)}
        ranking = rank_by_score(scores, locs)
        k = rng.randrange(1, 200)
        cutoff = top_k_cutoff(ranking, k)
        assert cutoff == brute_cutoff([r.loc for r in ranking], k)
        sizes = {
            mid(i): ChangeSizes(mid(i), rng.randrange(0, 60), rng.randrange(0, 90))
            for i in range(m_count)
        }
        for kind in ("release", "commit"):
            ratio = top_k_change_ratio(ranking, k, sizes, kind)
            if cutoff == 0:
                assert ratio is None
            else:
                head = ranking[:cutoff]
                num = sum(
                    sizes[r.module].delta_release if kind == "release" else sizes[r.module].delta_commit
                    for r in head
                )
                assert abs(ratio - num / sum(r.loc for r in head)) < 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(2, started)


# -- criterion 3: label rule ---------------------------------------------------


def test_criterion_3_label_rule_randomized():
    started = time.monotonic()
    rng = random.Random(13579)
    import statistics as st

    for _ in range(500):
        n = rng.randrange(1, 50)
        # half the trials use the sparse regime where the median is zero
        if rng.random() < 0.5:
            counts = [0] * n
            for i in rng.sample(range(n), k=rng.randrange(0, (n // 2) + 1)):
                counts[i] = rng.randrange(1, 6)
        else:
            counts = [rng.randrange(0, 8) for _ in range(n)]
        labels = label_change_prone({mid(i): c for i, c in enumerate(counts)})
        median = st.median(counts)
        for i, c in enumerate(counts):
            assert labels[mid(i)] == (1 if c > median else 0)
        if median == 0:
            assert all(labels[mid(i)] == (1 if c >= 1 else 0) for i, c in enumerate(counts))
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(3, started)


# -- criterion 4: exact statistics ----------------------------------------------


def enumerate_exact_p(a, b):
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return 1.0
    absd = [abs(d) for d in diffs]
    order = sorted(range(len(absd)), key=lambda i: absd[i])
    ranks = [0.0] * len(absd)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and absd[order[j + 1]] == absd[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j + 2) / 2.0
        i = j + 1
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    total = sum(ranks)
    lo, hi = min(w_obs, total - w_obs), max(w_obs, total - w_obs)
    eps = 1e-9
    count = 0
    for signs in itertools.product((0, 1), repeat=len(ranks)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= lo + eps or w >= hi - eps:
            count += 1
    return min(1.0, count / 2 ** len(ranks))


def test_criterion_4_exact_statistics():
    started = time.monotonic()
    rng = random.Random(24680)
    for n in range(1, 13):
        for _ in range(6):
            a = [round(rng.uniform(0, 5), 2) for _ in range(n)]
            b = [round(rng.uniform(0, 5), 2) for _ in range(n)]
            assert abs(wilcoxon_signed_rank(a, b) - enumerate_exact_p(a, b)) < 1e-12

    for _ in range(200):
        a = [rng.randrange(0, 9) for _ in range(rng.randrange(1, 14))]
        b = [rng.randrange(0, 9) for _ in range(rng.randrange(1, 14))]
        gt = sum(1 for x in a for y in b if x > y)
        lt = sum(1 for x in a for y in b if x < y)
        expected = (gt - lt) / (len(a) * len(b))
        delta, _ = cliffs_delta(a, b)
        assert delta == expected

    assert magnitude_of(0.146999) == "negligible"
    assert magnitude_of(0.147) == "small"
    assert magnitude_of(0.329999) == "small"
    assert magnitude_of(0.33) == "medium"
    assert magnitude_of(0.473999) == "medium"
    assert magnitude_of(0.474) == "large"
    report(4, started)


# -- criterion 5: learner sanity ----------------------------------------------


def test_criterion_5_learner_sanity_on_blobs():
    started = time.monotonic()
    rng = np.random.default_rng(20240500)
    n, m = 500, 10
    half = n // 2
    X = np.vstack([rng.normal(0.0, 1.0, (half, m)), rng.normal(2.0, 1.0, (n - half, m))])
    y = np.array([0] * half + [1] * (n - half), dtype=np.int8)
    from granite.dataset import LabeledDataset

    modules = tuple(mid(i) for i in range(n))
    ds = LabeledDataset(
        "blobs", "method", tuple(f"f{j}" for j in range(m)), modules,
        X, y, np.full(n, 10, dtype=np.int64),
    )
    result = cross_validate(ds, folds=10, params=ForestParams(n_trees=100, seed=99))
    pooled = pooled_scores(result.predictions, {m for m, label in zip(modules, y) if label})
    assert pooled.auc is not None and pooled.auc >= 0.95, pooled
    assert pooled.f1 >= 0.9, pooled
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(5, started)


# -- criterion 6: determinism ----------------------------------------------------


def test_criterion_6_end_to_end_determinism(fixture_repo, tmp_path):
    started = time.monotonic()

    def run(out, seed):
        config = ExperimentConfig(
            repos=(RepoSpec(str(fixture_repo.root), "v*"),),
            output_dir=str(out),
            k_values=(50, 100, 1000),
            seed=seed,
        )
        assert run_experiment(config) == 0
        return out

    a = run(tmp_path / "a", seed=11)
    b = run(tmp_path / "b", seed=11)
    c = run(tmp_path / "c", seed=12)

    csvs = ["releases.csv", "summary.csv", "fold_assignments.csv"]
    csvs += sorted(p.name for p in (a / "datasets").glob("*.csv"))

    def read(base, name):
        path = base / name if (base / name).exists() else base / "datasets" / name
        return path.read_bytes()

    for name in csvs:
        assert read(a, name) == read(b, name), f"{name} differs across identical runs"
    assert read(a, "fold_assignments.csv") != read(c, "fold_assignments.csv")
    report(6, started)


# -- criterion 7: effort triangle --------------------------------------------------


def test_criterion_7_release_delta_bounded_by_commit_delta(fixture_repo):
    started = time.monotonic()
    with GitRepo(fixture_repo.root) as repo:
        scanner = HistoryScanner(repo)
        flip_checked = False
        for pair in repo.release_pairs("v*"):
            scan = scanner.change_histories(pair.commits)
            for module in sorted(scan.start_defs):
                sizes = change_sizes(scan, module)
                assert sizes.delta_release <= sizes.delta_commit, module
                if pair.label == "v1.0..v1.1" and str(module) == "method:src/Alpha.java:Alpha#hot()":
                    assert (sizes.delta_release, sizes.delta_commit) == (0, 4)
                    flip_checked = True
        assert flip_checked
    report(7, started)


# -- criterion 8: optional live spot check ------------------------------------------


COMMONS_IO = os.environ.get("GRANITE_COMMONS_IO", "")


@pytest.mark.skipif(not COMMONS_IO, reason="set GRANITE_COMMONS_IO to a local apache/commons-io clone")
def test_criterion_8_commons_io_change_prone_ratios():
    started = time.monotonic()
    tags = os.environ.get("GRANITE_COMMONS_IO_TAGS", "*")
    with GitRepo(COMMONS_IO) as repo:
        scanner = HistoryScanner(repo)
        pairs = repo.release_pairs(tags)
        assert pairs, "no release pairs found; check GRANITE_COMMONS_IO_TAGS"
        method_ok = class_ok = usable = 0
        for pair in pairs:
            scan = scanner.change_histories(pair.commits)
            by_kind = {"class": {}, "method": {}}
            for module in scan.start_defs:
                by_kind[module.kind][module] = len(scan.histories[module].events)
            if not by_kind["class"] or not by_kind["method"]:
                continue
            usable += 1
            m_ratio = sum(label_change_prone(by_kind["method"]).values()) / len(by_kind["method"])
            c_ratio = sum(label_change_prone(by_kind["class"]).values()) / len(by_kind["class"])
            if 0.03 <= m_ratio <= 0.47:
                method_ok += 1
            if 0.13 <= c_ratio <= 0.49:
                class_ok += 1
        assert usable > 0
        assert method_ok / usable >= 0.8, f"method ratios in range for {method_ok}/{usable} pairs"
        assert class_ok / usable >= 0.8, f"class ratios in range for {class_ok}/{usable} pairs"
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(8, started)
