import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from granite.evaluation import (
    ChangeSizes,
    ConfusionCounts,
    auc_roc,
    change_sizes,
    classification_scores,
    confusion_counts,
    pooled_scores,
    predicted_modules,
    project_class_predictions_to_methods,
    rank_by_score,
    top_k_change_ratio,
    top_k_cutoff,
)
from granite.javaparse import ModuleDef, ModuleId
from granite.tracking import ChangeEvent, ChangeHistory, ScanResult


def mod(i, kind="method"):
    if kind == "class":
        return ModuleId("class", f"f{i}.java", f"C{i}")
    return ModuleId("method", f"f{i}.java", f"C{i}", f"m{i}", ())


# -- confusion counts ----------------------------------------------------------


def test_perfect_prediction_no_errors():
    universe = {mod(i) for i in range(6)}
    truth = {mod(0), mod(1)}
    c = confusion_counts(truth, truth, universe)
    assert (c.fp, c.fn) == (0, 0)
    assert c.tp == 2 and c.tn == 4


def test_predict_everything():
    universe = {mod(i) for i in range(5)}
    truth = {mod(0)}
    c = confusion_counts(universe, truth, universe)
    assert c.tn == 0 and c.fn == 0
    assert c.tp == 1 and c.fp == 4


def brute_confusion(preds, truth, universe):
    tp = sum(1 for m in universe if m in preds and m in truth)
    tn = sum(1 for m in universe if m not in preds and m not in truth)
    fp = sum(1 for m in universe if m in preds and m not in truth)
    fn = sum(1 for m in universe if m not in preds and m in truth)
    return tp, tn, fp, fn


def test_confusion_matches_set_enumeration_oracle():
    rng = random.Random(17)
    for _ in range(200):
        universe = {mod(i) for i in range(rng.randrange(1, 20))}
        preds = {m for m in universe if rng.random() < 0.4}
        truth = {m for m in universe if rng.random() < 0.4}
        c = confusion_counts(preds, truth, universe)
        assert (c.tp, c.tn, c.fp, c.fn) == brute_confusion(preds, truth, universe)
        assert c.total == len(universe)


# -- classification scores -------------------------------------------------------


def test_score_formulas_direct_arithmetic():
    s = classification_scores(ConfusionCounts(tp=3, fp=1, fn=2, tn=4))
    assert s.precision == 0.75
    assert abs(s.recall - 0.6) < 1e-15
    assert abs(s.f1 - 2 * 0.75 * 0.6 / 1.35) < 1e-15
    assert s.accuracy == 0.7


def test_f1_equals_p_when_p_equals_r():
    s = classification_scores(ConfusionCounts(tp=3, fp=1, fn=1, tn=5))
    assert abs(s.precision - s.recall) < 1e-15
    assert abs(s.f1 - s.precision) < 1e-15


def test_zero_over_zero_cases_are_zero():
    s = classification_scores(ConfusionCounts(tp=0, fp=0, fn=2, tn=3))
    assert s.precision == 0.0
    s2 = classification_scores(ConfusionCounts(tp=0, fp=0, fn=0, tn=0))
    assert s2 == classification_scores(ConfusionCounts(0, 0, 0, 0))
    assert s2.accuracy == 0.0 and s2.f1 == 0.0


# -- AUC ---------------------------------------------------------------------------


def brute_auc(scored):
    pos = [s for s, y in scored if y == 1]
    neg = [s for s, y in scored if y == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_perfect_separation():
    scored = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
    assert auc_roc(scored) == 1.0


def test_auc_all_ties_is_half():
    scored = [(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)]
    assert auc_roc(scored) == 0.5


def test_auc_enumerated_example():
    scored = [(0.9, 1), (0.8, 0), (0.7, 1), (0.6, 0)]
    assert auc_roc(scored) == 0.75


def test_auc_single_label_absent():
    assert auc_roc([(0.3, 1), (0.6, 1)]) is None


def test_auc_matches_pair_counting_oracle():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(2, 25)
        scored = [(round(rng.random(), 2), rng.randrange(2)) for _ in range(n)]
        expected = brute_auc(scored)
        got = auc_roc(scored)
        if expected is None:
            assert got is None
        else:
            assert abs(got - expected) < 1e-12


# a small pool of values makes ties common; free floats cover the rest
score_values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(allow_nan=False)


@given(st.lists(st.tuples(score_values, st.integers(0, 1)), max_size=30))
def test_auc_equals_pairwise_mann_whitney(scored):
    expected = brute_auc(scored)
    got = auc_roc(scored)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, rel=0, abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = random.Random(31)
    for _ in range(50):
        scored = [(rng.random(), rng.randrange(2)) for _ in range(12)]
        if brute_auc(scored) is None:
            continue
        transformed = [(math.exp(3 * s) + 1, y) for s, y in scored]
        assert abs(auc_roc(scored) - auc_roc(transformed)) < 1e-12


# -- projection ---------------------------------------------------------------------


def method_of(cls, i):
    return ModuleId("method", cls.file_path, cls.qualified_class, f"m{i}", ())


def test_projection_union():
    a, b = mod(0, "class"), mod(1, "class")
    methods = [method_of(a, 10), method_of(a, 11), method_of(b, 20)]
    assert project_class_predictions_to_methods({a}, methods) == {method_of(a, 10), method_of(a, 11)}
    assert project_class_predictions_to_methods(set(), methods) == set()
    union = project_class_predictions_to_methods({a, b}, methods)
    assert union == {method_of(a, 10), method_of(a, 11), method_of(b, 20)}
    assert len(union) == 3  # class memberships are disjoint


def test_projection_partition_identities():
    rng = random.Random(41)
    for _ in range(50):
        classes = [mod(i, "class") for i in range(rng.randrange(1, 6))]
        all_methods = set()
        counter = 0
        for c in classes:
            members = {method_of(c, 100 + counter + j) for j in range(rng.randrange(0, 4))}
            counter += len(members)
            all_methods |= members
        predicted = {c for c in classes if rng.random() < 0.5}
        p_cm = project_class_predictions_to_methods(predicted, all_methods)
        complement = all_methods - p_cm
        assert p_cm | complement == all_methods
        assert p_cm & complement == set()


def test_pooled_scores_count_only_scored_modules_and_predict_at_the_threshold():
    scores = {mod(0): 0.5, mod(1): 0.49, mod(2): 0.9, mod(3): 0.1}
    truth = {mod(0), mod(3), mod(4)}  # mod(4) has no score, as in a skipped fold
    assert predicted_modules(scores) == {mod(0), mod(2)}
    pooled = pooled_scores(scores, truth)
    # tp mod(0), fp mod(2), fn mod(3), tn mod(1)
    assert (pooled.precision, pooled.recall, pooled.f1, pooled.accuracy) == (0.5, 0.5, 0.5, 0.5)
    assert pooled.auc == 0.25  # of the four positive/negative pairs only (0.5, 0.49) ranks right


# -- ranking and cutoffs ----------------------------------------------------------


def test_rank_orders_by_score_then_loc_then_id():
    locs = {mod(0): 30, mod(1): 50, mod(2): 10}
    scores = {mod(0): 0.5, mod(1): 0.5, mod(2): 0.9}
    ranking = rank_by_score(scores, locs)
    assert [r.module for r in ranking] == [mod(2), mod(0), mod(1)]


def test_rank_missing_loc_errors():
    with pytest.raises(KeyError):
        rank_by_score({mod(0): 0.5}, {})


def test_cutoff_examples():
    locs = [40, 30, 50]
    ranking = rank_by_score(
        {mod(i): 1.0 - i * 0.1 for i in range(3)},
        {mod(i): locs[i] for i in range(3)},
    )
    assert top_k_cutoff(ranking, 100) == 2
    assert top_k_cutoff(ranking, 30) == 0
    small = ranking[:2]
    small = rank_by_score(
        {mod(0): 0.9, mod(1): 0.8}, {mod(0): 10, mod(1): 10}
    )
    assert top_k_cutoff(small, 100) == 2  # whole ranking fits under the budget


def test_cutoff_condition_brute_force():
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randrange(0, 12)
        locs = {mod(i): rng.randrange(1, 40) for i in range(n)}
        ranking = rank_by_score(
            {mod(i): rng.random() for i in range(n)}, locs
        )
        k = rng.randrange(1, 150)
        cutoff = top_k_cutoff(ranking, k)
        sums = [0]
        for r in ranking:
            sums.append(sums[-1] + r.loc)
        if sums[-1] < k:
            assert cutoff == len(ranking)
        else:
            assert sums[cutoff] < k <= sums[cutoff + 1]


def test_cutoff_nondecreasing_in_k():
    locs = {mod(i): 7 + i for i in range(8)}
    ranking = rank_by_score({mod(i): 1 - i / 10 for i in range(8)}, locs)
    prev = 0
    for k in range(1, 120):
        cur = top_k_cutoff(ranking, k)
        assert cur >= prev
        prev = cur


# -- change sizes and ratios ---------------------------------------------------------


def scan_of(module, events, body_r, body_rp):
    """A scan of one module: body_r at the first commit, body_rp at the last (None once it died)."""
    def define(body):
        return ModuleDef(module, (1, len(body)), tuple(body))
    end_defs = {} if body_rp is None else {module: define(body_rp)}
    history = ChangeHistory(module, list(events), "b" * 40)
    commits = ("b" * 40, "e" * 40)
    return ScanResult(commits, commits, {module: history}, {module: define(body_r)}, end_defs, {}, {})


def test_untouched_module_sizes_zero():
    m = mod(0)
    sizes = change_sizes(scan_of(m, [], ["a", "b"], ["a", "b"]), m)
    assert (sizes.delta_release, sizes.delta_commit) == (0, 0)


def test_single_commit_release_sizes_equal():
    m = mod(0)
    body_r = ["int f() {", "  return 1;", "}"]
    body_rp = ["int f() {", "  return 2;", "}"]
    sizes = change_sizes(scan_of(m, [ChangeEvent("c" * 40, 2, 1, 1, 1)], body_r, body_rp), m)
    assert sizes.delta_release == sizes.delta_commit == 2


def test_flip_flop_has_zero_release_delta():
    m = mod(0)
    body = ["int f() {", "  int x = 1;", "}"]
    events = [ChangeEvent("1" * 40, 2, 1, 1, 1), ChangeEvent("2" * 40, 2, 1, 1, 1)]
    sizes = change_sizes(scan_of(m, events, body, body), m)
    assert sizes.delta_release == 0
    assert sizes.delta_commit == 4


def test_deleted_module_contributes_deletions():
    m = mod(0)
    body_r = ["line1", "line2", "line3"]
    sizes = change_sizes(scan_of(m, [ChangeEvent("1" * 40, 3, 0, 3, 1)], body_r, None), m)
    assert sizes.delta_release == 3


def test_ratio_formula_instantiated():
    locs = {mod(0): 40, mod(1): 30}
    ranking = rank_by_score({mod(0): 0.9, mod(1): 0.8}, locs)
    sizes = {
        mod(0): ChangeSizes(mod(0), 20, 25),
        mod(1): ChangeSizes(mod(1), 10, 15),
    }
    ratio = top_k_change_ratio(ranking, 100, sizes, "release")
    assert abs(ratio - 30 / 70) < 1e-12
    commit_ratio = top_k_change_ratio(ranking, 100, sizes, "commit")
    assert abs(commit_ratio - 40 / 70) < 1e-12


def test_ratio_null_when_budget_too_small():
    locs = {mod(0): 500}
    ranking = rank_by_score({mod(0): 0.9}, locs)
    sizes = {mod(0): ChangeSizes(mod(0), 5, 5)}
    assert top_k_change_ratio(ranking, 100, sizes, "release") is None


def test_ratio_matches_brute_force_on_random_instances():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randrange(1, 10)
        locs = {mod(i): rng.randrange(1, 30) for i in range(n)}
        sizes = {
            mod(i): ChangeSizes(mod(i), rng.randrange(0, 50), rng.randrange(0, 80))
            for i in range(n)
        }
        ranking = rank_by_score({mod(i): rng.random() for i in range(n)}, locs)
        k = rng.randrange(1, 120)
        for kind in ("release", "commit"):
            got = top_k_change_ratio(ranking, k, sizes, kind)
            cutoff = top_k_cutoff(ranking, k)
            if cutoff == 0:
                assert got is None
            else:
                head = ranking[:cutoff]
                delta = sum(
                    (sizes[r.module].delta_release if kind == "release" else sizes[r.module].delta_commit)
                    for r in head
                )
                expected = delta / sum(r.loc for r in head)
                assert abs(got - expected) < 1e-12
