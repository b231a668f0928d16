import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from granite import stats
from granite.stats import (
    StatResult,
    cliffs_delta,
    compare_paired,
    magnitude_of,
    significance_mark,
    wilcoxon_signed_rank,
)


def average_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def enumerate_exact_p(a, b):
    """Literal 2^n sign enumeration of the signed-rank null distribution."""
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return 1.0
    ranks = average_ranks([abs(d) for d in diffs])
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


@given(st.lists(st.integers(-3, 3) | st.floats(allow_nan=False), max_size=40))
def test_average_ranks_give_each_tie_group_its_mean_rank(values):
    ranks = stats.average_ranks(values)
    assert len(ranks) == len(values)
    for rank, v in zip(ranks, values):
        below = sum(1 for x in values if x < v)
        ties = sum(1 for x in values if x == v)
        # mean of the 1-based ranks below+1 .. below+ties
        assert rank == below + (ties + 1) / 2
    assert sum(ranks) == len(values) * (len(values) + 1) / 2


# -- wilcoxon ----------------------------------------------------------------


def test_identical_samples_p_one():
    a = [0.4, 0.5, 0.6]
    assert wilcoxon_signed_rank(a, list(a)) == 1.0


def test_two_sided_symmetry():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(1, 15)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        assert abs(wilcoxon_signed_rank(a, b) - wilcoxon_signed_rank(b, a)) < 1e-15


def test_six_positive_distinct_differences():
    a = [10, 20, 30, 40, 50, 60]
    b = [9.5, 18, 27, 36, 45, 54]
    assert abs(wilcoxon_signed_rank(a, b) - 0.03125) < 1e-15


def test_exact_matches_sign_enumeration():
    rng = random.Random(2024)
    for n in range(1, 13):
        for _ in range(8):
            a = [round(rng.uniform(0, 10), 2) for _ in range(n)]
            b = [round(rng.uniform(0, 10), 2) for _ in range(n)]
            expected = enumerate_exact_p(a, b)
            got = wilcoxon_signed_rank(a, b)
            assert abs(got - expected) < 1e-12, (n, a, b)


def test_exact_handles_tied_ranks():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [0.0, 1.0, 2.0, 5.0]  # |diffs| = 1,1,1,1 all tied
    expected = enumerate_exact_p(a, b)
    assert abs(wilcoxon_signed_rank(a, b) - expected) < 1e-12


def test_zero_differences_dropped():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [1.0, 2.0, 3.0, 3.0, 4.0]
    expected = enumerate_exact_p(a, b)  # only two non-zero pairs remain
    assert abs(wilcoxon_signed_rank(a, b) - expected) < 1e-12


def test_large_sample_normal_approximation_reasonable():
    rng = random.Random(77)
    a = [rng.gauss(0.0, 1.0) for _ in range(60)]
    b = [x + 1.0 for x in a]  # strong one-sided shift
    p = wilcoxon_signed_rank(a, b)
    assert p < 1e-6
    c = [rng.gauss(0.0, 1.0) for _ in range(60)]
    d = [rng.gauss(0.0, 1.0) for _ in range(60)]
    assert 0.0 <= wilcoxon_signed_rank(c, d) <= 1.0


def test_length_mismatch_and_empty_error():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([], [])


# -- cliff's delta -------------------------------------------------------------


def brute_delta(a, b):
    gt = sum(1 for x in a for y in b if x > y)
    lt = sum(1 for x in a for y in b if x < y)
    return (gt - lt) / (len(a) * len(b))


def test_identical_samples_delta_zero():
    a = [1.0, 2.0, 3.0]
    delta, magnitude = cliffs_delta(a, list(a))
    assert delta == 0.0
    assert magnitude == "negligible"


def test_complete_dominance():
    delta, magnitude = cliffs_delta([10, 11, 12], [1, 2, 3])
    assert delta == 1.0
    assert magnitude == "large"
    back, _ = cliffs_delta([1, 2, 3], [10, 11, 12])
    assert back == -1.0


def test_magnitude_bands_and_boundaries():
    assert magnitude_of(0.0) == "negligible"
    assert magnitude_of(0.1469) == "negligible"
    assert magnitude_of(0.147) == "small"
    assert magnitude_of(0.2) == "small"
    assert magnitude_of(0.3299) == "small"
    assert magnitude_of(0.33) == "medium"
    assert magnitude_of(0.4739) == "medium"
    assert magnitude_of(0.474) == "large"
    assert magnitude_of(1.0) == "large"
    assert magnitude_of(-0.2) == "small"


def test_delta_matches_pair_counting_oracle():
    rng = random.Random(13)
    for _ in range(200):
        a = [rng.randrange(0, 8) for _ in range(rng.randrange(1, 15))]
        b = [rng.randrange(0, 8) for _ in range(rng.randrange(1, 15))]
        delta, _ = cliffs_delta(a, b)
        assert abs(delta - brute_delta(a, b)) < 1e-15


def test_antisymmetry():
    rng = random.Random(29)
    for _ in range(60):
        a = [rng.random() for _ in range(rng.randrange(1, 10))]
        b = [rng.random() for _ in range(rng.randrange(1, 10))]
        d_ab, _ = cliffs_delta(a, b)
        d_ba, _ = cliffs_delta(b, a)
        assert abs(d_ab + d_ba) < 1e-15


def test_monotone_transform_preserves_delta_sign():
    rng = random.Random(37)
    for _ in range(40):
        a = [rng.random() for _ in range(8)]
        b = [rng.random() for _ in range(8)]
        d, _ = cliffs_delta(a, b)
        f = lambda x: math.exp(2 * x) + 3
        d2, _ = cliffs_delta([f(x) for x in a], [f(x) for x in b])
        assert abs(d - d2) < 1e-15  # pairwise comparisons unchanged


def test_empty_sample_errors():
    with pytest.raises(ValueError):
        cliffs_delta([], [1.0])


# -- combined result -------------------------------------------------------------


def test_significance_marks():
    assert significance_mark(0.005) == "**"
    assert significance_mark(0.03) == "*"
    assert significance_mark(0.05) == "n.s."
    assert significance_mark(0.9) == "n.s."


def test_compare_paired_bundles_everything():
    a = [10, 20, 30, 40, 50, 60]
    b = [9, 18, 27, 36, 45, 54]
    result = compare_paired(a, b)
    assert isinstance(result, StatResult)
    assert abs(result.p_value - 0.03125) < 1e-15
    assert result.delta > 0
    assert result.significance_mark == "*"
