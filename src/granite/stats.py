"""Paired statistical comparison: Wilcoxon signed-rank test and Cliff's delta.

The Wilcoxon p-value is exact (full null distribution of the signed rank sum)
up to n = 25 non-zero differences and a continuity-corrected normal
approximation beyond; zero differences are dropped, tied absolute differences
receive average ranks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

EXACT_LIMIT = 25

# effect size bands for |delta|
NEGLIGIBLE_BELOW = 0.147
SMALL_BELOW = 0.33
MEDIUM_BELOW = 0.474


@dataclass(frozen=True)
class StatResult:
    p_value: float
    delta: float
    magnitude: str  # negligible | small | medium | large
    significance_mark: str  # n.s. | * | **


def average_ranks(values: Sequence[float]) -> List[float]:
    """1-based ranks of values; each tie group gets its mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0  # 1-based average rank of the tie group
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided signed-rank p-value for paired samples a and b."""
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    if len(a) == 0:
        raise ValueError("empty samples")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return 1.0
    ranks = average_ranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    n = len(diffs)
    if n <= EXACT_LIMIT:
        return _exact_two_sided(ranks, w_plus)
    return _approx_two_sided(ranks, w_plus, n)


def _exact_two_sided(ranks: Sequence[float], w_plus: float) -> float:
    """Tail mass of the exact null distribution of the rank sum.

    Ranks are doubled so tie-averaged half-ranks become integers; the null
    distribution is the subset-sum count over all 2^n sign assignments.
    """
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for w in range(total, r - 1, -1):
            if counts[w - r]:
                counts[w] += counts[w - r]
    w2 = int(round(2 * w_plus))
    lo = min(w2, total - w2)
    hi = max(w2, total - w2)
    mass = sum(counts[: lo + 1]) + sum(counts[hi:])
    return min(1.0, mass / float(2 ** len(ranks)))


def _approx_two_sided(ranks: Sequence[float], w_plus: float, n: int) -> float:
    """Normal approximation with continuity correction and tie adjustment."""
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # subtract the tie correction sum(t^3 - t)/48 per tie group
    seen: dict = {}
    for r in ranks:
        seen[r] = seen.get(r, 0) + 1
    var -= sum(t**3 - t for t in seen.values()) / 48.0
    if var <= 0:
        return 1.0
    shift = w_plus - mean
    correction = 0.5 if shift > 0 else (-0.5 if shift < 0 else 0.0)
    z = (shift - correction) / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def magnitude_of(delta: float) -> str:
    d = abs(delta)
    if d < NEGLIGIBLE_BELOW:
        return "negligible"
    if d < SMALL_BELOW:
        return "small"
    if d < MEDIUM_BELOW:
        return "medium"
    return "large"


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> Tuple[float, str]:
    """(dominance delta in [-1, 1], magnitude band)."""
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    sorted_b = sorted(b)
    m = len(sorted_b)
    greater = less = 0
    for x in a:
        greater += bisect_left(sorted_b, x)  # b values strictly below x
        less += m - bisect_right(sorted_b, x)  # b values strictly above x
    delta = (greater - less) / (len(a) * m)
    return delta, magnitude_of(delta)


def significance_mark(p: float) -> str:
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return "n.s."


def compare_paired(a: Sequence[float], b: Sequence[float]) -> StatResult:
    """Full comparison of paired metric samples: p-value, delta, bands, mark."""
    p = wilcoxon_signed_rank(a, b)
    delta, magnitude = cliffs_delta(a, b)
    return StatResult(p_value=p, delta=delta, magnitude=magnitude, significance_mark=significance_mark(p))
