"""Minimal line-level diff sizes: churn, added/deleted splits, rename similarity.

Churn between two line sequences is the size of a minimal edit script
(added + deleted lines), i.e. len(a) + len(b) - 2 * LCS(a, b).  This makes
churn a proper metric on line sequences: symmetric, zero on identical input,
and satisfying the triangle inequality.
"""

from __future__ import annotations

from typing import Sequence, Tuple


def common_affixes(a: Sequence[str], b: Sequence[str]) -> Tuple[int, int]:
    """(lo, hi): the lengths of the longest common prefix and of the longest common suffix of what it leaves."""
    n, m = len(a), len(b)
    lo = 0
    while lo < n and lo < m and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and hi < m - lo and a[n - 1 - hi] == b[m - 1 - hi]:
        hi += 1
    return lo, hi


def _edit_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Length of the shortest edit script (Myers' greedy O(ND) algorithm)."""
    n, m = len(a), len(b)
    if n == 0:  # _churn_reduced passes two empty sequences or two non-empty ones
        return m
    max_d = n + m
    # v[k + max_d] = furthest x on diagonal k
    v = [0] * (2 * max_d + 1)
    for d in range(max_d + 1):
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[k - 1 + max_d] < v[k + 1 + max_d]):
                x = v[k + 1 + max_d]
            else:
                x = v[k - 1 + max_d] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k + max_d] = x
            if x >= n and y >= m:
                return d
    return max_d  # unreachable


def _churn_reduced(a: Sequence[str], b: Sequence[str]) -> int:
    """Minimal edit-script size after cheap, LCS-preserving reductions."""
    lo, hi = common_affixes(a, b)
    mid_a, mid_b = a[lo:len(a) - hi], b[lo:len(b) - hi]
    if not mid_a:
        return len(mid_b)
    if not mid_b:
        return len(mid_a)
    # Lines occurring on only one side can never match; dropping them keeps
    # the LCS intact and each dropped line costs exactly one edit.
    set_a, set_b = set(mid_a), set(mid_b)
    shared = set_a & set_b
    interned = {line: i for i, line in enumerate(shared)}
    fa = [interned[x] for x in mid_a if x in shared]
    fb = [interned[x] for x in mid_b if x in shared]
    dropped = (len(mid_a) - len(fa)) + (len(mid_b) - len(fb))
    return dropped + _edit_distance(fa, fb)


def line_churn(a: Sequence[str], b: Sequence[str]) -> int:
    """Added plus deleted lines of a minimal line diff between a and b."""
    return _churn_reduced(a, b)


def diff_sizes(a: Sequence[str], b: Sequence[str]) -> Tuple[int, int]:
    """(added, deleted) line counts of a minimal diff from a to b."""
    churn = _churn_reduced(a, b)
    lcs = (len(a) + len(b) - churn) // 2
    return len(b) - lcs, len(a) - lcs


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    return (len(a) + len(b) - _churn_reduced(a, b)) // 2


def similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Line-based LCS ratio 2*LCS / (len(a) + len(b)); 1.0 for two empty texts."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * lcs_length(a, b) / total
