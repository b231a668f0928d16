"""Effort-aware evaluation and cross-granularity statistics.

Shows the probability-based ranking, the top-k LOC cutoff, release- and
commit-based change ratios, and the Wilcoxon + Cliff's delta comparison used
to contrast class-level against method-level results.

    python demos/04_effort_and_stats.py
"""

import numpy as np

from granite.evaluation import ChangeSizes, rank_by_score, top_k_change_ratio, top_k_cutoff
from granite.javaparse import ModuleId
from granite.stats import compare_paired


def mid(name):
    return ModuleId("method", "src/Demo.java", "Demo", name, ())


# module -> score, as cross-validation's predictions map them
scores = {mid("hot"): 0.95, mid("warm"): 0.70, mid("tepid"): 0.40, mid("cold"): 0.10}
locs = {mid("hot"): 40, mid("warm"): 60, mid("tepid"): 120, mid("cold"): 300}
sizes = {
    mid("hot"): ChangeSizes(mid("hot"), 30, 44),
    mid("warm"): ChangeSizes(mid("warm"), 12, 12),
    mid("tepid"): ChangeSizes(mid("tepid"), 4, 6),
    mid("cold"): ChangeSizes(mid("cold"), 0, 0),
}

ranking = rank_by_score(scores, locs)
print("ranking (descending score):", [r.module.method_name for r in ranking])

# with k lines of maintenance budget, only the top-l modules fit
for k in (50, 120, 600):
    cutoff = top_k_cutoff(ranking, k)
    rel = top_k_change_ratio(ranking, k, sizes, "release")
    com = top_k_change_ratio(ranking, k, sizes, "commit")
    rel_s = "null" if rel is None else f"{rel:.3f}"
    com_s = "null" if com is None else f"{com:.3f}"
    print(f"k={k:4d}  cutoff={cutoff}  release-ratio={rel_s}  commit-ratio={com_s}")

# paired comparison across release pairs: does one granularity dominate?
rng = np.random.default_rng(3)
class_f1 = rng.uniform(0.45, 0.75, size=20)
method_f1 = class_f1 - rng.uniform(0.05, 0.25, size=20)  # consistently lower
result = compare_paired(list(class_f1), list(method_f1))
print("\nclass vs method F1 across 20 release pairs")
print(f"  p-value   {result.p_value:.2e} {result.significance_mark}")
print(f"  delta     {result.delta:+.2f} ({result.magnitude})")

even = rng.uniform(0.4, 0.6, size=20)
noisy = even + rng.normal(0, 0.005, size=20)
result = compare_paired(list(even), list(noisy))
print("\nindistinguishable samples for contrast")
print(f"  p-value   {result.p_value:.2f} {result.significance_mark}")
print(f"  delta     {result.delta:+.2f} ({result.magnitude})")
