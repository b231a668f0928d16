"""Training and validating the change-proneness classifier.

Builds a separable synthetic dataset, trains the seeded random forest, and
shows vote-fraction scores plus stratified out-of-fold cross-validation.

    python demos/03_forest_and_crossval.py
"""

import numpy as np

from granite.dataset import LabeledDataset
from granite.forest import ForestParams, cross_validate, predict_proba, train_random_forest
from granite.javaparse import ModuleId


def synthetic(n=300, m=8, shift=1.8, seed=5):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([rng.normal(0, 1, (half, m)), rng.normal(shift, 1, (n - half, m))])
    y = np.array([0] * half + [1] * (n - half), dtype=np.int8)
    modules = tuple(ModuleId("method", f"src/F{i}.java", f"C{i}", f"m{i}", ()) for i in range(n))
    return LabeledDataset("demo", "method", tuple(f"f{j}" for j in range(m)),
                          modules, X, y, np.full(n, 12, dtype=np.int64))


ds = synthetic()
print(f"dataset: {len(ds)} rows, {int(ds.y.sum())} change-prone")

model = train_random_forest(ds, ForestParams(n_trees=50, seed=1))
print(f"forest: {len(model.trees)} trees over {len(model.feature_names)} features")

# scores are vote fractions in [0, 1]; same seed means identical forests
print("score of a clearly negative row:", predict_proba(model, ds.X[0]))
print("score of a clearly positive row:", predict_proba(model, ds.X[-1]))
again = train_random_forest(ds, ForestParams(n_trees=50, seed=1))
assert predict_proba(again, ds.X[0]) == predict_proba(model, ds.X[0])
print("retraining with the same seed reproduces the scores exactly")

# stratified 10-fold: every row scored once, by a model that never saw it;
# min-max scaling and undersampling are fit inside each training fold
result = cross_validate(ds, folds=10, params=ForestParams(n_trees=50, seed=1))
pooled = result.pooled_scores()
print("\nout-of-fold results")
print(f"  precision {pooled.precision:.3f}")
print(f"  recall    {pooled.recall:.3f}")
print(f"  f1        {pooled.f1:.3f}")
print(f"  accuracy  {pooled.accuracy:.3f}")
print(f"  auc       {pooled.auc:.3f}")
correct = (result.out_of_fold_scores >= 0.5) == (ds.y == 1)
per_fold = [f"{correct[result.fold_assignment == f.fold].mean():.2f}" for f in result.folds if not f.skipped]
print("  per-fold accuracy:", " ".join(per_fold))
