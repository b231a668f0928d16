"""Labeled feature tables per release pair and granularity.

A dataset is a fixed-order feature matrix (product block, then process block)
with binary change-prone labels and per-module LOC carried along for the
effort-aware evaluation.  CSVs are written losslessly: every module id
parses back with parse_module_id and every feature value with float.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from granite.javaparse import ModuleId
from granite.metrics import CLASS_METRIC_NAMES, METHOD_METRIC_NAMES, PROCESS_METRIC_NAMES

if TYPE_CHECKING:  # the functions that use numpy import it, so `granite mine` and `granite eval` never load it
    import numpy as np


@dataclass(frozen=True)
class LabeledDataset:
    release: str  # release pair label, e.g. "1.0..1.1"
    granularity: str  # "class" | "method"
    feature_names: Tuple[str, ...]
    modules: Tuple[ModuleId, ...]
    X: np.ndarray  # (n_rows, n_features) float64
    y: np.ndarray  # (n_rows,) int8
    loc: np.ndarray  # (n_rows,) int64

    def __len__(self) -> int:
        return len(self.modules)

    def subset(self, indices: Sequence[int]) -> "LabeledDataset":
        import numpy as np
        idx = np.asarray(indices, dtype=np.int64)
        return replace(
            self,
            modules=tuple(self.modules[i] for i in idx),
            X=self.X[idx],
            y=self.y[idx],
            loc=self.loc[idx],
        )


def feature_names_for(granularity: str) -> Tuple[str, ...]:
    if granularity == "class":
        product = CLASS_METRIC_NAMES
    elif granularity == "method":
        product = METHOD_METRIC_NAMES
    else:
        raise ValueError(f"unknown granularity: {granularity!r}")
    return tuple(f"product_{n}" for n in product) + tuple(f"process_{n}" for n in PROCESS_METRIC_NAMES)


def label_change_prone(change_counts: Mapping[ModuleId, int]) -> Dict[ModuleId, int]:
    """1 for modules changed strictly more often than the median module.

    With a median of zeroed histories, any module changed even once is labeled
    change-prone; an even-sized count list uses the mean of the two middle values.
    """
    if not change_counts:
        raise ValueError("no change counts to label")
    median = statistics.median(change_counts.values())
    return {m: int(c > median) for m, c in change_counts.items()}


def assemble(
    product: Mapping[ModuleId, np.ndarray],
    process: Mapping[ModuleId, np.ndarray],
    labels: Mapping[ModuleId, int],
    locs: Mapping[ModuleId, int],
    release: str,
    granularity: str,
) -> LabeledDataset:
    """One row per module, product block then process block, sorted by module id."""
    import numpy as np
    keys = set(product)
    for name, mapping in (("process", process), ("labels", labels), ("locs", locs)):
        missing = keys ^ set(mapping)
        if missing:
            listed = ", ".join(str(m) for m in sorted(missing)[:5])
            raise ValueError(f"module set mismatch in {name}: {listed}")
    modules = tuple(sorted(keys))
    names = feature_names_for(granularity)
    X = np.zeros((len(modules), len(names)), dtype=np.float64)
    y = np.zeros(len(modules), dtype=np.int8)
    loc = np.zeros(len(modules), dtype=np.int64)
    for i, m in enumerate(modules):
        X[i] = np.concatenate([product[m], process[m]])
        y[i] = labels[m]
        loc[i] = locs[m]
    return LabeledDataset(release, granularity, names, modules, X, y, loc)


def fit_min_max(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return X.min(axis=0), X.max(axis=0)


def apply_min_max(X: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    import numpy as np
    span = maxs - mins
    safe = np.where(span == 0, 1.0, span)
    out = (X - mins) / safe
    out[:, span == 0] = 0.0  # constant features map to 0
    return out


def min_max_normalize(ds: LabeledDataset) -> LabeledDataset:
    """Scale each feature to [0, 1]; constant features map to 0."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    mins, maxs = fit_min_max(ds.X)
    return replace(ds, X=apply_min_max(ds.X, mins, maxs))


def random_under_sample(ds: LabeledDataset, seed: int) -> LabeledDataset:
    """Drop majority rows uniformly at random until both labels are equal: numpy's `default_rng(seed)` choice."""
    keep = under_sampled_rows([ds.y], [seed])[0]
    return ds if len(keep) == len(ds) else ds.subset(keep)


def under_sampled_rows(labels: Sequence[np.ndarray], seeds: Sequence[int]) -> List[np.ndarray]:
    """The rows random_under_sample keeps of each label vector, in order, drawn with its seed.

    All vectors draw in one bounded call on one batch of streams; the choices
    are then made for all vectors of one (majority, minority) size at once.
    """
    import numpy as np
    from granite.streams import Streams, choice_ranges, choose
    sides = []
    for y in labels:
        pos, neg = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
        if len(pos) == 0 or len(neg) == 0:
            raise ValueError("both labels must be present to resample")
        sides.append((pos, neg) if len(pos) > len(neg) else (neg, pos))
    ranges = [choice_ranges(len(major), len(minor)) if len(major) > len(minor) else [] for major, minor in sides]
    width = max(len(r) for r in ranges)
    draws = Streams([(seed,) for seed in seeds]).bounded([r + [0] * (width - len(r)) for r in ranges])
    by_size: Dict[Tuple[int, int], List[int]] = {}
    for i, (major, minor) in enumerate(sides):
        by_size.setdefault((len(major), len(minor)), []).append(i)
    kept: List[np.ndarray] = [np.arange(len(y)) for y in labels]
    for (m, k), group in by_size.items():
        if m > k:
            chosen = choose(m, k, draws[group, :len(ranges[group[0]])])
            for i, row in zip(group, chosen):
                kept[i] = np.sort(np.concatenate([sides[i][0][row], sides[i][1]]))
    return kept


# ---------------------------------------------------------------------------
# CSV serialization


def write_csv(ds: LabeledDataset, fp) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["module_id", "loc", *ds.feature_names, "label"])
    for i, m in enumerate(ds.modules):
        writer.writerow(
            [str(m), int(ds.loc[i]), *[repr(float(v)) for v in ds.X[i]], int(ds.y[i])]
        )

