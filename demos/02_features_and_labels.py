"""From source text to a labeled dataset.

Walks the feature side of the pipeline on in-memory source: module extraction,
product metrics, the median labeling rule, normalization, and undersampling.
No repository needed.

    python demos/02_features_and_labels.py
"""

import numpy as np

from granite import (
    CLASS_METRIC_NAMES,
    METHOD_METRIC_NAMES,
    PROCESS_METRIC_NAMES,
    FileSnapshot,
    assemble,
    class_hierarchy,
    class_product_metrics,
    extract_modules,
    label_change_prone,
    method_product_metrics,
    min_max_normalize,
    random_under_sample,
)

SOURCE = """\
public class Cart {
    private int total;
    private java.util.List<String> items = new java.util.ArrayList<>();

    public void add(String item, int price) {
        if (price > 0) {
            items.add(item);
            total += price;
        }
    }

    public int checkout(int discount) {
        int due = total - discount;
        if (due < 0) { due = 0; }
        return due;
    }

    public int size() {
        return items.size();
    }
}
"""

snapshot = FileSnapshot(path="src/Cart.java", lines=tuple(SOURCE.split("\n")), commit="0" * 40)
modules = extract_modules(snapshot)
print(f"extracted {len(modules)} modules:")
for m in modules:
    print(f"  {m.id}  span={m.span}")

# product metrics at both granularities
classes = [m for m in modules if m.id.kind == "class"]
methods = [m for m in modules if m.id.kind == "method"]
vec = class_product_metrics(classes[0], class_hierarchy(modules))
print("\nclass metrics:")
for name, value in zip(CLASS_METRIC_NAMES, vec):
    print(f"  {name:22s} {value:g}")

print("\nmethod cyclomatic complexities:")
for m in methods:
    mv = method_product_metrics(m)
    print(f"  {m.id.method_name:10s} {mv[METHOD_METRIC_NAMES.index('cyclomatic')]:g}")

# the dependent variable: changed strictly more often than the median module
counts = {methods[0].id: 3, methods[1].id: 1, methods[2].id: 0}
labels = label_change_prone(counts)
print("\nchange counts", {m.method_name: c for m, c in counts.items()})
print("labels       ", {m.method_name: v for m, v in labels.items()})

# assemble a toy dataset (zero process block for brevity) and preprocess it
product = {m.id: method_product_metrics(m) for m in methods}
process = {m.id: np.zeros(len(PROCESS_METRIC_NAMES)) for m in methods}
locs = {m.id: m.span[1] - m.span[0] + 1 for m in methods}
ds = assemble(product, process, labels, locs, "demo", "method")
print(f"\ndataset: {len(ds)} rows x {ds.X.shape[1]} features")

normalized = min_max_normalize(ds)
print(f"after min-max: values within [{normalized.X.min():g}, {normalized.X.max():g}]")

balanced = random_under_sample(ds, seed=7)
print(f"after undersampling: {int((balanced.y == 1).sum())} positive / {int((balanced.y == 0).sum())} negative")
