"""How quickly does accuracy converge as the screened set grows?

The sweep reruns a screener at several output widths and reports the best
cross-validated accuracy per width.  The multiround screen typically holds
its accuracy down to small widths, while univariate filtering degrades
faster once the width stops covering the informative sources.
"""

from rfscreen import (ClassifierSpec, ForestParams, GeneratorConfig, ScreenerSpec,
                      ScreeningConfig, convergence_sweep, generate)

dataset, _ = generate(GeneratorConfig(
    n_classes=10, n_samples_per_class=12,
    n_true_features=12, n_fake_features=12,
    min_usefulness=0.6, max_usefulness=1.0,
    n_features_out=150, min_count=1, max_count=2,
    blending_mode="logarithmic", seed=42,
))

counts = [4, 8, 16, 32]
grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3, 5)]

# the sweep replaces reduced_size with each count in turn
multiround = ScreenerSpec("rfms", config=ScreeningConfig(
    step_size=60, reduced_size=max(counts),
    forest=ForestParams(n_trees=60, n_subfeatures=25, min_samples_leaf=6), seed=7))

print("best 5-fold kNN accuracy by screened width\n")
print(f"{'width':>5} {'multiround':>11} {'kbest':>8}")
rfms_rows = convergence_sweep(dataset, multiround, grid, counts, folds=5, seed=1)
kbest_rows = convergence_sweep(dataset, ScreenerSpec("kbest"), grid, counts,
                               folds=5, seed=1)
for a, b in zip(rfms_rows, kbest_rows):
    print(f"{a.n_features_out:>5} {a.best_accuracy:>11.3f} {b.best_accuracy:>8.3f}")
