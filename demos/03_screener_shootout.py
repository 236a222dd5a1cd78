"""Compare screeners head to head: screen once, then cross-validate.

Every screener is fitted once on the whole table at the same width; a kNN
classifier is then scored with 5-fold cross-validation over that fit.  The random
subset is the control: any screener worth running must clear it.
"""

import time

from rfscreen import (ClassifierSpec, ForestParams, GeneratorConfig, ScreenerSpec,
                      ScreeningConfig, cross_validate, fit_screener, generate,
                      screen_once_report)

dataset, _ = generate(GeneratorConfig(
    n_classes=10, n_samples_per_class=12,
    n_true_features=12, n_fake_features=12,
    min_usefulness=0.6, max_usefulness=1.0,
    n_features_out=150, min_count=1, max_count=2,
    blending_mode="logarithmic", seed=42,
))

WIDTH = 12
screeners = [
    ScreenerSpec("rfms", config=ScreeningConfig(
        step_size=60, reduced_size=WIDTH,
        forest=ForestParams(n_trees=60, n_subfeatures=25, min_samples_leaf=6), seed=7)),
    ScreenerSpec("kbest", {"n_out": WIDTH}),
    ScreenerSpec("pca", {"n_out": WIDTH}),
    ScreenerSpec("random", {"n_out": WIDTH, "seed": 7}),
]
knn = ClassifierSpec("knn", {"k": 3})

print(f"reducing {dataset.n_features} features to {WIDTH}, then 5-fold kNN\n")
print(f"{'screener':<10} {'accuracy':>9} {'screen cpu':>11}")
for spec in screeners:
    started = time.process_time()
    fitted = fit_screener(spec, dataset)
    screening_cpu = time.process_time() - started
    entry = screen_once_report(dataset, fitted, spec.label(), screening_cpu, [knn],
                               folds=5, seed=1).best
    tag = "transforms" if fitted.transforming else "subset"
    print(f"{spec.name:<10} {entry.mean_accuracy:>9.3f} {screening_cpu:>10.2f}s  ({tag})")

baseline = cross_validate(dataset, ScreenerSpec("identity"), knn, folds=5, seed=1)
print(f"{'none':<10} {baseline.mean_accuracy:>9.3f} {0.0:>10.2f}s  (all "
      f"{dataset.n_features} features)")
