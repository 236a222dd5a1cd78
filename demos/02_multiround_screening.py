"""Walk a wide table in chunks and distill the best features round by round.

Each round trains a forest on the current chunk plus the carry from the
previous round, ranks features by how many split nodes use them, and
carries the winners forward.  Canary noise columns are mixed in before
screening; a canary surviving to the output would mean the screen is
promoting noise.
"""

from rfscreen import (ForestParams, GeneratorConfig, ScreeningConfig, generate, screen,
                      truth_overlap)

dataset, provenance = generate(GeneratorConfig(
    n_classes=10, n_samples_per_class=12,
    n_true_features=12, n_fake_features=12,
    min_usefulness=0.6, max_usefulness=1.0,
    n_features_out=150, min_count=1, max_count=2,
    blending_mode="logarithmic", seed=42,
))

config = ScreeningConfig(
    step_size=60,
    reduced_size=12,
    forest=ForestParams(n_trees=60, n_subfeatures=25, min_samples_leaf=6,
                        min_purity_increase=0.0, partial_sampling=0.7, seed=0),
    n_canaries=30,
    seed=7,
)

result = screen(dataset, config)
print(f"screened {result.n_features_augmented} features "
      f"({config.n_canaries} of them canaries) in {len(result.rounds)} rounds, "
      f"cpu {result.cpu_time_s:.1f}s")

print("\nround  chunk  carry  pool  top importance counts")
for record in result.rounds:
    importance = dict(zip(record.pool_ids, record.importance))
    top = [importance[i] for i in record.selected_ids[:5]]
    print(f"{record.round_index:>5}  {len(record.chunk_ids):>5}  "
          f"{len(record.carried_ids):>5}  {record.pool_size:>4}  {top}")

print("\nselected (descending importance):")
print(" ", ", ".join(result.selected_names()))

print(f"\ncanary audit: {result.leak_count} of {len(result.canary_ids)} canaries leaked"
      + (f" -> {result.leaked_ids}" if result.leak_count else " (clean)"))

overlap = truth_overlap(result.selected, provenance)
print(f"fraction of selected features with an informative source: {overlap:.2f}")
