"""Self-tests of the benchmark's own machinery.

Run from the repository root with ``python -m pytest bench``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
from spans import Span, Tracer, layer_metrics, round_times, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(0, None, "rfms.screen", 0.0, 10.0),
        Span(1, 0, "forest.train_forest", 1.0, 3.0),
        Span(2, 0, "forest.selection_frequency", 2.0, 5.0),  # overlaps span 1
        Span(3, 0, "forest.train_forest", 6.0, 8.0),
        Span(4, 3, "data.load_csv", 6.5, 7.0),  # a grandchild of span 0
    ]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.5, 4: 0.5})
    assert round_times(spans) == pytest.approx([5.0, 4.0])
    metrics = layer_metrics(spans, [])
    assert metrics["rfms.self_s"] == pytest.approx(4.0)
    assert metrics["forest.train_s"] == pytest.approx(4.0)
    assert metrics["forest.train_calls"] == 2
    assert metrics["rfms.round_s_max"] == pytest.approx(5.0)


@pytest.mark.parametrize("expected, failed", [("digest:out", 0), ("wrong", 1)])
def test_golden_digest_mismatch_is_a_failed_operation(expected, failed):
    m = run.measure(lambda: "out", lambda result: f"digest:{result}", 0, expected)
    assert (m.attempted, m.failed, len(m.wall_s)) == (1, failed, 1 - failed)


def test_raising_operation_is_a_failed_operation():
    def broken():
        raise RuntimeError("boom")
    m = run.measure(broken, str, 0, None)
    assert (m.attempted, m.failed, m.wall_s) == (1, 1, [])


def test_tracer_records_calls_made_through_imported_names():
    import rfscreen.rfms as rfms
    from rfscreen import Dataset, ForestParams, ScreeningConfig

    rng = np.random.default_rng(0)
    labels = np.repeat([1, 2], 20)
    features = rng.normal(size=(40, 12))
    features[:, 3] += labels
    table = Dataset(features=features, labels=labels,
                    feature_names=tuple(f"f{i}" for i in range(12)))
    config = ScreeningConfig(step_size=6, reduced_size=3,
                             forest=ForestParams(n_trees=3, n_subfeatures=3))
    train_forest = rfms.train_forest
    with Tracer() as tracer:
        result = rfms.screen(table, config)
    assert rfms.train_forest is train_forest

    screen_span = tracer.spans[0]
    trains = [s for s in tracer.spans if s.name == "forest.train_forest"]
    assert screen_span.name == "rfms.screen"
    assert len(trains) == len(result.rounds) == 2
    assert all(s.parent == screen_span.id for s in trains)
    metrics = layer_metrics(tracer.spans, tracer.models)
    internal = sum(sum(r.importance) for r in result.rounds)
    assert metrics["forest.trees"] == 6
    assert metrics["forest.nodes"] == 6 + 2 * internal
    assert metrics["rfms.rounds"] == 2
