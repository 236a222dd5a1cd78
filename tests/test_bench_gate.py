"""The benchmark's correctness gate, as ``python3 bench/run.py --trace 1`` makes it.

At the golden seed, one traced in-process operation of each workload must give
the digest in ``bench/golden.json``, record a span in every layer the workload
drives, and none in a layer it must leave idle.  These tests only read ``bench/``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_traced_operation_gives_the_golden_digest_in_its_layers(name, tmp_path):
    workload = WORKLOADS[name]
    tracer = Tracer()
    with tracer:
        workload.prepare(GOLDEN["seed"], tmp_path)
    with tracer:
        result = workload.call_in_process()
    assert workload.check(result) == GOLDEN["digests"][name]
    recorded = {span.layer for span in tracer.spans}
    assert [layer for layer in workload.layers if layer not in recorded] == []
    assert [layer for layer in workload.idle_layers if layer in recorded] == []
