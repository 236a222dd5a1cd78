"""Benchmark of rfscreen: end-to-end metrics per workload, per-layer metrics from a trace.

Run from the repository root:

    python3 bench/run.py --workload screen-wide --seed 137 --seconds 28 --trace 0

``--workload`` is ``screen-wide``, ``sweep-knn`` or ``cli-chain`` (see
``workloads.py``).  ``--trace 0`` repeats the workload's operation, one at a
time, until ``--seconds`` have passed and reports the end-to-end metrics
named in ``BENCHMARK.json``: medians over the operations of wall and CPU
seconds, peak RSS, and the median of several fresh-process set-ups.  It
also prints the quality of the output (``truth_overlap``, ``cv_accuracy``);
the golden digests pin it, so it is not gated.  ``--trace 1`` runs the
operation once untraced and once with a span around every public rfscreen
function (``spans.py``) and reports the per-layer metrics.

Each operation's outputs are digested; at the default seed the digest must
match ``golden.json``, at any other seed it must repeat within the run.  A
mismatch, an exception or a non-zero exit counts as a failed operation.
The last line of standard output is the result as one JSON object; the line
before it carries the digests and the environment, and the whole record is
saved under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_SEED = 137
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 60


@dataclass
class Measured:
    """Operations of one measurement loop."""

    attempted: int = 0
    failed: int = 0
    wall_s: list = field(default_factory=list)
    cpu_s: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    first: object = None  # result of the first successful operation


@dataclass
class Report:
    attempted: int
    failed: int
    correct: bool
    metrics: dict
    samples: dict
    digests: list
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def measure(call, check, seconds: float, expected: str | None) -> Measured:
    """Run ``call`` until ``seconds`` have passed, at least once.

    ``check`` digests a result outside the timed span.  An operation fails
    when it raises or its digest differs from ``expected`` (or, without a
    golden digest, from the run's first digest).
    """
    m = Measured()
    start = time.perf_counter()
    while m.attempted == 0 or time.perf_counter() - start < seconds:
        m.attempted += 1
        wall, cpu = time.perf_counter(), cpu_seconds()
        try:
            result = call()
            wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
            digest = check(result)
        except Exception:  # noqa: BLE001 - a failing operation is counted, not fatal
            m.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        m.digests.append(digest)
        reference = expected or m.digests[0]
        if digest != reference:
            m.failed += 1
            print(f"digest mismatch: got {digest}, expected {reference}", file=sys.stderr)
            continue
        m.wall_s.append(wall)
        m.cpu_s.append(cpu)
        if m.first is None:
            m.first = result
    return m


def fresh_process_seconds(code: str, repeats: int) -> list[float]:
    """Wall seconds of ``python -c code`` in a new interpreter, ``repeats`` times."""
    from workloads import python_env
    env = python_env(ROOT)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=SUBPROCESS_TIMEOUT_S, capture_output=True)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def end_to_end(workload, seed: int, workdir: Path, seconds: float,
               expected: str | None) -> Report:
    setups = fresh_process_seconds(workload.setup_code, SETUP_REPEATS)
    workload.prepare(seed, workdir)
    m = measure(workload.call, workload.check, seconds, expected)
    quality = workload.quality(m.first) if m.first is not None else {}
    metrics = {
        "wall_s": statistics.median(m.wall_s) if m.wall_s else 0.0,
        "cpu_s": statistics.median(m.cpu_s) if m.cpu_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }
    samples = {"wall_s": m.wall_s, "cpu_s": m.cpu_s, "setup_s": setups}
    return Report(m.attempted, m.failed, m.failed == 0, metrics, samples, m.digests, quality)


def traced(workload, seed: int, workdir: Path, expected: str | None) -> Report:
    from spans import Tracer, layer_metrics
    from workloads import CliChain

    tracer = Tracer()
    with tracer:
        workload.prepare(seed, workdir)
    runs = [measure(workload.call_in_process, workload.check, 0, expected)]
    command_s, startup = {}, 0.0
    if isinstance(workload, CliChain):
        runs.append(measure(workload.call, workload.check, 0, expected))
        command_s = runs[-1].first or {}
        startup = statistics.median(fresh_process_seconds(workload.setup_code, SETUP_REPEATS))
    with tracer:
        runs.append(measure(workload.call_in_process, workload.check, 0, expected))
    metrics = layer_metrics(tracer.spans, tracer.models)
    untraced_s, traced_s = runs[0].wall_s, runs[-1].wall_s
    metrics["trace.overhead_s"] = (traced_s[0] - untraced_s[0]
                                   if untraced_s and traced_s else 0.0)
    for name in ("generate", "screen", "audit", "evaluate"):
        metrics[f"cli.{name}_s"] = command_s.get(name, 0.0)
    metrics["cli.startup_s"] = startup

    recorded = {s.layer for s in tracer.spans}
    problems = [f"layer {layer} recorded no span"
                for layer in workload.layers if layer not in recorded]
    problems += [f"layer {layer} recorded spans but should do no work"
                 for layer in workload.idle_layers if layer in recorded]
    for problem in problems:
        print(f"trace self-check failed: {problem}", file=sys.stderr)
    (OUT / f"spans_{workload.name}_seed{seed}.json").write_text(
        json.dumps([vars(s) for s in tracer.spans]), encoding="utf-8")

    failed = sum(r.failed for r in runs)
    return Report(
        attempted=sum(r.attempted for r in runs), failed=failed,
        correct=failed == 0 and not problems, metrics=metrics,
        samples={"untraced_wall_s": untraced_s, "traced_wall_s": traced_s},
        digests=[d for r in runs for d in r.digests], problems=problems)


def environment() -> dict:
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "commit": git_commit(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rfscreen" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: run from a checkout of the repository; {ROOT / 'src' / 'rfscreen'} "
              f"or {spec_file} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    expected = golden["digests"].get(args.workload) if args.seed == golden["seed"] else None

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            report = traced(workload, args.seed, workdir, expected)
        else:
            report = end_to_end(workload, args.seed, workdir, args.seconds, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(report.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(report.metrics)} do not match BENCHMARK.json "
                           f"{sorted(units)}")
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "golden_digest": expected, "digests": sorted(set(report.digests)),
        "quality": report.quality, "self_check_problems": report.problems,
        "samples": report.samples, "environment": environment(),
    }
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=2) + "\n", encoding="utf-8")
    for name in units:
        n = len(report.samples.get(name, [])) or 1
        print(f"{args.workload} {name} = {report.metrics[name]:.6g} {units[name]} (n={n})")
    for name, value in report.quality.items():
        print(f"{args.workload} {name} = {value:.4f} (share; not gated)")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
