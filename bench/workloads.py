"""The three benchmark workloads and the checks on their outputs.

All three are closed loops with one client: the next operation starts when
the previous one has returned.  They share one generated table (400 rows x
2000 columns, 10 classes, generator ``random-state`` 137) and differ in the
layers they drive:

* ``screen-wide``: one in-process ``screen`` call, 1 thread.  The paper's
  target shape; about 25k small split scans, so forest training holds
  nearly all of the time.  ``data``, ``serialize`` and ``evaluate`` do no
  work.
* ``sweep-knn``: one leak-safe ``convergence_sweep`` with the k-best
  screener and kNN classifiers up to full width.  The kNN distance tensor
  dominates time and peak memory, and no forest is trained, so it is the
  workload on which forest changes must show no effect.
* ``cli-chain``: ``generate -> screen -> audit -> evaluate`` as four
  ``python -m rfscreen.cli`` processes at ``--threads 2``.  The only
  workload that writes and parses CSV, serializes JSON, pays interpreter
  start-up and runs the thread pool.

The benchmark seed is the screening ``random-state`` of screen-wide and
the fold-split seed of sweep-knn and of cli-chain's evaluate.  The table
seed stays fixed because the table sets the amount of work: across
generator seeds 1-4 one screen-wide call took 10.6-14.9 s and the
full-width kNN accuracy ranged from 0.35 to 0.68, while across screening
seeds 1-6 the screen's split-node count moved by under 2 %.

Every operation's outputs are digested with run-time fields masked, so a
run can be checked against the golden digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import rfscreen.cli as cli
import rfscreen.evaluate as evaluate
import rfscreen.rfms as rfms
import rfscreen.synth as synth
from rfscreen import (ClassifierSpec, FeatureSubset, ForestParams, Provenance, ScreenerSpec,
                      ScreeningConfig, truth_overlap)

TABLE = dict(n_classes=10, n_samples_per_class=40, n_true_features=20, n_fake_features=40,
             min_usefulness=0.3, max_usefulness=0.8, n_features_out=2000,
             min_count=1, max_count=3, seed=137)
KNN = [ClassifierSpec("knn", {"k": k}) for k in (1, 3, 5)]
WIDTHS = (10, 40, 160, 640, 2000)
SCREEN_WIDE = ScreeningConfig(
    step_size=250, reduced_size=40, n_canaries=50,
    forest=ForestParams(n_trees=60, n_subfeatures=30, min_samples_leaf=2),
)
CLI_CONFIGS = {
    # The screen keeps the library's default random-state at every benchmark
    # seed.  Under some random-states a canary survives; audit then exits 1
    # and evaluate refuses the selection, as designed, and the chain stops.
    # Under this one no canary survives.
    "screen.cfg": {"step-size": 500, "reduced-size": 40, "n-trees": 30,
                   "n-subfeatures": 30, "min-samples-leaf": 2, "n-canaries": 50,
                   "random-state": 20230125},
    "evaluate.cfg": {"folds": 5, "knn-k": "1,3,5", "rf-n-trees": 30},
}
CLI_THREADS = "2"
COMMAND_TIMEOUT_S = 150


def digest(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def mask_run_time(document):
    """Drop ``timing`` blocks and ``*_cpu_s`` fields, which differ per run."""
    if isinstance(document, dict):
        return {k: mask_run_time(v) for k, v in document.items()
                if k != "timing" and not k.endswith("_cpu_s")}
    if isinstance(document, list):
        return [mask_run_time(v) for v in document]
    return document


def python_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


class ScreenWide:
    name = "screen-wide"
    layers = ("synth", "rfms", "forest")
    idle_layers = ("data", "evaluate", "baselines", "serialize", "cli")
    # set-up in a fresh interpreter: imports and the table build
    setup_code = f"import rfscreen.synth as s; s.generate(s.GeneratorConfig(**{TABLE!r}))"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.table, self.provenance = synth.generate(synth.GeneratorConfig(**TABLE))

    def call(self):
        """One operation; returns what :meth:`check` and :meth:`quality` read."""
        return rfms.screen(self.table, replace(SCREEN_WIDE, seed=self.seed), n_threads=1)

    call_in_process = call

    def check(self, result) -> str:
        return digest({
            "selected": result.selected.indices,
            "importance": [r.importance for r in result.rounds],
            "permutation": result.permutation,
        })

    def quality(self, result) -> dict:
        """Share of the selected non-canary columns that have a true source."""
        originals = [i for i in result.selected.indices if i not in set(result.canary_ids)]
        return {"truth_overlap": truth_overlap(FeatureSubset(tuple(originals)), self.provenance)}


class SweepKnn(ScreenWide):
    name = "sweep-knn"
    layers = ("synth", "evaluate", "baselines", "data")
    idle_layers = ("forest", "rfms", "serialize", "cli")

    def call(self):
        # convergence_sweep keeps only the best cell per width; record every
        # cell's fold accuracies on the way for the digest.
        cells = []
        cross_validate = evaluate.cross_validate

        def recording(*args, **kwargs):
            cells.append(cross_validate(*args, **kwargs))
            return cells[-1]

        evaluate.cross_validate = recording
        try:
            rows = evaluate.convergence_sweep(
                self.table, ScreenerSpec("kbest"), KNN + [ClassifierSpec("majority")],
                WIDTHS, folds=5, seed=self.seed, leak_safe=True)
        finally:
            evaluate.cross_validate = cross_validate
        return rows, cells

    call_in_process = call

    def check(self, result) -> str:
        rows, cells = result
        return digest({
            "rows": [[r.n_features_out, r.best_accuracy, r.best_classifier_id] for r in rows],
            "cells": [[c.n_features_out, c.classifier_id, c.fold_accuracies] for c in cells],
        })

    def quality(self, result) -> dict:
        """Best mean fold accuracy at the widest width."""
        rows, _ = result
        return {"cv_accuracy": rows[-1].best_accuracy}


class CliChain:
    name = "cli-chain"
    layers = ("cli", "synth", "data", "rfms", "forest", "serialize", "evaluate")
    idle_layers = ("baselines",)
    # set-up in a fresh interpreter: the CLI's imports; the table is built by
    # the chain's generate command
    setup_code = "import rfscreen.cli"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.env = python_env(Path(__file__).resolve().parent.parent)
        table = {k: v for k, v in TABLE.items() if k != "seed"}
        configs = {**CLI_CONFIGS, "generate.cfg": {**table, "random-state": TABLE["seed"]}}
        for file_name, values in configs.items():
            text = "".join(f"{k.replace('_', '-')} = {v}\n" for k, v in values.items())
            (workdir / file_name).write_text(text, encoding="utf-8")
        path = {name: str(workdir / name) for name in
                ("generate.cfg", "screen.cfg", "evaluate.cfg", "data.csv", "screened.json",
                 "report")}
        threads = ["--threads", CLI_THREADS]
        self.commands = {
            "generate": ["generate", "--config", path["generate.cfg"], "--out", path["data.csv"],
                         *threads],
            "screen": ["screen", "--data", path["data.csv"], "--config", path["screen.cfg"],
                       "--out", path["screened.json"], *threads],
            # audit takes no --threads flag
            "audit": ["audit", "--result", path["screened.json"]],
            "evaluate": ["evaluate", "--data", path["data.csv"], "--result",
                         path["screened.json"], "--config", path["evaluate.cfg"],
                         "--classifier", "all", "--out", path["report"], "--seed", str(seed),
                         *threads],
        }

    def _run_commands(self, run_one) -> dict[str, float]:
        command_s = {}
        for name, argv in self.commands.items():
            start = time.perf_counter()
            code, output = run_one(argv)
            command_s[name] = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"rfscreen {name} exited {code}: {output.strip()}")
        return command_s

    def call(self) -> dict[str, float]:
        """The chain as four processes; returns each command's wall seconds."""
        def run_one(argv):
            done = subprocess.run([sys.executable, "-m", "rfscreen.cli", *argv],
                                  env=self.env, capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
            return done.returncode, done.stderr
        return self._run_commands(run_one)

    def call_in_process(self) -> dict[str, float]:
        """The chain through ``rfscreen.cli.main``, so its layers can be traced."""
        def run_one(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                return cli.main(argv), out.getvalue()
        return self._run_commands(run_one)

    def _read(self, name: str) -> dict:
        return json.loads((self.workdir / name).read_text(encoding="utf-8"))

    def check(self, result) -> str:
        return digest({"screening": mask_run_time(self._read("screened.json")),
                       "evaluation": mask_run_time(self._read("report.json"))})

    def quality(self, result) -> dict:
        """Truth overlap of the screened columns and the best evaluated accuracy."""
        provenance = Provenance.from_dict(self._read("data.provenance.json"))
        originals = [item["id"] - 1 for item in self._read("screened.json")["selected"]
                     if not item["is_canary"]]
        return {"truth_overlap": truth_overlap(FeatureSubset(tuple(originals)), provenance),
                "cv_accuracy": self._read("report.json")["best"]["mean_accuracy"]}


WORKLOADS = {w.name: w for w in (ScreenWide(), SweepKnn(), CliChain())}
