"""Batch command-line frontend.

Commands: ``generate``, ``screen``, ``evaluate``, ``sweep``, ``audit``.
Configuration files are flat ``key = value`` text with ``#`` comments; the
keys use the same hyphenated names the tool's reports use (``step-size``,
``reduced-size``, ``n-trees``, ...), so tabulated settings paste straight
into a config.  Unknown keys are rejected and every numeric range is
checked before any work starts.

Exit codes: 0 success, 2 validation error, 1 runtime failure.  ``audit``
additionally exits 1 when the screened set contains canary features.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import Counter
from pathlib import Path

from .data import CsvFormatError, Dataset, load_csv, write_csv
from .evaluate import (ClassifierSpec, FittedScreener, ScreenerSpec, convergence_sweep,
                       fit_screener, grid_search, screen_once_report)
from .forest import ForestParams
from .rfms import ScreeningConfig, augment_with_canaries, screen
from .serialize import (SCHEMA_VERSION, envelope, pca_document, pca_model_from_document,
                        read_json, records_csv, report_document, screening_document,
                        sweep_document, write_json)
from .synth import GeneratorConfig, generate


class ValidationError(Exception):
    """User input problem detected before any work starts."""


def _positive(v):
    return v >= 1


def _nonnegative(v):
    return v >= 0


def _fraction(v):
    return 0.0 < v <= 1.0


def _int_list(raw: str):
    return [int(part.strip()) for part in raw.split(",") if part.strip()]


# key -> (converter, range check or None, default or _REQUIRED)
_REQUIRED = object()

_GENERATE_KEYS = {
    "n-classes": (int, lambda v: v >= 2, 10),
    "n-samples-per-class": (int, _positive, 16),
    "n-true-features": (int, _nonnegative, 20),
    "n-fake-features": (int, _nonnegative, 20),
    "min-usefulness": (float, _fraction, 0.5),
    "max-usefulness": (float, _fraction, 1.0),
    "location-sharing-extent": (int, _nonnegative, 0),
    "n-features-out": (int, _positive, 200),
    "blending-mode": (str, lambda v: v in ("linear", "logarithmic"), "logarithmic"),
    "min-count": (int, _positive, 2),
    "max-count": (int, _positive, 4),
    "random-state": (int, None, 137),
}

_SCREEN_KEYS = {
    "step-size": (int, _positive, None),
    "reduced-size": (int, _positive, _REQUIRED),
    "n-trees": (int, _positive, 100),
    "n-subfeatures": (int, _nonnegative, 0),  # 0 = auto
    "min-samples-leaf": (int, _positive, 1),
    "min-purity-increase": (float, lambda v: v >= 0.0, 0.0),
    "partial-sampling": (float, _fraction, 0.7),
    "random-state": (int, None, 20230125),
    "n-canaries": (int, _nonnegative, 0),
}

_EVAL_KEYS = {
    "folds": (int, lambda v: v >= 2, 5),
    "random-state": (int, None, 20230125),
    "knn-k": (_int_list, lambda vs: vs and all(v >= 1 for v in vs), [1, 3, 5]),
    "rf-n-trees": (int, _positive, 50),
    "rf-n-subfeatures": (int, _nonnegative, 0),
    "rf-min-samples-leaf": (int, _positive, 1),
    "rf-min-purity-increase": (float, lambda v: v >= 0.0, 0.0),
    "rf-partial-sampling": (float, _fraction, 0.7),
}

_SWEEP_KEYS = {**_SCREEN_KEYS, **_EVAL_KEYS,
               # the sweep's feature-counts replace reduced-size
               "reduced-size": (int, _positive, None),
               "feature-counts": (_int_list, lambda vs: vs and all(v >= 1 for v in vs),
                                  _REQUIRED)}


def _parse_config_file(path) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        if key in raw:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _resolve_config(raw: dict[str, str], schema: dict, context: str) -> dict:
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ValidationError(f"unknown {context} config key(s): {', '.join(unknown)}")
    resolved = {}
    for key, (convert, check, default) in schema.items():
        if key in raw:
            try:
                value = convert(raw[key])
            except ValueError:
                raise ValidationError(f"config key {key!r}: cannot parse {raw[key]!r}") from None
        elif default is _REQUIRED:
            raise ValidationError(f"config key {key!r} is required for {context}")
        else:
            value = default
        if value is not None and check is not None and not check(value):
            raise ValidationError(f"config key {key!r}: value {value!r} out of range")
        resolved[key] = value
    return resolved


def _load_config(args, schema, context) -> dict:
    raw = _parse_config_file(args.config) if args.config else {}
    cfg = _resolve_config(raw, schema, context)
    if getattr(args, "seed", None) is not None:
        cfg["random-state"] = args.seed
    if getattr(args, "folds", None) is not None:
        if args.folds < 2:
            raise ValidationError("--folds must be at least 2")
        cfg["folds"] = args.folds
    # --threads is checked but unused: a forest grows in one batched pass.
    if args.threads is not None and args.threads < 1:
        raise ValidationError("--threads must be at least 1")
    return cfg


def _load_dataset(args) -> Dataset:
    try:
        dataset = load_csv(args.data, label_column=args.label_column)
    except (OSError, CsvFormatError) as exc:
        raise ValidationError(str(exc)) from None
    if dataset.n_classes < 2:
        what = "screening" if args.command == "screen" else "evaluation"
        raise ValidationError(f"dataset has a single class; {what} is undefined")
    return dataset


def _read_result(path) -> dict:
    try:
        doc = read_json(path)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read result file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != "screening_result":
        raise ValidationError("result file is not a screening result document")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {doc.get('schema_version')!r}")
    return doc


def _write_pair(doc: dict, csv: str, out: str) -> Path:
    """Write ``<out>.json`` and ``<out>.csv``; returns the shared base path."""
    base = Path(out)
    if base.suffix == ".json":
        base = base.with_suffix("")
    write_json(doc, base.with_suffix(".json"))
    base.with_suffix(".csv").write_text(csv, encoding="utf-8")
    return base


def _forest_params(cfg: dict, prefix: str, width: int, rounding) -> ForestParams:
    """The forest that a config's ``prefix`` keys name for ``width`` candidate features.

    ``n-subfeatures`` is capped at ``width``, and 0 takes ``rounding(sqrt(width))``:
    ceil of a round's pool for rfms, the nearest integer for the rf classifier."""
    forest = {key.replace("-", "_"): cfg[prefix + key] for key in (
        "n-trees", "min-samples-leaf", "min-purity-increase", "partial-sampling")}
    explicit = cfg[prefix + "n-subfeatures"]
    return ForestParams(**forest, n_subfeatures=min(explicit, width) if explicit
                        else rounding(math.sqrt(width)), seed=cfg["random-state"])


def _screener_spec(name: str, cfg: dict, n_out: int, n_features: int) -> ScreenerSpec:
    """The ``name`` spec ``n_out`` wide that a screen config names for an ``n_features`` table.

    The one place where config keys become a ``ScreeningConfig``.
    """
    if name != "rfms":
        return ScreenerSpec(name, {"n_out": n_out, "seed": cfg["random-state"]})
    step = cfg["step-size"]
    if step is None:
        raise ValidationError("config key 'step-size' is required for rfms")
    n_aug = n_features + cfg["n-canaries"]
    if step > n_aug:
        raise ValidationError(f"step-size={step} exceeds the augmented feature count {n_aug}")
    try:
        config = ScreeningConfig(step, n_out, _forest_params(cfg, "", step + n_out, math.ceil),
                                 n_canaries=cfg["n-canaries"], seed=cfg["random-state"])
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return ScreenerSpec("rfms", config=config)


def _classifier_grid(cfg: dict, which: str, dataset: Dataset, width: int) -> list[ClassifierSpec]:
    """The ``which`` classifiers of a config for ``width`` screened features, checked before work.

    ``knn-k`` may not exceed fold 0's training rows, the fewest: ``stratified_kfold``
    gives fold 0 the ceiling of every class and rejects a class under ``folds`` rows."""
    folds, sizes = cfg["folds"], Counter(dataset.labels.tolist()).values()
    smallest = dataset.n_samples - sum(-(-size // folds) for size in sizes)
    if which in ("knn", "all") and min(sizes) >= folds and max(cfg["knn-k"]) > smallest:
        raise ValidationError(
            f"knn-k must be at most {smallest}, the smallest training fold at folds={folds}")
    knn = [ClassifierSpec("knn", {"k": k}) for k in cfg["knn-k"]]
    rf = [ClassifierSpec("rf", forest=_forest_params(cfg, "rf-", width, round))]
    majority = [ClassifierSpec("majority")]
    grids = {"knn": knn, "rf": rf, "majority": majority,
             "all": knn + rf + majority}
    return grids[which]


def cmd_generate(args) -> int:
    cfg = _load_config(args, _GENERATE_KEYS, "generate")
    try:
        gen_config = GeneratorConfig(**{
            "seed" if key == "random-state" else key.replace("-", "_"): value
            for key, value in cfg.items()})
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    dataset, provenance = generate(gen_config)
    out = Path(args.out)
    write_csv(dataset, out, label_column=args.label_column)
    sidecar = out.with_name(out.stem + ".provenance.json")
    write_json({"schema_version": 1, "kind": "provenance", **provenance.to_dict()}, sidecar)
    print(f"wrote {dataset.n_samples} samples x {dataset.n_features} features "
          f"({dataset.n_classes} classes) to {out}")
    print(f"wrote provenance to {sidecar}")
    return 0


def _screen_baseline(dataset: Dataset, spec: ScreenerSpec, cfg: dict) -> dict:
    k_out = cfg["reduced-size"]
    seed = cfg["random-state"]
    if spec.name == "pca" and cfg["n-canaries"] > 0:
        raise ValidationError("canaries are only meaningful for subset screeners; "
                              "set n-canaries = 0 for pca")
    augmented, canary_ids = augment_with_canaries(dataset, cfg["n-canaries"], seed)
    if spec.name == "pca":
        limit, where = min(dataset.n_samples, dataset.n_features), " for pca"
    else:
        limit, where = augmented.n_features, ""
    if not 1 <= k_out <= limit:
        raise ValidationError(f"reduced-size must be in 1..{limit}{where}")
    wall0, cpu0 = time.perf_counter(), time.process_time()
    fitted = fit_screener(spec, augmented)
    timing = {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0}
    meta = {"n_samples": dataset.n_samples, "n_features": dataset.n_features,
            "n_classes": dataset.n_classes}
    if fitted.transforming:
        return pca_document({"name": "pca", "n_out": k_out}, fitted.pca, meta, **timing)
    screener_block = {"name": spec.name, "n_out": k_out, "n_canaries": cfg["n-canaries"]}
    if spec.name == "random":
        screener_block["random_state"] = seed
    return envelope(screener_block, meta, fitted.selected.indices, augmented.feature_names,
                    canary_ids=canary_ids, **timing)


def cmd_screen(args) -> int:
    cfg = _load_config(args, _SCREEN_KEYS, "screen")
    dataset = _load_dataset(args)
    spec = _screener_spec(args.screener, cfg, cfg["reduced-size"], dataset.n_features)
    doc = (screening_document(screen(dataset, spec.config)) if spec.config
           else _screen_baseline(dataset, spec, cfg))
    write_json(doc, args.out)
    leaks = doc.get("canaries", {}).get("leak_count", 0)
    print(f"screener={args.screener} selected={len(doc['selected'])} "
          f"canary_leaks={leaks} cpu={doc['timing']['cpu_s']:.2f}s -> {args.out}")
    return 0


def _selection_from_document(doc: dict, dataset: Dataset):
    """Reduced view of the dataset per a stored screening result."""
    if doc.get("transforming"):
        model = pca_model_from_document(doc)
        if model.n_features != dataset.n_features:
            raise ValidationError(
                f"result was fitted on {model.n_features} features, "
                f"dataset has {dataset.n_features}")
        return FittedScreener(pca=model).view(dataset)
    position = {name: i for i, name in enumerate(dataset.feature_names)}
    columns = []
    for item in doc["selected"]:
        if item.get("is_canary"):
            raise ValidationError(
                f"selected feature {item['name']!r} is a canary and does not exist "
                "in the dataset; audit the screening result")
        if item["name"] not in position:
            raise ValidationError(
                f"selected feature {item['name']!r} not found in the dataset; "
                "feature names do not match")
        columns.append(position[item["name"]])
    return dataset.select_features(columns)


def _screener_spec_from_document(doc: dict, n_features: int) -> ScreenerSpec:
    """The spec a stored ``screener`` block names; its keys are screen keys, ``_`` for ``-``."""
    raw = {key.replace("_", "-"): value for key, value in doc["screener"].items()}
    name = raw.pop("name")
    if "n-out" in raw:
        raw["reduced-size"] = raw.pop("n-out")
    # canaries are a whole-table diagnostic, not a CV step
    cfg = _resolve_config({**raw, "n-canaries": 0}, _SCREEN_KEYS, "stored screener")
    return _screener_spec(name, cfg, cfg["reduced-size"], n_features)


def cmd_evaluate(args) -> int:
    cfg = _load_config(args, _EVAL_KEYS, "evaluate")
    dataset = _load_dataset(args)
    doc = _read_result(args.result)
    grid = _classifier_grid(cfg, args.classifier, dataset, len(doc["selected"]))
    folds = cfg["folds"]
    seed = cfg["random-state"]
    if args.leak_safe:
        spec = _screener_spec_from_document(doc, dataset.n_features)
        report = grid_search(dataset, [spec], grid, folds=folds, seed=seed)
    else:
        reduced = _selection_from_document(doc, dataset)
        report = screen_once_report(
            reduced, f"{doc['screener']['name']}({reduced.n_features})",
            float(doc["timing"]["cpu_s"]), grid, folds=folds, seed=seed)

    base = _write_pair(report_document(report, folds), records_csv(report.entries), args.out)
    for entry in report.entries:
        print(f"{entry.screener_id} + {entry.classifier_id}: "
              f"accuracy={entry.mean_accuracy:.4f}")
    best = report.best
    print(f"best: {best.screener_id} + {best.classifier_id} "
          f"accuracy={best.mean_accuracy:.4f} -> {base.with_suffix('.json')}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args, _SWEEP_KEYS, "sweep")
    dataset = _load_dataset(args)
    counts = cfg["feature-counts"]
    if any(c > dataset.n_features for c in counts):
        raise ValidationError(f"feature-counts must be at most {dataset.n_features}")
    step = cfg["step-size"]
    if args.screener == "rfms" and step is not None and max(counts) > step:
        raise ValidationError("feature-counts may not exceed step-size for rfms")
    # canaries are a whole-table diagnostic, not a sweep step
    spec = _screener_spec(args.screener, {**cfg, "n-canaries": 0}, max(counts),
                          dataset.n_features)
    if spec.name == "pca" and max(counts) > min(dataset.n_samples, dataset.n_features):
        raise ValidationError("feature-counts exceed the PCA component limit")
    grids = [_classifier_grid(cfg, args.classifier, dataset, count) for count in counts]
    rows = [row for count, grid in zip(counts, grids)
            for row in convergence_sweep(dataset, spec, grid, [count], folds=cfg["folds"],
                                         seed=cfg["random-state"], leak_safe=args.leak_safe)]
    base = _write_pair(sweep_document(rows, args.screener, cfg["folds"]), records_csv(rows),
                       args.out)
    for row in rows:
        print(f"n_features_out={row.n_features_out} best_accuracy={row.best_accuracy:.4f} "
              f"({row.best_classifier_id})")
    print(f"wrote {base.with_suffix('.json')} and {base.with_suffix('.csv')}")
    return 0


def cmd_audit(args) -> int:
    doc = _read_result(args.result)
    canaries = doc.get("canaries")
    if canaries is None:
        raise ValidationError("screening ran without canaries; nothing to audit")
    leaked = canaries["leaked_ids"]
    print(f"canaries={len(canaries['ids'])} leaks={canaries['leak_count']}")
    if leaked:
        names = {item["id"]: item["name"] for item in doc["selected"]}
        for fid in leaked:
            print(f"leaked: id={fid} name={names.get(fid, '?')}")
        return 1
    print("clean: no canary reached the screened set")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfscreen",
        description="Multiround random-forest feature screening toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, out=False, result=False, screener=False, classifier=False):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="override random-state")
        p.add_argument("--threads", type=int,
                       help="checked (>= 1) but unused")
        p.add_argument("--label-column", default="label")
        if data:
            p.add_argument("--data", required=True, help="input dataset CSV")
        if out:
            p.add_argument("--out", required=True, help="output path")
        if result:
            p.add_argument("--result", required=True, help="screening result JSON")
        if screener:
            p.add_argument("--screener", choices=("rfms", "kbest", "pca", "random"),
                           default="rfms")
        if classifier:
            p.add_argument("--classifier", choices=("knn", "rf", "majority", "all"),
                           default="knn")
            p.add_argument("--folds", type=int, help="override folds")
            p.add_argument("--leak-safe", action="store_true",
                           help="re-screen inside each fold instead of reusing the stored "
                                "selection")

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    common(p, out=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("screen", help="run a feature screener")
    common(p, data=True, out=True, screener=True)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("evaluate", help="cross-validate classifiers on a screened set")
    common(p, data=True, out=True, result=True, classifier=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="accuracy as a function of screened feature count")
    common(p, data=True, out=True, screener=True, classifier=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="canary audit of a screening result")
    p.add_argument("--result", required=True, help="screening result JSON")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
