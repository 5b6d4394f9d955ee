"""Command-line surface: train, prune, sweep, and the two SVG plots.

Every command reads a JSON config, runs deterministically for the seeds it is
given, and writes its outputs atomically.  Exit codes: 0 success, 2 config
error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .bundle import WeightBundle, load_bundle, save_bundle, write_text_atomic
from .errors import ConfigError, DataError, NumericError
from .geometry import project_generators, zonotope_vertices
from .adapter import node_generators
from .harness import (METHODS, SyntheticTask, generate_task, init_model, prune_grid,
                      sweep, train)
from .optimizer import OptimConfig, run
from .strategies import PruneScope, apply_mask
# Not called here since prune_grid builds the masks; bench/tracing.py still
# looks both names up on this module when it installs its spans.
from .strategies import standard_mask, tropical_mask  # noqa: F401
from .svgplot import loss_curve_svg, zonotope_overlay_svg

SEED_ENV = "TROPIPRUNE_SEED"

CSV_HEADER = ["task", "method", "scope", "p", "p_hat", "retained_pct",
              "dev_metric", "test_metric", "seed"]


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _require(cfg: dict, dotted: str):
    node = cfg
    walked = []
    for part in dotted.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"missing field: {'.'.join(walked)}")
        node = node[part]
    return node


def _get(cfg: dict, dotted: str, default):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _task_from_config(cfg: dict) -> SyntheticTask:
    kind = _require(cfg, "task.kind")
    try:
        return SyntheticTask(
            kind=kind,
            n_train=int(_get(cfg, "task.n_train", 2000)),
            n_dev=int(_get(cfg, "task.n_dev", 500)),
            n_test=int(_get(cfg, "task.n_test", 500)),
            dim=int(_get(cfg, "task.dim", 2)),
            classes=int(_get(cfg, "task.classes", 2)),
            noise=float(_get(cfg, "task.noise", 0.1)),
            seed=int(_get(cfg, "task.seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad task section: {exc}") from None


def _optim_from_config(cfg: dict) -> OptimConfig:
    try:
        return OptimConfig(
            iterations=int(_get(cfg, "optim.iterations", 1000)),
            lr=float(_get(cfg, "optim.lr", 0.01)),
            l1_pos=float(_get(cfg, "optim.l1_pos", 0.1)),
            l1_neg=float(_get(cfg, "optim.l1_neg", 0.1)),
            tol=float(_get(cfg, "optim.tol", 1e-6)),
            window=int(_get(cfg, "optim.window", 10)),
            seed=int(_get(cfg, "optim.seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad optim section: {exc}") from None


def _fractions_from_config(cfg: dict) -> list[float]:
    raw = _require(cfg, "prune.fractions")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("prune.fractions must be a non-empty list")
    fractions = [float(p) for p in raw]
    if any(not 0.0 <= p <= 1.0 for p in fractions):
        raise ConfigError("prune.fractions must lie in [0, 1]")
    return fractions


def _scopes_from_config(cfg: dict) -> list[PruneScope]:
    raw = _get(cfg, "prune.scopes", ["CU"])
    try:
        return [PruneScope.from_token(str(s)) for s in raw]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _methods_from_config(cfg: dict, allowed: tuple[str, ...]) -> list[str]:
    raw = _get(cfg, "prune.methods", list(allowed))
    for m in raw:
        if m not in allowed:
            raise ConfigError(f"unknown method {m!r}; expected subset of {list(allowed)}")
    return list(raw)


def _out_dir(cfg: dict) -> Path:
    return Path(str(_require(cfg, "out.dir")))


def _train_model(cfg: dict, task: SyntheticTask, model_seed: int, train_seed: int):
    data = generate_task(task)
    model = init_model(
        in_dim=task.dim,
        features=int(_get(cfg, "model.features", 16)),
        bottleneck=int(_get(cfg, "model.bottleneck", 4)),
        classes=task.classes,
        seed=model_seed,
    )
    result = train(
        model, data,
        steps=int(_get(cfg, "train.steps", 2000)),
        lr=float(_get(cfg, "train.lr", 0.05)),
        batch=int(_get(cfg, "train.batch", 32)),
        seed=train_seed,
    )
    return data, result


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    task = _task_from_config(cfg)
    env = _env_seed()
    model_seed = int(_get(cfg, "model.seed", 0))
    train_seed = int(_get(cfg, "train.seed", 0))
    if env is not None:
        task = replace(task, seed=env)
        model_seed = env
        train_seed = env
    out = _out_dir(cfg)
    _, result = _train_model(cfg, task, model_seed, train_seed)
    meta = {"task": task.kind, "task_seed": task.seed,
            "model_seed": model_seed, "train_seed": train_seed}
    bundle_path = out / "bundle.json"
    save_bundle(WeightBundle(result.model, meta=meta), bundle_path)
    log_lines = ["step,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(result.losses)]
    log_path = out / "train_log.csv"
    write_text_atomic(log_path, "\n".join(log_lines) + "\n")
    print(bundle_path)
    print(log_path)
    return 0


def _check_bundle_dims(cfg: dict, bundle: WeightBundle) -> None:
    features = _get(cfg, "model.features", None)
    bottleneck = _get(cfg, "model.bottleneck", None)
    if features is not None and int(features) != bundle.model.features:
        raise DataError(f"bundle has {bundle.model.features} features, "
                        f"config says {features}")
    if bottleneck is not None and int(bottleneck) != bundle.model.adapter.bottleneck:
        raise DataError(f"bundle has bottleneck {bundle.model.adapter.bottleneck}, "
                        f"config says {bottleneck}")


def cmd_prune(args) -> int:
    cfg = _load_config(args.config)
    bundle = load_bundle(args.bundle)
    _check_bundle_dims(cfg, bundle)
    optim = _optim_from_config(cfg)
    fractions = _fractions_from_config(cfg)
    scopes = _scopes_from_config(cfg)
    methods = _methods_from_config(cfg, ("standard", "tropical"))
    out = _out_dir(cfg)
    model = bundle.model
    originals = [model.adapter]
    optimized = [run(layer, optim) for layer in originals]
    for layer_index, opt in enumerate(optimized):
        trace_doc = {"layer": layer_index, "trace": [[t, v] for t, v in opt.loss_trace],
                     "converged_at": opt.converged_at}
        write_text_atomic(out / f"trace_layer{layer_index}.json",
                          json.dumps(trace_doc) + "\n")
    opt_model = replace(model, adapter=replace(model.adapter, down=optimized[0].down,
                                               up=optimized[0].up))
    save_bundle(WeightBundle(opt_model, optimized=True, meta=bundle.meta),
                out / "optimized.json")
    report = {"total_params": sum(l.param_count for l in originals), "cells": []}
    for p, scope, masks in prune_grid(originals, optimized, fractions, scopes):
        for method in methods:
            mask, achieved = masks[method]
            pruned = apply_mask(originals, mask)
            pruned_model = replace(model, adapter=pruned[0])
            name = f"pruned_{method}_{scope.value}_p{round(p * 100):03d}.json"
            save_bundle(WeightBundle(pruned_model, meta=bundle.meta), out / name)
            report["cells"].append({
                "method": method, "scope": scope.value, "p": p,
                "p_hat": achieved, "pruned": mask.count(),
                "total": mask.size(), "bundle": name,
            })
    report_path = out / "report.json"
    write_text_atomic(report_path, json.dumps(report, indent=1) + "\n")
    print(report_path)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    task = _task_from_config(cfg)
    optim = _optim_from_config(cfg)
    fractions = _fractions_from_config(cfg)
    scopes = _scopes_from_config(cfg)
    methods = _methods_from_config(cfg, METHODS)
    env = _env_seed()
    seeds = [int(s) for s in _get(cfg, "sweep.seeds", [task.seed])]
    if env is not None:
        seeds = [env]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for seed in seeds:
        run_task = replace(task, seed=seed)
        data, result = _train_model(cfg, run_task, model_seed=seed + 1,
                                    train_seed=seed + 2)
        records = sweep(result.model, run_task, fractions, scopes, methods,
                        optim, seed=seed, data=data)
        for rec in records:
            if not all(math.isfinite(v) for v in (rec.dev_metric, rec.test_metric)):
                raise NumericError(f"non-finite metric in cell {rec}")
            writer.writerow([rec.task, rec.method, rec.scope, repr(rec.p),
                             repr(rec.p_hat), repr(100.0 * (1.0 - rec.p_hat)),
                             repr(rec.dev_metric), repr(rec.test_metric), rec.seed])
    write_text_atomic(args.out, buf.getvalue())
    print(args.out)
    return 0


def cmd_plot_loss(args) -> int:
    try:
        doc = json.loads(Path(args.trace).read_text())
    except FileNotFoundError:
        raise DataError(f"trace file not found: {args.trace}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"trace file is not valid JSON: {exc}") from None
    trace = doc.get("trace") if isinstance(doc, dict) else doc
    if not isinstance(trace, list) or not trace:
        raise DataError("trace file holds no points")
    try:
        svg = loss_curve_svg([(int(t), float(v)) for t, v in trace])
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed trace: {exc}") from None
    write_text_atomic(args.out, svg)
    print(args.out)
    return 0


def _parse_dims(raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--dims expects two comma-separated indices, got {raw!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"--dims must be integers, got {raw!r}") from None


def _node_polytope(bundle: WeightBundle, layer: int, node: int, dims: tuple[int, int]):
    if layer != 0:
        raise DataError(f"layer {layer} out of range; bundle has one adapter layer")
    adapter = bundle.model.adapter
    if not 0 <= node < adapter.width:
        raise DataError(f"node {node} out of range for width {adapter.width}")
    if not all(0 <= d < adapter.down.shape[1] for d in dims):
        raise DataError(f"dims {dims} out of range for {adapter.down.shape[1]} columns")
    pos, _ = node_generators(adapter, node)
    return zonotope_vertices(project_generators(pos, dims))


def cmd_plot_zonotope(args) -> int:
    dims = _parse_dims(args.dims)
    before = load_bundle(args.before)
    after = load_bundle(args.after)
    poly_before = _node_polytope(before, args.layer, args.node, dims)
    poly_after = _node_polytope(after, args.layer, args.node, dims)
    svg = zonotope_overlay_svg(poly_before, poly_after)
    write_text_atomic(args.out, svg)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropiprune",
        description="Train, prune, and inspect bottleneck adapters on synthetic tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a tiny model and write a weight bundle")
    p_train.add_argument("--config", required=True)
    p_train.set_defaults(func=cmd_train)

    p_prune = sub.add_parser("prune", help="fit sparse surrogates and write pruned bundles")
    p_prune.add_argument("--bundle", required=True)
    p_prune.add_argument("--config", required=True)
    p_prune.set_defaults(func=cmd_prune)

    p_sweep = sub.add_parser("sweep", help="full train/prune/eval grid to a results CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_loss = sub.add_parser("plot-loss", help="render a loss trace as an SVG curve")
    p_loss.add_argument("--trace", required=True)
    p_loss.add_argument("--out", required=True)
    p_loss.set_defaults(func=cmd_plot_loss)

    p_zono = sub.add_parser("plot-zonotope",
                            help="overlay a node's generator zonotope before and after")
    p_zono.add_argument("--before", required=True)
    p_zono.add_argument("--after", required=True)
    p_zono.add_argument("--layer", type=int, required=True)
    p_zono.add_argument("--node", type=int, required=True)
    p_zono.add_argument("--dims", required=True)
    p_zono.add_argument("--out", required=True)
    p_zono.set_defaults(func=cmd_plot_zonotope)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, NumericError) as exc:
        kind = {2: "config error", 3: "data error", 4: "numeric failure"}[exc.exit_code]
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
