"""Command-line surface: train, prune, sweep, and the two SVG plots.

Every command reads a JSON config, runs deterministically for the seeds it is
given, and writes its outputs atomically.  Exit codes: 0 success, 2 config
error, 3 data error, 4 numeric failure.

Every config key is checked: an unknown section or key, or a malformed value,
exits 2.  The `task`, `model`, `train` and `optim` keys are the keyword
arguments of `SyntheticTask`, `init_model`, `train` and `OptimConfig`; an
omitted key takes that callee's default, and the callee checks the values.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .bundle import WeightBundle, load_bundle, save_bundle, write_text_atomic
from .errors import ConfigError, DataError, NumericError
from .geometry import project_generators, zonotope_vertices
from .adapter import node_generators
from .harness import METHODS, SyntheticTask, generate_task, init_model, sweep, train
from .optimizer import OptimConfig, run
from .strategies import PruneScope, apply_mask, prune_grid
# Not called here; bench/tracing.py looks both names up on this module.
from .strategies import standard_mask, tropical_mask  # noqa: F401
from .svgplot import loss_curve_svg, zonotope_overlay_svg

SEED_ENV = "TROPIPRUNE_SEED"

CSV_HEADER = ["task", "method", "scope", "p", "p_hat", "retained_pct",
              "dev_metric", "test_metric", "seed"]

# A library section's keys are the int/float/str parameters of its callee, read
# here once so that a wrapper later bound to the callee's name is coerced too.
_PARAMS = {
    section: {name: p for name, p in inspect.signature(fn, eval_str=True).parameters.items()
              if p.annotation in (int, float, str)}
    for section, fn in (("task", SyntheticTask), ("model", init_model),
                        ("train", train), ("optim", OptimConfig))
}
_KEYS = {**_PARAMS, "prune": ("fractions", "scopes", "methods"), "sweep": ("seeds",),
         "out": ("dir",)}


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for section, keys in cfg.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section {section!r}; expected {list(_KEYS)}")
        if not isinstance(keys, dict):
            raise ConfigError(f"section {section} must be a JSON object")
        for key in keys:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}; expected {list(_KEYS[section])}")
    return cfg


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


@contextmanager
def _errors(section: str):
    """Report a malformed value of a config section as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {section} section: {exc}") from None


def _int(value) -> int:
    """A whole number: an int, an integral float or a numeral string, never a bool."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


_COERCE = {int: _int, float: float, str: str}


def _settings(cfg: dict, section: str) -> dict:
    """The keys a library section sets, each coerced to its parameter's annotation."""
    params = _PARAMS[section]
    with _errors(section):
        return {key: _COERCE[params[key].annotation](value)
                for key, value in cfg.get(section, {}).items()}


def _read(cfg: dict, section: str, fn, *args, **fixed):
    """fn(*args, **keys) with the keys of a library section; `fixed` overrides them.

    Omitted keys take fn's own defaults.  A malformed value, or fn's own
    argument check failing, becomes a ConfigError that names the section.
    """
    keys = {**_settings(cfg, section), **fixed}
    for name, param in _PARAMS[section].items():
        if param.default is param.empty and name not in keys:
            raise ConfigError(f"missing field: {section}.{name}")
    with _errors(section):
        return fn(*args, **keys)


def _seed(cfg: dict, section: str, env: int | None) -> int:
    """The seed a library section runs with: the override, its own key, or the default."""
    if env is not None:
        return env
    return _settings(cfg, section).get("seed", _PARAMS[section]["seed"].default)


def _list(cfg: dict, section: str, key: str, parse, default: list | None = None) -> list:
    """A non-empty JSON list, each item passed through parse; required without a default."""
    keys = cfg.get(section, {})
    if key not in keys and default is None:
        raise ConfigError(f"missing field: {section}.{key}")
    raw = keys.get(key, default)
    with _errors(section):
        if not isinstance(raw, list) or not raw:
            raise ValueError(f"{key} must be a non-empty JSON list, got {raw!r}")
        return [parse(item) for item in raw]


def _fraction(value) -> float:
    p = float(value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"fractions must lie in [0, 1], got {p!r}")
    return p


def _grid(cfg: dict, allowed: tuple[str, ...]):
    """The prune section: fractions, scopes (default CU) and methods (default all allowed)."""
    methods = _list(cfg, "prune", "methods", str, list(allowed))
    if not set(methods) <= set(allowed):
        raise ConfigError(f"bad prune section: methods {methods} are not a subset of "
                          f"{list(allowed)}")
    return (_list(cfg, "prune", "fractions", _fraction),
            _list(cfg, "prune", "scopes", lambda s: PruneScope.from_token(str(s)), ["CU"]),
            methods)


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out", {})
    if "dir" not in out:
        raise ConfigError("missing field: out.dir")
    if not isinstance(out["dir"], str):
        raise ConfigError(f"bad out section: dir must be a string, got {out['dir']!r}")
    return Path(out["dir"])


def _disagreement(dims: dict, actual: dict) -> str | None:
    """'<key> <actual>, config says <value>' for the first model key set otherwise."""
    for key, have in actual.items():
        if key in dims and dims[key] != have:
            return f"{key} {have}, config says {dims[key]}"
    return None


def _train_model(cfg: dict, task: SyntheticTask, model_seed: int, train_seed: int):
    clash = _disagreement(_settings(cfg, "model"), {"in_dim": task.dim, "classes": task.classes})
    if clash:
        raise ConfigError(f"bad model section: the task has {clash}")
    data = generate_task(task)
    model = _read(cfg, "model", init_model, in_dim=task.dim, classes=task.classes,
                  seed=model_seed)
    return data, _read(cfg, "train", train, model, data, seed=train_seed)


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    env = _env_seed()
    task = _read(cfg, "task", SyntheticTask, seed=_seed(cfg, "task", env))
    model_seed, train_seed = _seed(cfg, "model", env), _seed(cfg, "train", env)
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


def _check_bundle_dims(dims: dict, bundle: WeightBundle) -> None:
    model = bundle.model
    clash = _disagreement(dims, {"in_dim": model.in_dim, "features": model.features,
                                 "bottleneck": model.adapter.bottleneck,
                                 "classes": model.classes})
    if clash:
        raise DataError(f"bundle has {clash}")


def _fraction_tag(p: float) -> str:
    return f"p{round(p * 100):03d}"


def _distinct_tags(key: str, entries: list, tags: list[str]) -> None:
    """Two prune entries with one file-name tag would overwrite each other's bundles."""
    for j, tag in enumerate(tags):
        if tag in tags[:j]:
            raise ConfigError(f"bad prune section: {key} {entries[tags.index(tag)]!r} and "
                              f"{entries[j]!r} would write the same bundle files ({tag})")


def cmd_prune(args) -> int:
    cfg = _load_config(args.config)
    dims = _settings(cfg, "model")
    optim = _read(cfg, "optim", OptimConfig)
    fractions, scopes, methods = _grid(cfg, ("standard", "tropical"))
    _distinct_tags("fractions", fractions, [_fraction_tag(p) for p in fractions])
    _distinct_tags("scopes", cfg.get("prune", {}).get("scopes", ["CU"]),
                   [s.value for s in scopes])
    out = _out_dir(cfg)
    bundle = load_bundle(args.bundle)
    _check_bundle_dims(dims, bundle)
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
    # like=bundle: every value a written bundle shares with the original
    # reuses the original's text, rendered once for the whole grid
    save_bundle(WeightBundle(opt_model, optimized=True, meta=bundle.meta),
                out / "optimized.json", like=bundle)
    report = {"total_params": sum(l.param_count for l in originals), "cells": []}
    for p, scope, masks in prune_grid(originals, optimized, fractions, scopes):
        for method in methods:
            mask, achieved = masks[method]
            pruned_model = replace(model, adapter=apply_mask(originals, mask)[0])
            name = f"pruned_{method}_{scope.value}_{_fraction_tag(p)}.json"
            save_bundle(WeightBundle(pruned_model, meta=bundle.meta), out / name,
                        like=bundle)
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
    task = _read(cfg, "task", SyntheticTask)
    optim = _read(cfg, "optim", OptimConfig)
    fractions, scopes, methods = _grid(cfg, METHODS)
    seeds = _list(cfg, "sweep", "seeds", _int, [task.seed])
    env = _env_seed()
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
                        optim, data=data)
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
