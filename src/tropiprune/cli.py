"""Command-line surface: train, prune, sweep, and the two SVG plots.

Every command reads a JSON config, runs deterministically for the seeds it is
given, and writes its outputs atomically.  Exit codes: 0 success, 2 config
error, 3 data error, 4 numeric failure.  An output directory that cannot be
made, or a `sweep --out` that names a directory, is rejected (exit 2) before
any work starts.

`sweep` splits its seeds into contiguous chunks, one per usable CPU and of
at most MAX_STACK seeds each.  A forked worker trains its chunk's models as
one stack (`train_stack`), then sweeps each seed in turn: it fits the
seed's surrogate (`run`) and scores its grid, one stack of masked adapters
per fraction.  Rows are written in seed order, and the CSV is the same
bytes as a one-CPU run.  The first failing chunk's error ends the sweep:
chunks not yet handed to a worker are cancelled.

Every command checks every config key: an unknown section or key, or a value
of the wrong type, exits 2.  The `task`, `model`, `train` and `optim` keys are
the keyword arguments of `SyntheticTask`, `init_model`, `train` and
`OptimConfig`, and an omitted key takes that callee's default.  Required keys
and value ranges are checked where a section is read.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

from .bundle import WeightBundle, load_bundle, read_json, save_bundle, write_text_atomic
from .errors import ConfigError, DataError, NumericError
from .geometry import project_generators, zonotope_vertices
from .adapter import node_generators
from .harness import (METHODS, SweepRecord, SyntheticTask, TaskData, TinyModel,
                      generate_task, init_model, sweep, train, train_stack)
from .optimizer import OptimConfig, run
from .strategies import PruneScope, apply_mask, prune_grid
# Not called here; bench/tracing.py looks these names up on this module.
from .strategies import standard_mask, tropical_mask  # noqa: F401
from .svgplot import loss_curve_svg, zonotope_overlay_svg

SEED_ENV = "TROPIPRUNE_SEED"

#: The most sweep seeds one worker trains as one stack.  A stack shares each
#: numpy call's overhead among its seeds.  At the README's 16x4 shape the
#: training of one seed takes 0.090 s alone, 0.039 s per seed in a stack of
#: 4, 0.031 s in 8 and 0.025 s in 16 (best of 15; 2 CPUs, one BLAS thread,
#: numpy 2.4).  Past 8 little is left to gain, while every member adds its
#: own weights and gradients: a worker of a 16-seed 768x64 sweep (README
#: config, 200 training steps, 2 fit iterations, one fraction) peaks at
#: 109 MB RSS.
MAX_STACK = 8

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
    """The config with every key parsed, and the library sections' values coerced."""
    cfg = read_json(path, "config", ConfigError)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for section, keys in cfg.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section {section!r}; expected {list(_KEYS)}")
        if not isinstance(keys, dict):
            raise ConfigError(f"section {section} must be a JSON object")
        for key, value in keys.items():
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}; expected {list(_KEYS[section])}")
            if (section, key) in _ITEMS:
                _list(cfg, section, key)
            elif section == "out" and not isinstance(value, str):
                raise ConfigError(f"bad out section: {key} must be a string, got {value!r}")
        if section in _PARAMS:
            params = _PARAMS[section]
            with _errors(f"{section} section"):
                cfg[section] = {key: _COERCE[params[key].annotation](value)
                                for key, value in keys.items()}
    return cfg


@contextmanager
def _errors(source: str, error: type[Exception] = ConfigError):
    """Re-raise a library's rejection of a value from `source` as `error`, naming `source`."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"bad {source}: {exc}") from None


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    with _errors(SEED_ENV):
        return None if raw is None else int(raw)


def _int(value) -> int:
    """A whole number: an int, an integral float or a numeral string, never a bool."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A number or a numeral string, never a bool."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


_COERCE = {int: _int, float: _float, str: str}


def _read(cfg: dict, section: str, fn, *args, **fixed):
    """fn(*args, **keys) with the keys of a library section; `fixed` overrides them.

    Omitted keys take fn's own defaults.  A missing required key, or fn's
    own argument check failing, becomes a ConfigError that names the section.
    """
    keys = {**cfg.get(section, {}), **fixed}
    for name, param in _PARAMS[section].items():
        if param.default is param.empty and name not in keys:
            raise ConfigError(f"missing field: {section}.{name}")
    with _errors(f"{section} section"):
        return fn(*args, **keys)


def _seed(cfg: dict, section: str, env: int | None) -> int:
    """The seed a library section runs with: the override, its own key, or the default."""
    if env is not None:
        return env
    return cfg.get(section, {}).get("seed", _PARAMS[section]["seed"].default)


def _list(cfg: dict, section: str, key: str, default: list | None = None) -> list:
    """A non-empty JSON list, each item parsed; required without a default."""
    keys = cfg.get(section, {})
    if key not in keys and default is None:
        raise ConfigError(f"missing field: {section}.{key}")
    raw = keys.get(key, default)
    with _errors(f"{section} section"):
        if not isinstance(raw, list) or not raw:
            raise ValueError(f"{key} must be a non-empty JSON list, got {raw!r}")
        return list(map(_ITEMS[section, key], raw))


def _fraction(value) -> float:
    p = _float(value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"fractions must lie in [0, 1], got {p!r}")
    return p


#: The parser of each item of the list keys, which no library callee takes.
_ITEMS = {("prune", "fractions"): _fraction,
          ("prune", "scopes"): lambda s: PruneScope.from_token(str(s)),
          ("prune", "methods"): str,
          ("sweep", "seeds"): _int}


def _grid(cfg: dict, allowed: tuple[str, ...]):
    """The prune section: fractions, scopes (default CU) and methods (default all allowed)."""
    methods = _list(cfg, "prune", "methods", list(allowed))
    if not set(methods) <= set(allowed):
        raise ConfigError(f"bad prune section: methods {methods} are not a subset of "
                          f"{list(allowed)}")
    return _list(cfg, "prune", "fractions"), _list(cfg, "prune", "scopes", ["CU"]), methods


def _usable_dir(path: Path, source: str) -> Path:
    """`path`, once its nearest existing ancestor (or itself) is a directory.

    Nothing is created: the outputs' writer makes the missing directories.
    """
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"bad {source}: {existing} is not a directory")
    return path


def _out_file(out: str) -> None:
    """Reject an --out whose directory cannot be one, or that names a directory."""
    _usable_dir(Path(out).parent, "--out")
    if Path(out).is_dir():
        raise ConfigError(f"bad --out: {out} is a directory")


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out", {})
    if "dir" not in out:
        raise ConfigError("missing field: out.dir")
    # the config is UTF-8 text, so its directory names those bytes in any locale
    with _errors("out section"):
        return _usable_dir(Path(os.fsdecode(out["dir"].encode("utf-8"))), "out section")


def _disagreement(dims: dict, actual: dict) -> str | None:
    """'<key> <actual>, config says <value>' for the first model key set otherwise."""
    for key, have in actual.items():
        if key in dims and dims[key] != have:
            return f"{key} {have}, config says {dims[key]}"
    return None


def _task_model(cfg: dict, task: SyntheticTask, model_seed: int) -> tuple[TaskData, TinyModel]:
    """The task's data and the untrained model that the model section describes for it."""
    clash = _disagreement(cfg.get("model", {}), {"in_dim": task.dim, "classes": task.classes})
    if clash:
        raise ConfigError(f"bad model section: the task has {clash}")
    data = generate_task(task)
    return data, _read(cfg, "model", init_model, in_dim=task.dim, classes=task.classes,
                       seed=model_seed)


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    env = _env_seed()
    task = _read(cfg, "task", SyntheticTask)
    if env is not None:
        with _errors(SEED_ENV):
            task = replace(task, seed=env)
    model_seed, train_seed = _seed(cfg, "model", env), _seed(cfg, "train", env)
    out = _out_dir(cfg)
    data, model = _task_model(cfg, task, model_seed)
    result = _read(cfg, "train", train, model, data, seed=train_seed)
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
    dims = cfg.get("model", {})
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
    # like=bundle: every written bundle copies the original's text table,
    # rendered once for the whole grid, and renders only its changed values,
    # so a pruned tensor's zeros are rendered once each.  The optimized
    # bundle's adapter, nearly every value of which changed, is rendered afresh
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


def _sweep_chunk(cfg: dict, tasks: list[SyntheticTask], fractions: list, scopes: list,
                 methods: list, optim: OptimConfig) -> list[SweepRecord]:
    """A contiguous run of a sweep's seeds: train them as one stack, then sweep each in turn.

    Seed s trains with model seed s + 1 and train seed s + 2.  The error of
    the first seed that fails is raised, even when a later seed failed at
    an earlier stage.
    """
    datas, models = zip(*(_task_model(cfg, task, task.seed + 1) for task in tasks))
    keys = dict(cfg.get("train", {}))
    keys.pop("seed", None)  # each sweep seed trains with its own
    with _errors("train section"):
        trained = train_stack(models, datas, [task.seed + 2 for task in tasks], **keys)
    # the stack ends at the first seed that failed to train; the seeds before it are swept first
    records = []
    for task, data, result in zip(tasks, datas, trained):
        if isinstance(result, NumericError):
            raise result
        records += sweep(result.model, task, fractions, scopes, methods, optim, data)
    return records


def _chunks(tasks: list, workers: int) -> list[list]:
    """Contiguous runs of `tasks`, one per worker unless that exceeds MAX_STACK.

    Their lengths differ by at most one, longer runs first.
    """
    count = max(min(len(tasks), workers), -(-len(tasks) // MAX_STACK))
    size, extra = divmod(len(tasks), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [tasks[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(args) -> int:
    # imported here, not at the top, so that `import tropiprune.cli` stays quick
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cfg = _load_config(args.config)
    task = _read(cfg, "task", SyntheticTask)
    optim = _read(cfg, "optim", OptimConfig)
    fractions, scopes, methods = _grid(cfg, METHODS)
    seeds = _list(cfg, "sweep", "seeds", [task.seed])
    env = _env_seed()
    if env is not None:
        seeds = [env]
    with _errors("sweep section" if env is None else SEED_ENV):
        tasks = [replace(task, seed=seed) for seed in seeds]
    _out_file(args.out)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    cpus = _usable_cpus()
    chunks = _chunks(tasks, cpus)
    # map yields in seed order and re-raises the first failing chunk's error;
    # as that error leaves map's iterator, the iterator cancels every chunk it
    # has not yielded that no worker has started.  Leaving the block joins
    # every worker, on success or failure
    with ProcessPoolExecutor(min(len(chunks), cpus),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        fit = partial(_sweep_chunk, cfg, fractions=fractions, scopes=scopes,
                      methods=methods, optim=optim)
        for records in pool.map(fit, chunks):
            for rec in records:
                writer.writerow([rec.task, rec.method, rec.scope, repr(rec.p),
                                 repr(rec.p_hat), repr(100.0 * (1.0 - rec.p_hat)),
                                 repr(rec.dev_metric), repr(rec.test_metric), rec.seed])
    write_text_atomic(args.out, buf.getvalue())
    print(args.out)
    return 0


def cmd_plot_loss(args) -> int:
    _out_file(args.out)
    doc = read_json(args.trace, "trace", DataError)
    if not isinstance(doc, dict) or not isinstance(doc.get("trace"), list):
        raise DataError('a trace file must hold {"trace": [[iteration, loss], ...]}')
    with _errors("trace", DataError):
        svg = loss_curve_svg(doc["trace"])
    write_text_atomic(args.out, svg)
    print(args.out)
    return 0


def _parse_dims(raw: str) -> tuple[int, int]:
    with _errors(f"--dims {raw!r}"):
        first, second = map(int, raw.split(","))
    return first, second


def _node_polytope(bundle: WeightBundle, layer: int, node: int, dims: tuple[int, int]):
    if layer != 0:
        raise DataError(f"layer {layer} out of range; bundle has one adapter layer")
    with _errors("plot-zonotope arguments", DataError):
        pos, _ = node_generators(bundle.model.adapter, node)
        return zonotope_vertices(project_generators(pos, dims))


def cmd_plot_zonotope(args) -> int:
    _out_file(args.out)
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
