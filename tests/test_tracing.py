"""The benchmark's tracer still finds every name it patches in the program.

`bench/tracing.py` replaces names such as `cli.load_bundle` and
`harness.standard_mask` with timing wrappers.  A program change that renames
or drops one of them would stop `bench/run.py --trace 1` with an
AttributeError; this test catches that in the regular test run.
"""

import importlib.util
from pathlib import Path

from tropiprune import optimizer

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_patches_every_name_and_uninstall_restores_it():
    tracing = load_tracing()
    targets = [(module, name) for module, name, _, _ in tracing._SPANS]
    targets.append((optimizer, "objective_value"))
    originals = [getattr(module, name) for module, name in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, name), original in zip(targets, originals):
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
    finally:
        tracer.uninstall()
    for (module, name), original in zip(targets, originals):
        assert getattr(module, name) is original, f"{module.__name__}.{name}"
