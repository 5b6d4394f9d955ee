"""Per-layer spans and counters, recorded from outside the program.

`cli` and `harness` bind library names at import time (`from .optimizer
import run`), so a span has to replace each name in the module that looks it
up, not in the module that defines it.  `Tracer.install` swaps every traced
name for a timing wrapper and `Tracer.uninstall` puts the originals back, so
untraced rounds run the program exactly as shipped.

A span's self time is its duration minus the time of the traced spans that
ran inside it; `cli.self_s` and `optimizer.step_self_s` are such self times.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict

from tropiprune import cli, geometry, harness, optimizer, strategies

MB = 1024.0 * 1024.0


def _layers_params(layers) -> int:
    return sum(l.down.size + l.up.size for l in layers)


def _rows(x) -> int:
    return 1 if x.ndim == 1 else x.shape[0]


# (module, name looked up there, span name, counter hook or None).  A hook
# gets (tracer, args, result) after a call that returned.
_SPANS = (
    (cli, "main", "cli", None),
    (cli, "train", "harness.train",
     lambda t, a, r: t.add("harness.train_steps", len(r.losses))),
    (cli, "generate_task", "harness.generate_task", None),
    (cli, "sweep", "harness.sweep", None),
    (harness, "evaluate", "harness.evaluate",
     lambda t, a, r: t.add("harness.evaluate_rows", len(a[2]))),
    (harness, "forward", "adapter.forward",
     lambda t, a, r: t.add("adapter.forward_rows", _rows(r))),
    (cli, "run", "optimizer.run",
     lambda t, a, r: t.add("optimizer.iterations", len(r.loss_trace) - 1)),
    (harness, "run", "optimizer.run",
     lambda t, a, r: t.add("optimizer.iterations", len(r.loss_trace) - 1)),
    (optimizer, "subgradient", "optimizer.subgradient",
     lambda t, a, r: t.add("optimizer.node_steps", 1)),
    (cli, "tropical_mask", "strategies.tropical_mask", None),
    (harness, "tropical_mask", "strategies.tropical_mask", None),
    (cli, "standard_mask", "strategies.standard_mask", None),
    (harness, "standard_mask", "strategies.standard_mask", None),
    (strategies, "select_smallest", "strategies.select_smallest",
     lambda t, a, r: t.add("strategies.params_ranked", _layers_params(a[0]))),
    (cli, "apply_mask", "strategies.apply_mask",
     lambda t, a, r: t.add("strategies.pruned_params", a[1].count())),
    (harness, "apply_mask", "strategies.apply_mask",
     lambda t, a, r: t.add("strategies.pruned_params", a[1].count())),
    (cli, "save_bundle", "bundle.save",
     lambda t, a, r: t.add("bundle.bytes_written", os.path.getsize(a[1]))),
    (cli, "load_bundle", "bundle.load",
     lambda t, a, r: t.add("bundle.bytes_read", os.path.getsize(a[0]))),
    (cli, "zonotope_vertices", "geometry.zonotope_vertices", None),
    (geometry, "convex_hull_2d", "geometry.convex_hull_2d",
     lambda t, a, r: (t.add("geometry.hull_input_points", len(a[0])),
                      t.add("geometry.vertices", len(r.vertices)))),
    (cli, "loss_curve_svg", "svgplot.render",
     lambda t, a, r: t.add("svgplot.bytes", len(r.encode()))),
    (cli, "zonotope_overlay_svg", "svgplot.render",
     lambda t, a, r: t.add("svgplot.bytes", len(r.encode()))),
)

#: Counters counted from a call's arguments, so that calls that raise count too.
_BEFORE = {
    "geometry.zonotope_vertices":
        lambda t, a: t.add("geometry.generators", len(a[0].generators)),
}


class Tracer:
    """Span timers and counters for one traced region of a benchmark run."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.objective_peak_bytes = 0
        self._child_time: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    def _wrap(self, span: str, fn, hook):
        before = _BEFORE.get(span)

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                self.total[span] += elapsed
                self.self_time[span] += elapsed - children
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def _objective(self, fn):
        timed = self._wrap("optimizer.objective_value", fn, None)

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return timed(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.objective_peak_bytes = max(self.objective_peak_bytes, peak)
                self.counts["optimizer.objective_value_calls"] += 1
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, name, span, hook in _SPANS:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(span, original, hook))
        original = optimizer.objective_value
        self._saved.append((optimizer, "objective_value", original))
        optimizer.objective_value = self._objective(original)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure of this region; layers that did not run read 0."""
        t, c = self.total, self.counts
        return {
            "optimizer.run_s": t["optimizer.run"],
            "optimizer.step_self_s": self.self_time["optimizer.run"],
            "optimizer.subgradient_s": t["optimizer.subgradient"],
            "optimizer.objective_value_s": t["optimizer.objective_value"],
            "optimizer.objective_value_calls": c["optimizer.objective_value_calls"],
            "optimizer.objective_peak_mb": self.objective_peak_bytes / MB,
            "optimizer.iterations": c["optimizer.iterations"],
            "optimizer.node_steps": c["optimizer.node_steps"],
            "harness.train_s": t["harness.train"],
            "harness.train_steps": c["harness.train_steps"],
            "harness.generate_task_s": t["harness.generate_task"],
            "harness.sweep_s": t["harness.sweep"],
            "harness.evaluate_s": t["harness.evaluate"],
            "harness.evaluate_rows": c["harness.evaluate_rows"],
            "adapter.forward_s": t["adapter.forward"],
            "adapter.forward_rows": c["adapter.forward_rows"],
            "strategies.select_smallest_s": t["strategies.select_smallest"],
            "strategies.params_ranked": c["strategies.params_ranked"],
            "strategies.tropical_mask_s": t["strategies.tropical_mask"],
            "strategies.standard_mask_s": t["strategies.standard_mask"],
            "strategies.apply_mask_s": t["strategies.apply_mask"],
            "strategies.pruned_params": c["strategies.pruned_params"],
            "bundle.save_s": t["bundle.save"],
            "bundle.bytes_written": c["bundle.bytes_written"],
            "bundle.load_s": t["bundle.load"],
            "bundle.bytes_read": c["bundle.bytes_read"],
            "geometry.zonotope_vertices_s": t["geometry.zonotope_vertices"],
            "geometry.generators": c["geometry.generators"],
            "geometry.convex_hull_2d_s": t["geometry.convex_hull_2d"],
            "geometry.hull_input_points": c["geometry.hull_input_points"],
            "geometry.vertices": c["geometry.vertices"],
            "svgplot.render_s": t["svgplot.render"],
            "svgplot.bytes": c["svgplot.bytes"],
            "cli.self_s": self.self_time["cli"],
        }
