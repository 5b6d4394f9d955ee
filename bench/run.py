#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload prune_grid --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout: the program is imported from
`src/`, never from an installed copy.  The workload's inputs are made from
`--seed` (set-up, repeated and timed), then rounds of the same `tropiprune`
commands run until `--seconds` have passed, then every output is checked.
The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, which are the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`.  Run one workload at a time: prune_bert
alone peaks near 1.5 GB.
"""

import os

# One BLAS thread, fixed before numpy is first imported, so that timings do
# not depend on how many cores the machine has free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per untraced run.  The first makes the inputs before the rounds;
#: the others remake them between rounds, spread over the run, so that the
#: median set-up time averages over the machine's fast and slow spells.
SETUP_REPEATS = 11


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


IMPORT_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import checks, tracing, workloads
print(time.perf_counter() - start)
"""


def import_program():
    """Import the program from this checkout's src/ and the benchmark's modules."""
    package = ROOT / "src" / "tropiprune"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no program source at {package}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import tropiprune
    if Path(tropiprune.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported tropiprune from {tropiprune.__file__}, not {package}")
    import checks
    import tracing
    import workloads
    return checks, tracing, workloads


@dataclass
class Round:
    wall_s: float
    codes: list
    errors: list
    directory: Path
    tracer: object


def fresh_import_s() -> float:
    """The same imports in a fresh interpreter, timed inside it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def run_round(workloads, workload, work: Path, index: int, tracer) -> Round:
    """One pass over the workload's commands; only the commands themselves are timed."""
    out = work / "out"
    wall, codes, errors = 0.0, [], []
    if tracer is not None:
        tracer.install()
    try:
        for argv in workload.commands(out):
            start = time.perf_counter()
            code, stderr = workloads.call(argv)
            wall += time.perf_counter() - start
            codes.append(code)
            if code != 0:
                errors.append(f"{argv[0]} exited {code}: {stderr.strip()}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    directory = work / f"round{index}"
    out.mkdir(parents=True, exist_ok=True)
    out.rename(directory)
    return Round(wall, codes, errors, directory, tracer)


def layer_metrics(setup_tracer, traced: list, untraced: list) -> dict:
    """Set-up figures plus the median traced round, and the tracing overhead."""
    per_round = [r.tracer.metrics() for r in traced]
    values = {}
    for name, at_setup in setup_tracer.metrics().items():
        middle = statistics.median(m[name] for m in per_round)
        values[name] = max(at_setup, middle) if "_peak_" in name else at_setup + middle
    plain = statistics.median(r.wall_s for r in untraced)
    with_spans = statistics.median(r.wall_s for r in traced)
    values["trace.untraced_wall_s"] = plain
    values["trace.traced_wall_s"] = with_spans
    values["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0)
    return values


def measure(args, spec, checks, tracing, workloads, import_s: float, work: Path) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    inputs = work / "inputs"
    import_times, setup_times = [import_s], []

    def set_up(tracer=None) -> None:
        """Make the inputs (again, into the same files); untraced, also time a fresh import."""
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            workload.setup(work, inputs)
            setup_times.append(time.perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            import_times.append(fresh_import_s())

    setup_tracer = tracing.Tracer() if args.trace else None
    set_up(setup_tracer)

    # With --trace 1 a first round warms the allocator and first-call paths
    # and is not timed; untraced and traced rounds then alternate, so that
    # the overhead is measured warm and under the same machine load.
    warm = [run_round(workloads, workload, work, 0, None)] if args.trace else []
    # Only round time counts toward --seconds; set-ups between rounds do not.
    rounds, elapsed = [], 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        start = time.perf_counter()
        rounds.append(run_round(workloads, workload, work, len(warm) + len(rounds),
                                tracing.Tracer() if traced else None))
        elapsed += time.perf_counter() - start
        share = min(1.0, elapsed / args.seconds)
        while not args.trace and len(setup_times) < 1 + math.ceil((SETUP_REPEATS - 1) * share):
            set_up()
        whole = not args.trace or len(rounds) % 2 == 0
        if whole and elapsed >= args.seconds:
            break
    rounds = warm + rounds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        workload.check(rounds[0].directory, rounds[0].codes)
        for again in rounds[1:]:
            if again.codes != rounds[0].codes:
                raise checks.CheckError(f"round {again.directory.name} exit codes "
                                        f"{again.codes} != {rounds[0].codes}")
            checks.check_identical_dirs(rounds[0].directory, again.directory)
    except (checks.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
        # a malformed or missing output file fails the run's checks
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    for message in sorted(set(e for r in rounds for e in r.errors)):
        print(f"failed operation: {message}", file=sys.stderr)
    print("set-up: imports " + " ".join(f"{t:.3f}" for t in import_times) + " s, inputs "
          + " ".join(f"{t:.3f}" for t in setup_times) + " s; rounds "
          + " ".join(f"{r.wall_s:.3f}{'*' if r.tracer else ''}" for r in rounds)
          + " s (* traced)", file=sys.stderr)

    untraced = [r for r in rounds[len(warm):] if r.tracer is None]
    if args.trace:
        values = layer_metrics(setup_tracer, [r for r in rounds if r.tracer], untraced)
        listed = spec["per_layer"]
    else:
        wall = statistics.median(r.wall_s for r in untraced)
        values = {
            "wall_s": wall,
            "items_per_s": workload.items / wall,
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {
        "correct": correct,
        "attempted": sum(len(r.codes) for r in rounds),
        "failed": sum(1 for r in rounds for c in r.codes if c != 0),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    start = time.perf_counter()
    checks, tracing, workloads = import_program()
    import_s = time.perf_counter() - start
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(args, spec, checks, tracing, workloads, import_s, work)
    except workloads.SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    shown = ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
                      if not args.trace or k.startswith("trace."))
    print(f"{args.workload} seed={args.seed}: {shown}; attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
