#!/usr/bin/env python3
"""Run sets of benchmark runs and report whether the sets agree.

    python3 bench/compare.py                       # 2 sets x 10 seeds x every workload
    python3 bench/compare.py --sets 1 --runs 1     # every workload once, to see it run

Each run is `BENCHMARK.json`'s command in a fresh process, one at a time,
with `--trace 0`; every run of every set gets its own seed.  For each
workload and end-to-end metric the report gives each set's median and its
spread, the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  The sets
agree when every spread stays within the metric's bound, no set's median
differs from the first set's by more than the bound in either direction,
every run checked its outputs as correct, and the share of failed operations
is the same in every run.  Exit code 0 means they agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
FIRST_SEED = 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload and set")
    parser.add_argument("--out", default=str(ROOT / ".bench_results" / "compare.json"))
    args = parser.parse_args(argv)
    if args.sets < 1 or args.runs < 1:
        parser.error("--sets and --runs must be at least 1")
    return args


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return dict(json.loads(lines[-1]), seed=seed, duration_s=time.perf_counter() - start)


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(spec: dict, results: dict) -> tuple[list[str], bool]:
    """Report lines and the verdict; results[workload][set] is a list of run outputs."""
    lines, agree = [], True
    for workload, sets in results.items():
        runs = [r for s in sets for r in s]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        lines.append(f"{workload}: failed share {sorted(map(str, shares))}, "
                     f"all correct {correct}")
        agree &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, cells = [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s]
                med, spr = statistics.median(values), spread(values)
                medians.append(med)
                cells.append(f"{med:.6g}" + ("" if spr is None else f" ±{spr:.1%}"))
                if spr is not None and spr > bound:
                    agree = False
                    cells[-1] += " SPREAD"
            for k, med in enumerate(medians[1:], start=1):
                drift = (med - medians[0]) / medians[0]
                if abs(drift) > bound:
                    agree = False
                    cells[k] += f" DRIFT {drift:+.1%}"
            lines.append(f"  {name} [{metric['unit']}] bound {bound:.0%}: " + " | ".join(cells))
    return lines, agree


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {w["name"]: [] for w in spec["workloads"]}
    seed = FIRST_SEED
    for set_index in range(args.sets):
        for workload in results:
            runs = []
            for _ in range(args.runs):
                out = run_once(spec, workload, seed)
                shown = ", ".join(f"{k}={m['value']:.6g} {m['unit']}"
                                  for k, m in out["metrics"].items())
                print(f"set {set_index} {workload} seed {seed}: {shown}; attempted "
                      f"{out['attempted']}, failed {out['failed']}, correct {out['correct']}; "
                      f"run took {out['duration_s']:.1f} s", flush=True)
                runs.append(out)
                seed += 1
            results[workload].append(runs)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1) + "\n")
    lines, agree = judge(spec, results)
    print("\n".join(lines))
    print(f"sets agree within BENCHMARK.json bounds: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
