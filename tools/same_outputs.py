#!/usr/bin/env python3
"""Show that the benchmark workloads write the same files as at a git revision.

    python tools/same_outputs.py REV

Run it from anywhere inside a source checkout.  It archives REV's `src/`
into `.bench_work/`.  Then, for each workload that `BENCHMARK.json` lists, at
seeds 1 and 2, it runs the workload's set-up and one round of its commands
twice: once with REV's `src/` and once with this checkout's working tree.
Each run is a fresh interpreter with one BLAS thread, at the same work path,
and reads this checkout's `bench/workloads.py` as it is.  The two runs'
trees (inputs, outputs, and each command's argv, exit code and stderr) are
compared file by file.  Each differing or missing file is printed, and the
exit code is 1 if there is any; file modes are reported but not compared.
A run that fails outright exits 2.  `.bench_work/` is cleaned up at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)

#: One run, in a fresh interpreter: argv is src, bench, work, workload, seed.
RUN_SNIPPET = """
import json, sys
from pathlib import Path
src, bench, work, name, seed = sys.argv[1:]
sys.path[:0] = [src, bench]
import tropiprune
if Path(tropiprune.__file__).resolve().parent != (Path(src) / "tropiprune").resolve():
    raise SystemExit(f"imported tropiprune from {tropiprune.__file__}, not {src}")
import workloads
work = Path(work)
workload = workloads.WORKLOADS[name](int(seed))
workload.setup(work, work / "inputs")
commands = []
for argv in workload.commands(work / "out"):
    code, stderr = workloads.call(argv)
    commands.append({"argv": argv, "code": code, "stderr": stderr})
(work / "commands.json").write_text(json.dumps(commands, indent=1) + "\\n")
"""

#: The variables `bench/run.py` sets to pin BLAS to one thread.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(RuntimeError):
    """A revision could not be archived, or a workload run failed."""


def compare_trees(old: Path, new: Path, names=("old", "new")) -> tuple[list[str], list[str]]:
    """(differences, mode notes) between the files under `old` and under `new`.

    A difference names a file that only one side has, or whose bytes
    differ; a mode note names a file on both sides whose permission bits
    differ.  Both lists are sorted by relative path; `names` label the sides.
    """
    def files(top: Path) -> set[Path]:
        return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}

    old_files, new_files = files(old), files(new)
    differences, modes = [], []
    for rel in sorted(old_files | new_files):
        if rel not in new_files:
            differences.append(f"{rel}: only in {names[0]}")
        elif rel not in old_files:
            differences.append(f"{rel}: only in {names[1]}")
        else:
            if (old / rel).read_bytes() != (new / rel).read_bytes():
                differences.append(f"{rel}: bytes differ")
            old_mode, new_mode = (stat.S_IMODE((top / rel).stat().st_mode) for top in (old, new))
            if old_mode != new_mode:
                modes.append(f"{rel}: mode {old_mode:o} against {new_mode:o}")
    return differences, modes


def archive_src(rev: str, into: Path) -> Path:
    """Extract `src/` of the git revision `rev` under `into`; returns that `src/`."""
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          capture_output=True)
    if done.returncode != 0:
        raise RunError(f"git archive {rev} failed: {done.stderr.decode().strip()}")
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def run_workload(src: Path, work: Path, workload: str, seed: int) -> None:
    """The workload's set-up and one round, run against `src` in a fresh interpreter."""
    env = dict(os.environ, **{name: "1" for name in BLAS_THREADS})
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, "-c", RUN_SNIPPET, str(src), str(ROOT / "bench"),
                           str(work), workload, str(seed)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunError(f"{workload} seed {seed} against {src} exited {done.returncode}:\n"
                       f"{done.stderr.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    args = parser.parse_args(argv)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    top = ROOT / ".bench_work" / f"same_outputs-{os.getpid()}"
    shutil.rmtree(top, ignore_errors=True)
    sides = {args.rev: None, "working tree": ROOT / "src"}
    differing = 0
    try:
        sides[args.rev] = archive_src(args.rev, top / "rev")
        work = top / "work"
        for name in names:
            for seed in SEEDS:
                trees = []
                for i, src in enumerate(sides.values()):
                    run_workload(src, work, name, seed)
                    trees.append(top / f"side{i}" / f"{name}-{seed}")
                    trees[-1].parent.mkdir(parents=True, exist_ok=True)
                    work.rename(trees[-1])
                differences, modes = compare_trees(*trees, names=tuple(sides))
                count = sum(1 for p in trees[0].rglob("*") if p.is_file())
                verdict = f"{len(differences)} differ" if differences else "all the same"
                print(f"{name} seed {seed}: {count} files, {verdict}")
                for line in differences + modes:
                    print(f"  {line}")
                differing += len(differences)
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(top, ignore_errors=True)
        with contextlib.suppress(OSError):
            top.parent.rmdir()
    print(f"{differing} differing files against {args.rev}" if differing
          else f"every file is the same as at {args.rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
