"""The three benchmark workloads: inputs from a seed, commands per round, checks.

Every workload runs the public command line in-process through
`tropiprune.cli.main`, one round at a time.  A round is the same list of
commands each time; its outputs land in `out/`, which the runner then moves
aside so that every round starts from the same state.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from tropiprune import cli

import checks

#: The README's complete config (16x4 adapter on 3-class blobs).
README_CONFIG = {
    "task": {"kind": "blobs", "n_train": 2000, "n_dev": 500, "n_test": 500,
             "dim": 8, "classes": 3, "noise": 0.5, "seed": 7},
    "model": {"features": 16, "bottleneck": 4, "seed": 0},
    "train": {"steps": 2000, "lr": 0.05, "batch": 32, "seed": 0},
    "optim": {"iterations": 500, "lr": 0.01, "l1_pos": 0.01, "l1_neg": 0.01,
              "tol": 0.0, "window": 10},
    "prune": {"fractions": [0.0, 0.5, 0.7, 0.8], "scopes": ["CB", "CU", "CN"],
              "methods": ["standard", "tropical", "combined"]},
}


class SetupError(RuntimeError):
    """A command that makes the workload's inputs did not succeed."""


#: `plot-zonotope` enumerates all 2^m subset sums of a node's m generators
#: and refuses m above this with exit code 3.  That refusal is the one failure
#: a round may have; any other non-zero exit fails the run's checks.
ENUMERATION_BOUND = 20


def _require_success(command: str, code: int) -> None:
    if code != 0:
        raise checks.CheckError(f"{command} exited {code}")


def call(argv: list[str]) -> tuple[int, str]:
    """Run one command the way the console script does; returns its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _write_json(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


#: Sweep seeds per round, as many as the README config lists.  A round of a
#: few seconds averages over the machine's fast and slow spells.
SWEEP_SEEDS_PER_ROUND = 5


@dataclass
class SweepReadme:
    """`tropiprune sweep` of the README config over seeds drawn from the workload seed."""

    seed: int

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        self.sweep_seeds = sorted(rng.sample(range(100_000), SWEEP_SEEDS_PER_ROUND))
        self.config = dict(README_CONFIG, sweep={"seeds": self.sweep_seeds})
        prune = self.config["prune"]
        self.items = (len(self.sweep_seeds) * len(prune["fractions"])
                      * len(prune["scopes"]) * len(prune["methods"]))

    def setup(self, work: Path, input_dir: Path) -> None:
        self.config_path = _write_json(input_dir / "sweep.json", self.config)

    def commands(self, out: Path) -> list[list[str]]:
        return [["sweep", "--config", self.config_path, "--out", str(out / "results.csv")]]

    def check(self, round_dir: Path, codes: list[int]) -> None:
        _require_success("sweep", codes[0])
        prune = self.config["prune"]
        checks.check_sweep_csv(round_dir / "results.csv", self.config["task"]["kind"],
                               self.sweep_seeds, prune["fractions"], prune["scopes"],
                               prune["methods"])


@dataclass
class PruneWorkload:
    """`tropiprune prune` of a freshly trained bundle, then its plots."""

    seed: int
    features: int
    bottleneck: int
    in_dim: int
    train_steps: int
    train_lr: float
    optim: dict
    fractions: list
    scopes: list
    zonotope_nodes: int

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        task_seed, model_seed, train_seed = (rng.randrange(100_000) for _ in range(3))
        self.train_config = {
            "task": {"kind": "blobs", "n_train": 2000, "n_dev": 200, "n_test": 200,
                     "dim": self.in_dim, "classes": 4, "noise": 0.5, "seed": task_seed},
            "model": {"features": self.features, "bottleneck": self.bottleneck,
                      "seed": model_seed},
            "train": {"steps": self.train_steps, "lr": self.train_lr, "batch": 32,
                      "seed": train_seed},
        }
        self.methods = ["standard", "tropical"]
        self.prune_config = {
            "model": {"features": self.features, "bottleneck": self.bottleneck},
            "optim": self.optim,
            "prune": {"fractions": self.fractions, "scopes": self.scopes,
                      "methods": self.methods},
        }
        self.nodes = sorted(rng.sample(range(self.features), self.zonotope_nodes))
        self.dims = tuple(sorted(rng.sample(range(self.features), 2)))
        self.items = len(self.fractions) * len(self.scopes) * len(self.methods)

    def setup(self, work: Path, input_dir: Path) -> None:
        train_path = _write_json(input_dir / "train.json",
                                 dict(self.train_config, out={"dir": str(input_dir)}))
        code, stderr = call(["train", "--config", train_path])
        if code != 0:
            raise SetupError(f"tropiprune train exited {code}: {stderr.strip()}")
        self.bundle_path = str(input_dir / "bundle.json")
        self.config_path = _write_json(input_dir / "prune.json",
                                       dict(self.prune_config, out={"dir": str(work / "out")}))

    def commands(self, out: Path) -> list[list[str]]:
        cmds = [["prune", "--bundle", self.bundle_path, "--config", self.config_path],
                ["plot-loss", "--trace", str(out / "trace_layer0.json"),
                 "--out", str(out / "loss.svg")]]
        for node in self.nodes:
            cmds.append(["plot-zonotope", "--before", self.bundle_path,
                         "--after", str(out / "optimized.json"), "--layer", "0",
                         "--node", str(node), "--dims", f"{self.dims[0]},{self.dims[1]}",
                         "--out", str(out / f"zonotope_n{node}.svg")])
        return cmds

    def check(self, round_dir: Path, codes: list[int]) -> None:
        _require_success("prune", codes[0])
        _require_success("plot-loss", codes[1])
        bundle_doc = checks.read_json(self.bundle_path)
        after_doc = checks.read_json(round_dir / "optimized.json")
        checks.check_objective(bundle_doc, after_doc,
                               checks.read_json(round_dir / "trace_layer0.json"),
                               self.optim["l1_pos"], self.optim["l1_neg"],
                               self.optim["iterations"])
        checks.check_prune_outputs(round_dir, bundle_doc, self.fractions, self.scopes,
                                   self.methods)
        checks.check_svg(round_dir / "loss.svg")
        for node, code in zip(self.nodes, codes[2:]):
            if code == 0:
                checks.check_zonotope_svg(round_dir / f"zonotope_n{node}.svg",
                                          bundle_doc, after_doc, node, self.dims)
            elif code != 3 or self.bottleneck <= ENUMERATION_BOUND:
                raise checks.CheckError(f"plot-zonotope --node {node} exited {code} with "
                                        f"{self.bottleneck} generators")


def prune_bert(seed: int) -> PruneWorkload:
    """The paper's target: a BERT-base Houlsby adapter, 768 wide with a 64 bottleneck."""
    return PruneWorkload(
        seed=seed, features=768, bottleneck=64, in_dim=32,
        train_steps=200, train_lr=0.01,
        optim={"iterations": 2, "lr": 0.001, "l1_pos": 0.001, "l1_neg": 0.001,
               "tol": 0.0, "window": 10},
        fractions=[0.5], scopes=["CN"], zonotope_nodes=1)


def prune_grid(seed: int) -> PruneWorkload:
    """A retention curve: a 256x16 adapter over a dense fraction x scope grid."""
    return PruneWorkload(
        seed=seed, features=256, bottleneck=16, in_dim=16,
        train_steps=500, train_lr=0.02,
        optim={"iterations": 10, "lr": 0.005, "l1_pos": 0.005, "l1_neg": 0.005,
               "tol": 0.0, "window": 10},
        fractions=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], scopes=["CB", "CU", "CN"],
        zonotope_nodes=8)


WORKLOADS = {
    "sweep_readme": SweepReadme,
    "prune_bert": prune_bert,
    "prune_grid": prune_grid,
}
