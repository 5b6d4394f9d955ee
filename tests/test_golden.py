"""Golden SHA-256 digests of the files `train` and `prune` write.

Bundles, `report.json` and the loss trace are byte-identical contracts: a
change to the bundle writer, the fit or the masks that moves one byte of them
fails here.  The digests were taken with the `json.dumps(doc, indent=1,
sort_keys=True)` bundle writer that `tests/oracles.py:bundle_json` keeps.
The surrogate's `optimized.json` and `trace_layer0.json`, `report.json` and
the pruned bundles at p > 0 were last pinned when the fit became exact
block-coordinate descent; `test_optimizer.test_run_blocks_are_exact_minimisers`
checks each block update against the objective's definition.  At this
config's l1 = 0.1 the fit's optimum keeps only one `down` entry and three `up`
entries.  At p = 0.3 five of the six masks then prune at most one entry that
is already 0, and those bundles equal `train/bundle.json`.

`sweep`'s CSV is pinned the same way, for a config whose fits run with
`tol` 0 (a fixed iteration count) and whose three seeds share one stacked
worker.  Its digest was taken before the fit learned to stop at a repeated
iterate and before a fraction's cells were scored as one stack, so it holds
both to the bytes of the plain every-iteration, one-cell-at-a-time route.
"""

import hashlib
import json

from tropiprune import cli
from tropiprune.cli import main

GOLDEN_CONFIG = {
    "task": {"kind": "blobs", "n_train": 300, "n_dev": 60, "n_test": 60,
             "dim": 6, "classes": 3, "noise": 0.5, "seed": 5},
    "model": {"features": 12, "bottleneck": 3, "seed": 1},
    "train": {"steps": 150, "lr": 0.05, "batch": 16, "seed": 2},
    "optim": {"iterations": 40, "lr": 0.01, "l1_pos": 0.1, "l1_neg": 0.1, "tol": 0.0},
    "prune": {"fractions": [0.0, 0.3, 0.6], "scopes": ["CB", "CU", "CN"],
              "methods": ["standard", "tropical"]},
}

GOLDEN = {
    "prune/optimized.json":
        "7441961a605457b3144125af3a1b473fbfb67b5b8a29c94c92a8c017e338ac1d",
    "prune/pruned_standard_CB_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_standard_CB_p030.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_standard_CB_p060.json":
        "af70a98555eb89f0b51836eaa8acd49e0e51448bcedaa825954831aa8b624f51",
    "prune/pruned_standard_CN_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_standard_CN_p030.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_standard_CN_p060.json":
        "c2d605042531f4bae293c8f2c58788b7bcfb7f806558b4007f451942a1d0945d",
    "prune/pruned_standard_CU_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_standard_CU_p030.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_standard_CU_p060.json":
        "af70a98555eb89f0b51836eaa8acd49e0e51448bcedaa825954831aa8b624f51",
    "prune/pruned_tropical_CB_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_tropical_CB_p030.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_tropical_CB_p060.json":
        "f3db7e89dda6709797185553729d2938e986e58decdf61809f33b952f2b9d5a8",
    "prune/pruned_tropical_CN_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_tropical_CN_p030.json":
        "7057d18e425160398edfc4a1aa4c09bd66b76d3b216b3aa3d1446de95b175740",
    "prune/pruned_tropical_CN_p060.json":
        "73c3d316ec8c035a8e7b3d76d75fef2696abd43bcb7d0f0a3c32078d27bc0236",
    "prune/pruned_tropical_CU_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_tropical_CU_p030.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_tropical_CU_p060.json":
        "f3db7e89dda6709797185553729d2938e986e58decdf61809f33b952f2b9d5a8",
    "prune/report.json":
        "7549ad301542791aa6d8ed6fecb1e99616343e9d9ae506cf3e0279f95ac14da2",
    "prune/trace_layer0.json":
        "e68ed03b113bb2b41b6b8ba81529c9cb36cbca77df4fc86ed298112bdf2054f5",
    "train/bundle.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
}


def digests(tmp_path) -> dict:
    """SHA-256 of train's bundle.json and of every file prune writes, by name."""
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps(dict(GOLDEN_CONFIG, out={"dir": str(tmp_path / "t")})))
    prune_cfg = tmp_path / "prune.json"
    prune_cfg.write_text(json.dumps(dict(GOLDEN_CONFIG, out={"dir": str(tmp_path / "p")})))
    bundle = tmp_path / "t" / "bundle.json"
    assert main(["train", "--config", str(train_cfg)]) == 0
    assert main(["prune", "--bundle", str(bundle), "--config", str(prune_cfg)]) == 0
    files = {"train/bundle.json": bundle}
    files.update({f"prune/{p.name}": p for p in (tmp_path / "p").iterdir()})
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in sorted(files.items())}


def test_train_and_prune_outputs_match_golden_digests(tmp_path):
    assert digests(tmp_path) == GOLDEN


SWEEP_CONFIG = {
    "task": {"kind": "blobs", "n_train": 300, "n_dev": 60, "n_test": 60,
             "dim": 4, "classes": 4, "noise": 2.0, "seed": 5},
    "model": {"features": 12, "bottleneck": 3},
    "train": {"steps": 150, "lr": 0.05, "batch": 16},
    "optim": {"iterations": 40, "lr": 0.01, "l1_pos": 0.01, "l1_neg": 0.01, "tol": 0.0},
    "prune": {"fractions": [0.0, 0.5, 0.9], "scopes": ["CB", "CU", "CN"],
              "methods": ["standard", "tropical", "combined"]},
    "sweep": {"seeds": [5, 6, 7]},
}

#: 81 rows; in 4 of the 27 (seed, scope, p) cells the two methods score apart.
GOLDEN_SWEEP = "e8cb8ef848456155c9313e9e4d3ad9677ef5d90c165788a78073572a9afb0466"


def test_sweep_csv_matches_golden_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # one worker, one stack of 3
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    out = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SWEEP
