"""Golden SHA-256 digests of the files `train` and `prune` write.

Bundles, `report.json` and the loss trace are byte-identical contracts: a
change to the bundle writer, the fit or the masks that moves one byte of them
fails here.  The digests were taken with the `json.dumps(doc, indent=1,
sort_keys=True)` bundle writer that `tests/oracles.py:bundle_json` keeps.
The surrogate's `optimized.json` and `trace_layer0.json` were last pinned
when the fit began composing each iteration's node steps in closed form; the
per-node loop they replace agrees with them to 1e-12 relative
(`test_optimizer.test_run_matches_reference_loop`).
"""

import hashlib
import json

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
        "11fca315927d247f589c75e43aabf9391028cf0d9e7d4d3dc59038fe414e529b",
    "prune/pruned_standard_CB_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_standard_CB_p030.json":
        "5a035ff628714bd73c960b31ab0442998de1df4ac197b4c3cef9b748b1a85808",
    "prune/pruned_standard_CB_p060.json":
        "26955cf2e73acf47324935caec00b20381069f449571e92753afaee9205c3389",
    "prune/pruned_standard_CN_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_standard_CN_p030.json":
        "7c0e808b45d9d96b6ee3c2255be053e4f2d436551a235a3d166d9d7ba5eb8f0f",
    "prune/pruned_standard_CN_p060.json":
        "4d1e51b8cacca0f92c1423727bf4202667a5b9f485744addc592b9d9745628a8",
    "prune/pruned_standard_CU_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_standard_CU_p030.json":
        "5a035ff628714bd73c960b31ab0442998de1df4ac197b4c3cef9b748b1a85808",
    "prune/pruned_standard_CU_p060.json":
        "26955cf2e73acf47324935caec00b20381069f449571e92753afaee9205c3389",
    "prune/pruned_tropical_CB_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_tropical_CB_p030.json":
        "60212d09612b6bf07ea3535ca7a08aed41839be02cc9ca098b89fde131915790",
    "prune/pruned_tropical_CB_p060.json":
        "26955cf2e73acf47324935caec00b20381069f449571e92753afaee9205c3389",
    "prune/pruned_tropical_CN_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_tropical_CN_p030.json":
        "fcf39e906735f30c4a6113854d433ac1641efdb7a2d5e696624a1034024705af",
    "prune/pruned_tropical_CN_p060.json":
        "bf43a7e30a2f9204fce05790d3b10440071326c06b45d313591489a21478e1bb",
    "prune/pruned_tropical_CU_p000.json":
        "932b8a4bcae34b2c94cef01c8e05d4c13e5d854da3c0f316c96fa5a7dfd33da0",
    "prune/pruned_tropical_CU_p030.json":
        "60212d09612b6bf07ea3535ca7a08aed41839be02cc9ca098b89fde131915790",
    "prune/pruned_tropical_CU_p060.json":
        "26955cf2e73acf47324935caec00b20381069f449571e92753afaee9205c3389",
    "prune/report.json":
        "f948a436b375f780fbbb8bf3933781b000a5a560ebc473549b23dbdffe257349",
    "prune/trace_layer0.json":
        "71cdb4626cfa243491aaf1c186a6e04f961c103bbd925adba58648c84f013b1a",
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
