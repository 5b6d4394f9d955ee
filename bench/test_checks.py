"""Each output check passes on real outputs and fails on a corrupted copy.

    python3 -m pytest bench/test_checks.py -q

The outputs come from the command line at toy size (16x4), so these tests
take a few seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import README_CONFIG, call  # noqa: E402

FRACTIONS = [0.3, 0.6]
SCOPES = ["CB", "CN"]
METHODS = ["standard", "tropical"]
OPTIM = {"iterations": 6, "lr": 0.01, "l1_pos": 0.01, "l1_neg": 0.01, "tol": 0.0,
         "window": 10}
NODE, DIMS = 3, (0, 5)
ZONOTOPE_SVG = f"zonotope_n{NODE}.svg"
SWEEP_SEEDS = [0, 1]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def pruned(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("prune")
    train = _write(base / "train.json", {
        "task": {"kind": "blobs", "dim": 4, "classes": 3, "noise": 0.5, "seed": 5},
        "model": {"features": 16, "bottleneck": 4, "seed": 6},
        "train": {"steps": 100, "lr": 0.05, "seed": 7},
        "out": {"dir": str(base)}})
    prune = _write(base / "prune.json", {
        "optim": OPTIM,
        "prune": {"fractions": FRACTIONS, "scopes": SCOPES, "methods": METHODS},
        "out": {"dir": str(base / "out")}})
    out = base / "out"
    assert call(["train", "--config", train])[0] == 0
    assert call(["prune", "--bundle", str(base / "bundle.json"), "--config", prune])[0] == 0
    assert call(["plot-zonotope", "--before", str(base / "bundle.json"),
                 "--after", str(out / "optimized.json"), "--layer", "0",
                 "--node", str(NODE), "--dims", f"{DIMS[0]},{DIMS[1]}",
                 "--out", str(out / ZONOTOPE_SVG)])[0] == 0
    assert call(["plot-loss", "--trace", str(out / "trace_layer0.json"),
                 "--out", str(out / "loss.svg")])[0] == 0
    return base


@pytest.fixture(scope="module")
def swept(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("sweep")
    cfg = dict(README_CONFIG, train=dict(README_CONFIG["train"], steps=200),
               optim=dict(README_CONFIG["optim"], iterations=20),
               sweep={"seeds": SWEEP_SEEDS})
    path = _write(base / "sweep.json", cfg)
    assert call(["sweep", "--config", path, "--out", str(base / "results.csv")])[0] == 0
    return base / "results.csv"


@pytest.fixture
def copy(pruned, tmp_path) -> Path:
    """A private copy of the prune outputs that a test may corrupt."""
    shutil.copytree(pruned, tmp_path / "run")
    return tmp_path / "run"


def _check_prune(base: Path) -> None:
    bundle_doc = checks.read_json(base / "bundle.json")
    after_doc = checks.read_json(base / "out" / "optimized.json")
    checks.check_objective(bundle_doc, after_doc,
                           checks.read_json(base / "out" / "trace_layer0.json"),
                           OPTIM["l1_pos"], OPTIM["l1_neg"], OPTIM["iterations"])
    checks.check_prune_outputs(base / "out", bundle_doc, FRACTIONS, SCOPES, METHODS)
    checks.check_zonotope_svg(base / "out" / ZONOTOPE_SVG, bundle_doc, after_doc,
                              NODE, DIMS)


def _check_sweep(path: Path) -> None:
    checks.check_sweep_csv(path, "blobs", SWEEP_SEEDS, README_CONFIG["prune"]["fractions"],
                           README_CONFIG["prune"]["scopes"], README_CONFIG["prune"]["methods"])


def test_real_outputs_pass(pruned, swept):
    _check_prune(pruned)
    _check_sweep(swept)
    checks.check_identical_dirs(pruned / "out", pruned / "out")


@pytest.mark.parametrize("prune_it", [True, False])
def test_flipped_mask_entry_fails(copy, prune_it):
    report = checks.read_json(copy / "out" / "report.json")
    cell = next(c for c in report["cells"] if c["method"] == "tropical" and c["pruned"])
    path = copy / "out" / cell["bundle"]
    doc = checks.read_json(path)
    original = checks.read_json(copy / "bundle.json")["tensors"]
    for key in ("adapter0.down", "adapter0.up"):
        before, after = np.array(original[key]), np.array(doc["tensors"][key])
        # zero one entry the mask keeps, or restore one it prunes
        found = np.argwhere((after != 0.0) if prune_it else (after != before))
        if len(found):
            r, c = found[0]
            after[r, c] = 0.0 if prune_it else before[r, c]
            doc["tensors"][key] = after.tolist()
            break
    else:
        pytest.fail("no entry to flip")
    path.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError, match=cell["bundle"]):
        _check_prune(copy)


def test_perturbed_surrogate_weight_fails(copy):
    path = copy / "out" / "optimized.json"
    doc = checks.read_json(path)
    doc["tensors"]["adapter0.down"][0][0] += 1e-3
    path.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError, match="last trace entry"):
        _check_prune(copy)


def test_wrong_p_hat_fails(copy):
    path = copy / "out" / "report.json"
    report = checks.read_json(path)
    report["cells"][-1]["p_hat"] *= 1.5
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="p_hat"):
        _check_prune(copy)


def test_moved_zonotope_vertex_fails(copy):
    path = copy / "out" / ZONOTOPE_SVG
    text = path.read_text()
    first = checks.svg_polygons(text)[0][0]
    old = f"{first[0]:.6g},{first[1]:.6g}"
    new = f"{first[0] * 1.01:.6g},{first[1] * 1.01:.6g}"
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(checks.CheckError, match="support"):
        _check_prune(copy)


def test_dropped_csv_row_fails(swept, tmp_path):
    lines = swept.read_text().splitlines(keepends=True)
    broken = tmp_path / "results.csv"
    broken.write_text("".join(lines[:5] + lines[6:]))
    with pytest.raises(checks.CheckError, match="rows"):
        _check_sweep(broken)


def test_combined_off_the_dev_rule_fails(swept, tmp_path):
    rows = swept.read_text().splitlines()
    at = next(i for i, r in enumerate(rows) if r.startswith("blobs,combined,")
              and r.split(",")[3] != "0.0")
    cols = rows[at].split(",")
    cols[6] = repr(float(cols[6]) / 2.0)
    rows[at] = ",".join(cols)
    broken = tmp_path / "results.csv"
    broken.write_text("\n".join(rows) + "\n")
    with pytest.raises(checks.CheckError, match="combined"):
        _check_sweep(broken)


def test_changed_repeat_fails(copy, pruned):
    path = copy / "out" / "report.json"
    path.write_text(path.read_text() + " ")
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_identical_dirs(pruned / "out", copy / "out")


def _prune_workload(base: Path, bottleneck: int) -> workloads.PruneWorkload:
    """The `pruned` fixture's commands as a workload that declares `bottleneck`."""
    workload = workloads.PruneWorkload(
        seed=0, features=16, bottleneck=bottleneck, in_dim=4, train_steps=100,
        train_lr=0.05, optim=OPTIM, fractions=FRACTIONS, scopes=SCOPES, zonotope_nodes=1)
    workload.nodes, workload.dims = [NODE], DIMS
    workload.bundle_path = str(base / "bundle.json")
    return workload


def test_workload_checks_pass_on_real_outputs(pruned, swept):
    _prune_workload(pruned, bottleneck=4).check(pruned / "out", [0, 0, 0])
    sweep = workloads.SweepReadme(0)
    sweep.sweep_seeds = SWEEP_SEEDS
    sweep.check(swept.parent, [0])


@pytest.mark.parametrize("codes", [[1, 0, 0], [0, 1, 0], [0, 0, 3], [0, 0, 1]])
def test_unexpected_exit_code_fails(pruned, codes):
    with pytest.raises(checks.CheckError, match="exited"):
        _prune_workload(pruned, bottleneck=4).check(pruned / "out", codes)


def test_failed_sweep_fails(swept):
    with pytest.raises(checks.CheckError, match="sweep exited 4"):
        workloads.SweepReadme(0).check(swept.parent, [4])


def test_zonotope_refusal_passes_only_above_the_bound(pruned):
    above = _prune_workload(pruned, bottleneck=workloads.ENUMERATION_BOUND + 1)
    above.check(pruned / "out", [0, 0, 3])
    with pytest.raises(checks.CheckError, match="exited 1"):
        above.check(pruned / "out", [0, 0, 1])
