import csv
import json
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from tropiprune import cli, harness
from tropiprune.bundle import load_bundle
from tropiprune.cli import main
from tropiprune.harness import METHODS, SyntheticTask, init_model
from tropiprune.optimizer import OptimConfig

BASE_CONFIG = {
    "task": {"kind": "blobs", "n_train": 400, "n_dev": 120, "n_test": 120,
             "dim": 8, "classes": 3, "noise": 0.5, "seed": 7},
    "model": {"features": 16, "bottleneck": 4},
    "train": {"steps": 300, "lr": 0.05, "batch": 32},
    "optim": {"iterations": 60, "lr": 0.01, "l1_pos": 0.01, "l1_neg": 0.01, "tol": 0.0},
    "prune": {"fractions": [0.0, 0.5], "scopes": ["CU"],
              "methods": ["standard", "tropical"]},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["out"] = {"dir": str(tmp_path / "run")}
    for dotted, value in (overrides or {}).items():
        node = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        if value is None:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_train_writes_bundle_with_expected_shapes(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    bundle = load_bundle(tmp_path / "run" / "bundle.json")
    assert bundle.model.adapter.down.shape == (4, 17)
    assert bundle.model.adapter.up.shape == (16, 4)
    log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,loss" and len(log) == 301


def test_train_is_byte_identical_across_runs(tmp_path):
    cfg_a = write_config(tmp_path, {"out.dir": str(tmp_path / "a")}, name="a.json")
    cfg_b = write_config(tmp_path, {"out.dir": str(tmp_path / "b")}, name="b.json")
    assert main(["train", "--config", str(cfg_a)]) == 0
    assert main(["train", "--config", str(cfg_b)]) == 0
    assert (tmp_path / "a" / "bundle.json").read_bytes() == \
        (tmp_path / "b" / "bundle.json").read_bytes()


def test_train_missing_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"task.kind": None})
    assert main(["train", "--config", str(cfg)]) == 2
    assert "task.kind" in capsys.readouterr().err


def test_train_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["train", "--config", str(path)]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["not-utf8", "directory"])
def test_unreadable_config_exits_2(tmp_path, capsys, case):
    path = tmp_path / "bad.json"
    if case == "not-utf8":
        text = write_config(tmp_path).read_text()
        path.write_bytes(text.replace('"blobs"', '"blöbs"').encode("latin-1"))
    else:
        path.mkdir()
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "run").exists()


def test_seed_env_override(tmp_path, monkeypatch):
    cfg_a = write_config(tmp_path, {"out.dir": str(tmp_path / "a")}, name="a.json")
    cfg_b = write_config(tmp_path, {"out.dir": str(tmp_path / "b"),
                                    "task.seed": 12345}, name="b.json")
    monkeypatch.setenv("TROPIPRUNE_SEED", "77")
    assert main(["train", "--config", str(cfg_a)]) == 0
    assert main(["train", "--config", str(cfg_b)]) == 0
    # the env seed wins over both configs, so outputs agree
    assert (tmp_path / "a" / "bundle.json").read_bytes() == \
        (tmp_path / "b" / "bundle.json").read_bytes()


# (command, section, key, value): each exits 2 with "config error:" and the
# section's name.  key None replaces the whole section.  Each raised out of
# main, exited 0, or named no section before every config key was checked.
MALFORMED = [
    ("prune", "optim", "iterations", None),
    ("train", "task", "n_train", [1]),
    ("train", "task", "n_train", float("inf")),
    ("sweep", "task", "noise", float("nan")),
    ("sweep", "train", "lr", float("nan")),
    ("prune", "optim", "lr", float("nan")),
    ("train", "model", "features", "abc"),
    ("prune", "model", "features", "abc"),
    ("train", "model", "features", 0),
    ("train", "model", "seed", "x"),
    ("train", "train", "steps", -1),
    ("train", "train", "batch", 0),
    ("prune", "prune", "fractions", ["x"]),
    ("prune", "prune", "scopes", 5),
    ("prune", "prune", "scopes", "CU"),
    ("prune", "prune", "scopes", []),
    ("prune", "prune", "methods", 5),
    ("prune", "prune", "methods", []),
    ("sweep", "prune", "methods", ["magnitude"]),
    ("sweep", "sweep", "seeds", ["a"]),
    ("sweep", "sweep", "seeds", []),
    ("prune", "optim", "l1pos", 0.5),
    ("prune", "optim", "seed", 3),
    ("train", "out", "dir", None),
    ("sweep", "optm", None, {"iterations": 5}),
    ("train", "train", "steps", 0.5),
    ("train", "task", "n_train", True),
    ("train", "model", "seed", 1.5),
    ("sweep", "sweep", "seeds", [0.5]),
    ("train", "model", "in_dim", 99),
    ("train", "model", "classes", 7),
    ("sweep", "model", "in_dim", 99),
    ("sweep", "model", "classes", 7),
]


@pytest.fixture(scope="module")
def trained_bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bundle")
    assert main(["train", "--config", str(write_config(tmp))]) == 0
    return tmp / "run" / "bundle.json"


@pytest.mark.parametrize("command,section,key,value", MALFORMED, ids=[
    f"{c}-{s}{'' if k is None else '.' + k}={json.dumps(v)}" for c, s, k, v in MALFORMED])
def test_malformed_config_exits_2(tmp_path, capsys, trained_bundle,
                                  command, section, key, value):
    cfg = json.loads(write_config(tmp_path).read_text())
    if key is None:
        cfg[section] = value
    else:
        cfg.setdefault(section, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    argv = {"train": ["train", "--config", str(path)],
            "prune": ["prune", "--bundle", str(trained_bundle), "--config", str(path)],
            "sweep": ["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")]}
    assert main(argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and section in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "r.csv").exists()


def test_readme_config_resolves_through_the_readers(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(block)
    path = tmp_path / "readme.json"
    path.write_text(block)
    cfg = cli._load_config(str(path))
    assert list(doc) == list(cli._KEYS)
    task = cli._read(cfg, "task", SyntheticTask)
    assert asdict(task) == doc["task"]
    assert asdict(cli._read(cfg, "optim", OptimConfig)) == doc["optim"]
    model = cli._read(cfg, "model", init_model, in_dim=task.dim, classes=task.classes)
    assert (model.features, model.adapter.bottleneck) == \
        (doc["model"]["features"], doc["model"]["bottleneck"])
    assert cli._settings(cfg, "model") == doc["model"]
    assert cli._settings(cfg, "train") == doc["train"]
    fractions, scopes, methods = cli._grid(cfg, METHODS)
    assert fractions == doc["prune"]["fractions"]
    assert [s.value for s in scopes] == doc["prune"]["scopes"]
    assert methods == doc["prune"]["methods"]
    assert cli._list(cfg, "sweep", "seeds", int) == doc["sweep"]["seeds"]
    assert cli._out_dir(cfg) == Path(doc["out"]["dir"])


def test_values_are_coerced_for_a_wrapped_callee(tmp_path, monkeypatch):
    # a wrapper bound to cli.train (as a tracer installs) has no annotations
    # of its own; the values still arrive coerced to harness.train's
    seen = {}

    def wrapper(*args, **kwargs):
        seen.update(kwargs)
        return harness.train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", wrapper)
    cfg = write_config(tmp_path, {"train.steps": "20", "train.lr": "0.05"})
    assert main(["train", "--config", str(cfg)]) == 0
    assert seen["steps"] == 20 and type(seen["lr"]) is float


def prune_setup(tmp_path, overrides=None):
    cfg = write_config(tmp_path, overrides)
    assert main(["train", "--config", str(cfg)]) == 0
    bundle = tmp_path / "run" / "bundle.json"
    assert main(["prune", "--bundle", str(bundle), "--config", str(cfg)]) == 0
    return cfg, tmp_path / "run"


def test_prune_outputs(tmp_path):
    _, out = prune_setup(tmp_path)
    report = json.loads((out / "report.json").read_text())
    assert report["total_params"] == 4 * 17 + 16 * 4
    cells = {(c["method"], c["p"]): c for c in report["cells"]}
    assert len(cells) == 4
    for cell in report["cells"]:
        assert cell["p_hat"] <= cell["p"] + 1e-12
        assert (out / cell["bundle"]).exists()
    # unpruned cell reproduces the input tensors exactly
    original = load_bundle(out / "bundle.json")
    untouched = load_bundle(out / cells[("tropical", 0.0)]["bundle"])
    assert np.array_equal(untouched.model.adapter.down, original.model.adapter.down)
    assert np.array_equal(untouched.model.adapter.up, original.model.adapter.up)
    # optimized surrogate bundle is present and flagged
    assert load_bundle(out / "optimized.json").optimized
    trace = json.loads((out / "trace_layer0.json").read_text())
    assert len(trace["trace"]) == 61


def test_prune_masks_match_library_route(tmp_path):
    from tropiprune.optimizer import OptimConfig, run
    from tropiprune.strategies import PruneScope, tropical_mask

    cfg, out = prune_setup(tmp_path)
    original = load_bundle(out / "bundle.json").model.adapter
    optimized = run(original, OptimConfig(iterations=60, lr=0.01, l1_pos=0.01,
                                          l1_neg=0.01, tol=0.0))
    mask, p_hat = tropical_mask([original], [optimized], 0.5,
                                PruneScope.CLASS_UNIFORM)
    pruned = load_bundle(out / "pruned_tropical_CU_p050.json").model.adapter
    down_mask, up_mask = mask.entries[0]
    assert np.all(pruned.down[down_mask] == 0.0)
    assert np.all(pruned.up[up_mask] == 0.0)
    assert np.array_equal(pruned.down[~down_mask], original.down[~down_mask])
    assert np.array_equal(pruned.up[~up_mask], original.up[~up_mask])
    report = json.loads((out / "report.json").read_text())
    got = next(c for c in report["cells"]
               if c["method"] == "tropical" and c["p"] == 0.5)
    assert got["p_hat"] == pytest.approx(p_hat)


@pytest.mark.parametrize("key,entries", [("fractions", [0.501, 0.504]),
                                         ("scopes", ["CU", "cu"])])
def test_prune_colliding_bundle_names_exit_2(tmp_path, capsys, trained_bundle, key, entries):
    cfg = write_config(tmp_path, {f"prune.{key}": entries})
    assert main(["prune", "--bundle", str(trained_bundle), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and all(repr(e) in err for e in entries)
    assert not (tmp_path / "run").exists()


def test_prune_close_distinct_fractions_write_distinct_bundles(tmp_path, trained_bundle):
    cfg = write_config(tmp_path, {"prune.fractions": [0.494, 0.506]})
    assert main(["prune", "--bundle", str(trained_bundle), "--config", str(cfg)]) == 0
    out = tmp_path / "run"
    names = [c["bundle"] for c in json.loads((out / "report.json").read_text())["cells"]]
    assert len(set(names)) == len(names) == 4
    assert all((out / name).exists() for name in names)


def test_prune_dim_mismatch_exits_3(tmp_path, capsys, trained_bundle):
    for key, value in (("features", 8), ("in_dim", 99), ("classes", 7)):
        bad_cfg = write_config(tmp_path, {f"model.{key}": value}, name="bad.json")
        assert main(["prune", "--bundle", str(trained_bundle), "--config", str(bad_cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and key in err


def test_matching_model_dims_pass(tmp_path):
    # the task's dim and classes, given again as model keys, are accepted
    prune_setup(tmp_path, {"model.in_dim": 8, "model.classes": 3})


# (case, edit of a trained bundle's document): each exits 3 with "data error:"
MALFORMED_BUNDLES = [
    ("no-manifest-model", lambda doc: doc["manifest"].pop("model")),
    ("no-features", lambda doc: doc["manifest"]["model"].pop("features")),
    ("no-down-shape", lambda doc: doc["manifest"]["layers"][0].pop("down_shape")),
    ("layers-5", lambda doc: doc["manifest"].update(layers=5)),
    ("string-tensor", lambda doc: doc["tensors"]["adapter0.up"][0].__setitem__(0, "x")),
    ("ragged-tensor", lambda doc: doc["tensors"]["adapter0.down"][0].pop()),
    ("meta-list", lambda doc: doc["manifest"].update(meta=[1])),
]


@pytest.mark.parametrize("edit", [e for _, e in MALFORMED_BUNDLES] + ["list", "latin-1"],
                         ids=[c for c, _ in MALFORMED_BUNDLES] + ["top-level-list", "not-utf8"])
def test_malformed_bundle_exits_3(tmp_path, capsys, trained_bundle, edit):
    text = trained_bundle.read_text()
    bad = tmp_path / "bad.json"
    if edit == "list":
        bad.write_text("[" + text + "]")
    elif edit == "latin-1":
        bad.write_bytes(text.replace('"blobs"', '"blöbs"').encode("latin-1"))
    else:
        doc = json.loads(text)
        edit(doc)
        bad.write_text(json.dumps(doc))
    assert main(["prune", "--bundle", str(bad), "--config", str(write_config(tmp_path))]) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not (tmp_path / "run").exists()


def test_prune_missing_bundle_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["prune", "--bundle", str(tmp_path / "ghost.json"),
                 "--config", str(cfg)]) == 3
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_prune_divergence_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, {"optim.lr": 1e9, "optim.iterations": 200})
    assert main(["train", "--config", str(cfg)]) == 0
    bundle = tmp_path / "run" / "bundle.json"
    assert main(["prune", "--bundle", str(bundle), "--config", str(cfg)]) == 4
    assert "diverged" in capsys.readouterr().err


def test_sweep_divergence_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, {"optim.lr": 1e9, "optim.iterations": 200,
                                  "task.n_train": 300, "train.steps": 200})
    out_csv = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 4
    assert "diverged" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_training_divergence_exits_4(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"train.lr": 1e300})
    out_csv = tmp_path / "results.csv"
    argv = {"train": ["train", "--config", str(cfg)],
            "sweep": ["sweep", "--config", str(cfg), "--out", str(out_csv)]}[command]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("numeric failure: training diverged at step")
    assert not (tmp_path / "run").exists() and not out_csv.exists()


def test_sweep_non_finite_logits_exits_4(tmp_path, capsys):
    # one step at lr 1e308 leaves finite weights whose logits overflow
    cfg = write_config(tmp_path, {"task.dim": 4, "model.features": 8, "model.bottleneck": 2,
                                  "train.steps": 1, "train.lr": 1e308,
                                  "sweep": {"seeds": [0]}})
    out_csv = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "non-finite logits" in err
    assert not out_csv.exists()


def test_sweep_csv_contract(tmp_path):
    cfg = write_config(tmp_path, {
        "task.n_train": 300, "train.steps": 200,
        "prune.fractions": [0.0, 0.6],
        "prune.scopes": ["CB", "CU", "CN"],
        "prune.methods": ["standard", "tropical", "combined"],
        "sweep": {"seeds": [0, 1]},
    })
    out_csv = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 0
    text = out_csv.read_text()
    assert text.splitlines()[0] == \
        "task,method,scope,p,p_hat,retained_pct,dev_metric,test_metric,seed"
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 2 * 3 * 3 * 2  # fractions * scopes * methods * seeds
    for row in rows:
        p_hat = float(row["p_hat"])
        assert float(row["retained_pct"]) == pytest.approx(100.0 * (1.0 - p_hat))
        assert float(row["p_hat"]) <= float(row["p"]) + 1e-12
    # unpruned rows agree across methods within each (scope, seed) cell
    fm = {}
    for row in rows:
        if row["p"] == "0.0":
            fm.setdefault((row["scope"], row["seed"]), set()).add(row["test_metric"])
    assert all(len(v) == 1 for v in fm.values())
    # the command is idempotent: a second run writes identical bytes
    again = tmp_path / "again.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(again)]) == 0
    assert again.read_bytes() == out_csv.read_bytes()


def test_plot_loss_from_prune_trace(tmp_path):
    _, out = prune_setup(tmp_path)
    svg_path = tmp_path / "loss.svg"
    assert main(["plot-loss", "--trace", str(out / "trace_layer0.json"),
                 "--out", str(svg_path)]) == 0
    ET.fromstring(svg_path.read_text())


def test_plot_loss_empty_trace_exits_3(tmp_path, capsys):
    bad = tmp_path / "trace.json"
    bad.write_text(json.dumps({"trace": []}))
    assert main(["plot-loss", "--trace", str(bad), "--out",
                 str(tmp_path / "x.svg")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("case", ["not-utf8", "directory"])
def test_plot_loss_unreadable_trace_exits_3(tmp_path, capsys, case):
    path = tmp_path / "trace.json"
    if case == "not-utf8":
        path.write_bytes('{"trace": [[0, 1.0]], "note": "ö"}'.encode("latin-1"))
    else:
        path.mkdir()
    svg_path = tmp_path / "x.svg"
    assert main(["plot-loss", "--trace", str(path), "--out", str(svg_path)]) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not svg_path.exists()


def test_plot_zonotope(tmp_path):
    _, out = prune_setup(tmp_path)
    svg_path = tmp_path / "zono.svg"
    assert main(["plot-zonotope", "--before", str(out / "bundle.json"),
                 "--after", str(out / "optimized.json"), "--layer", "0",
                 "--node", "3", "--dims", "0,1", "--out", str(svg_path)]) == 0
    root = ET.fromstring(svg_path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}polygon")) == 2


def test_plot_zonotope_coincident_when_same_bundle(tmp_path):
    _, out = prune_setup(tmp_path)
    svg_path = tmp_path / "same.svg"
    assert main(["plot-zonotope", "--before", str(out / "bundle.json"),
                 "--after", str(out / "bundle.json"), "--layer", "0",
                 "--node", "0", "--dims", "0,1", "--out", str(svg_path)]) == 0
    root = ET.fromstring(svg_path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    polys = root.findall(f".//{ns}polygon")
    assert polys[0].attrib["points"] == polys[1].attrib["points"]


def polygon_area(points_attr):
    pts = [tuple(map(float, p.split(","))) for p in points_attr.split()]
    if len(pts) < 3:
        return 0.0
    twice = sum(pts[i][0] * pts[(i + 1) % len(pts)][1]
                - pts[(i + 1) % len(pts)][0] * pts[i][1] for i in range(len(pts)))
    return abs(twice) / 2


def test_plot_zonotope_converged_fixture_keeps_shape(tmp_path):
    # weights far above the sparsity pull: the fitted surrogate converges with
    # barely moved generators, so the plotted polygons nearly coincide
    from tropiprune.bundle import WeightBundle, save_bundle
    from tropiprune.harness import TinyModel
    from tropiprune.adapter import AdapterLayer

    rng = np.random.default_rng(6)
    adapter = AdapterLayer(rng.choice([-1.0, 1.0], (4, 17)) * rng.uniform(0.5, 1.5, (4, 17)),
                           rng.choice([-1.0, 1.0], (16, 4)) * rng.uniform(0.5, 1.5, (16, 4)))
    model = TinyModel(rng.normal(size=(16, 8)), adapter,
                      np.zeros((3, 16)), np.zeros(3))
    bundle_path = tmp_path / "fixture.json"
    save_bundle(WeightBundle(model), bundle_path)
    cfg = write_config(tmp_path, {"optim.l1_pos": 1e-3, "optim.l1_neg": 1e-3,
                                  "optim.iterations": 200,
                                  "prune.fractions": [0.5]})
    assert main(["prune", "--bundle", str(bundle_path), "--config", str(cfg)]) == 0
    trace = json.loads((tmp_path / "run" / "trace_layer0.json").read_text())["trace"]
    assert trace[-1][1] / trace[-2][1] == pytest.approx(1.0, abs=1e-3)  # converged
    svg_path = tmp_path / "zono.svg"
    assert main(["plot-zonotope", "--before", str(bundle_path),
                 "--after", str(tmp_path / "run" / "optimized.json"), "--layer", "0",
                 "--node", "2", "--dims", "0,1", "--out", str(svg_path)]) == 0
    ns = "{http://www.w3.org/2000/svg}"
    polys = ET.fromstring(svg_path.read_text()).findall(f".//{ns}polygon")
    before, after = (p.attrib["points"] for p in polys)
    bottleneck = 4
    assert len(before.split()) <= 2 * bottleneck
    assert len(after.split()) <= 2 * bottleneck
    assert 0.5 * polygon_area(before) <= polygon_area(after) <= 1.5 * polygon_area(before)


def test_plot_zonotope_bad_node_exits_3(tmp_path, capsys):
    _, out = prune_setup(tmp_path)
    assert main(["plot-zonotope", "--before", str(out / "bundle.json"),
                 "--after", str(out / "bundle.json"), "--layer", "0",
                 "--node", "99", "--dims", "0,1",
                 "--out", str(tmp_path / "x.svg")]) == 3
    assert "node" in capsys.readouterr().err


def test_plot_zonotope_bad_dims_exit_codes(tmp_path, capsys):
    _, out = prune_setup(tmp_path)
    assert main(["plot-zonotope", "--before", str(out / "bundle.json"),
                 "--after", str(out / "bundle.json"), "--layer", "0",
                 "--node", "0", "--dims", "0,99",
                 "--out", str(tmp_path / "x.svg")]) == 3
    assert main(["plot-zonotope", "--before", str(out / "bundle.json"),
                 "--after", str(out / "bundle.json"), "--layer", "0",
                 "--node", "0", "--dims", "zero,one",
                 "--out", str(tmp_path / "x.svg")]) == 2
    capsys.readouterr()
