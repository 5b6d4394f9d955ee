import csv
import json
import multiprocessing
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import tropiprune
from oracles import bundle_json, mask_tuples
from tropiprune import AdapterLayer, cli, harness, optimizer
from tropiprune.bundle import WeightBundle, load_bundle, save_bundle
from tropiprune.cli import main
from tropiprune.errors import NumericError
from tropiprune.harness import METHODS, SyntheticTask, init_model
from tropiprune.optimizer import OptimConfig
from tropiprune.strategies import PruneScope, apply_mask, prune_grid

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


# The ways an input file can fail to hold a JSON document.  Every input file
# (config, bundle, trace) is tested with each of them.
BROKEN_FILES = ["missing", "directory", "not-utf8", "invalid-json"]


def break_file(path, case, text):
    """Leave at `path` the broken file `case` names; `text` is a valid document holding "ö"."""
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(text.encode("latin-1"))
    elif case == "invalid-json":
        path.write_text("{not json")


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


@pytest.mark.parametrize("case", BROKEN_FILES)
def test_unreadable_config_exits_2(tmp_path, capsys, case):
    path = tmp_path / "bad.json"
    break_file(path, case, write_config(tmp_path).read_text().replace('"blobs"', '"blöbs"'))
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


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_negative_seed_env_exits_2(tmp_path, capsys, monkeypatch, command):
    cfg = write_config(tmp_path)
    out_csv = tmp_path / "r.csv"
    monkeypatch.setenv("TROPIPRUNE_SEED", "-1")
    argv = {"train": ["train", "--config", str(cfg)],
            "sweep": ["sweep", "--config", str(cfg), "--out", str(out_csv)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "TROPIPRUNE_SEED" in err
    assert not (tmp_path / "run").exists() and not out_csv.exists()


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
    ("train", "task", "seed", -1),
    ("sweep", "sweep", "seeds", [-1]),
    ("train", "task", "noise", float("inf")),
    # a boolean read as 1.0, or an infinite weight, ran on: exit 0, or 4 at iteration 0
    ("prune", "optim", "tol", True),
    ("prune", "prune", "fractions", [True]),
    ("prune", "optim", "l1_pos", float("inf")),
    ("prune", "optim", "l1_neg", float("inf")),
    ("prune", "optim", "lr", float("inf")),
    ("train", "train", "lr", float("inf")),
    ("sweep", "train", "lr", float("inf")),
    # a key the command does not read went unchecked: exit 0
    ("train", "optim", "iterations", "abc"),
    ("train", "optim", "lr", True),
    ("prune", "train", "steps", "abc"),
    ("prune", "task", "n_train", 2.5),
    ("prune", "sweep", "seeds", "x"),
    ("train", "prune", "fractions", ["x"]),
    # exited 2 before too, untested; the sweep's train key now exits before any fork
    ("sweep", "train", "steps", "abc"),
    ("train", "task", None, [1]),
    ("prune", "prune", "fractions", [1.5]),
    ("train", "out", None, {}),
    # a NUL, valid in JSON but in no file name: trained or fitted, then exit 1
    ("train", "out", "dir", "a\u0000b"),
    ("prune", "out", "dir", "a\u0000b"),
    # a repeated method wrote its bundles twice, or scored fewer rows than the grid: exit 0
    ("prune", "prune", "methods", ["tropical", "tropical"]),
    ("sweep", "prune", "methods", ["combined", "combined"]),
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


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


def test_os_error_exits_3(tmp_path, capsys, monkeypatch):
    def no_space(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_text_atomic", no_space)
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"trace": [[0, 1.0], [1, 0.5]]}))
    assert main(["plot-loss", "--trace", str(trace), "--out", str(tmp_path / "loss.svg")]) == 3
    assert capsys.readouterr().err == "data error: [Errno 28] No space left on device\n"


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
    assert cfg["model"] == doc["model"]
    assert cfg["train"] == doc["train"]
    fractions, scopes, methods = cli._grid(cfg, METHODS)
    assert fractions == doc["prune"]["fractions"]
    assert [s.value for s in scopes] == doc["prune"]["scopes"]
    assert methods == doc["prune"]["methods"]
    assert cli._list(cfg, "sweep", "seeds") == doc["sweep"]["seeds"]
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


def test_prune_writes_each_distinct_mask_once(tmp_path, monkeypatch, trained_bundle):
    # with one layer CB and CU rank alike, and every fraction 0.0 mask is
    # empty: a cell whose mask an earlier cell applied gets that file's bytes
    saved = []

    def save_spy(bundle, path, like=None):
        saved.append(Path(path).name)
        save_bundle(bundle, path, like=like)

    monkeypatch.setattr(cli, "save_bundle", save_spy)
    fractions, scopes = [0.0, 0.3, 0.6], ["CB", "CU", "CN"]
    cfg = write_config(tmp_path, {"prune.fractions": fractions, "prune.scopes": scopes})
    assert main(["prune", "--bundle", str(trained_bundle), "--config", str(cfg)]) == 0
    out = tmp_path / "run"
    original = load_bundle(trained_bundle)
    layers = [original.model.adapter]
    fit = optimizer.run(layers[0], OptimConfig(iterations=60, lr=0.01, l1_pos=0.01,
                                               l1_neg=0.01, tol=0.0))
    distinct = set()
    for p, scope, masks in prune_grid(layers, [fit], fractions, list(PruneScope)):
        for method, (mask, _) in masks.items():
            distinct.add(frozenset(mask_tuples(mask)))
            pruned = replace(original.model, adapter=apply_mask(layers, mask)[0])
            name = f"pruned_{method}_{scope.value}_p{round(p * 100):03d}.json"
            assert (out / name).read_text() == bundle_json(WeightBundle(pruned, meta=original.meta))
            if scope is PruneScope.CLASS_UNIFORM:
                assert (out / name).read_bytes() == (out / name.replace("CU", "CB")).read_bytes()
    assert saved[0] == "optimized.json"
    assert len(saved) == len(distinct) + 1 < 1 + 2 * len(fractions) * len(scopes)


def test_prune_twice_in_one_process_writes_the_same_bytes(tmp_path, trained_bundle):
    # as the benchmark runs it: round after round through main in one process
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        cfg = write_config(tmp_path, {"out.dir": str(out), "prune.scopes": ["CB", "CU", "CN"]},
                           name=f"{out.name}.json")
        assert main(["prune", "--bundle", str(trained_bundle), "--config", str(cfg)]) == 0
    first, again = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs)
    assert len(first) == 3 + 2 * 2 * 3 and first == again


def test_module_help_exits_0():
    src = str(Path(tropiprune.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "tropiprune", "--help"], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert b"plot-zonotope" in done.stdout


@pytest.mark.parametrize("key,entries", [("fractions", [0.501, 0.504]),
                                         ("scopes", ["CU", "cu"]),
                                         ("methods", ["tropical", "tropical"])])
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
    ("nan-tensor", lambda doc: doc["tensors"]["adapter0.up"][0].__setitem__(0, float("nan"))),
    ("version-2", lambda doc: doc.update(version=2)),
    ("version-true", lambda doc: doc.update(version=True)),
    ("version-float", lambda doc: doc.update(version=1.0)),
    ("optimized-string", lambda doc: doc["manifest"].update(optimized="no")),
    ("optimized-half", lambda doc: doc["manifest"].update(optimized=0.5)),
    ("bias-not-merged", lambda doc: doc["manifest"]["layers"][0].update(bias_merged=False)),
    ("has-up-bias-string", lambda doc: doc["manifest"]["layers"][0].update(has_up_bias="no")),
    ("bias-without-flag", lambda doc: (
        doc["manifest"]["layers"][0].pop("has_up_bias"),
        doc["tensors"].update({"adapter0.up_bias": [0.5] * len(doc["tensors"]["adapter0.up"])}))),
    ("extra-tensor", lambda doc: doc["tensors"].update(extra=[1.0])),
    ("bottleneck-mismatch", lambda doc: (  # each tensor matches its manifest shape
        doc["tensors"].update({"adapter0.up": [row[:-1] for row in doc["tensors"]["adapter0.up"]]}),
        doc["manifest"]["layers"][0]["up_shape"].__setitem__(1, 3))),
]


@pytest.mark.parametrize("edit", [e for _, e in MALFORMED_BUNDLES] + ["list"] + BROKEN_FILES,
                         ids=[c for c, _ in MALFORMED_BUNDLES] + ["top-level-list"] + BROKEN_FILES)
def test_malformed_bundle_exits_3(tmp_path, capsys, trained_bundle, edit):
    text = trained_bundle.read_text()
    bad = tmp_path / "bad.json"
    if edit == "list":
        bad.write_text("[" + text + "]")
    elif edit in BROKEN_FILES:
        break_file(bad, edit, text.replace('"blobs"', '"blöbs"'))
    else:
        doc = json.loads(text)
        edit(doc)
        bad.write_text(json.dumps(doc))
    assert main(["prune", "--bundle", str(bad), "--config", str(write_config(tmp_path))]) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not (tmp_path / "run").exists()


def test_train_reads_a_utf8_config_in_an_ascii_locale(tmp_path):
    # a valid UTF-8 config whose out.dir is not ASCII, run where the locale
    # (and so the default text and file name encoding) is ASCII
    cfg = write_config(tmp_path, {"train.steps": 20, "out.dir": "run-é"})
    cfg.write_text(json.dumps(json.loads(cfg.read_text()), ensure_ascii=False), encoding="utf-8")
    src = str(Path(tropiprune.__file__).parents[1])
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "tropiprune", "train",
                           "--config", cfg.name], cwd=tmp_path, env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    # the directory is named by the config's UTF-8 bytes, as in a UTF-8 locale
    assert (tmp_path / "run-é" / "bundle.json").is_file()
    assert done.stdout.decode("utf-8").splitlines() == [
        os.path.join("run-é", "bundle.json"), os.path.join("run-é", "train_log.csv")]


def test_prune_missing_bundle_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["prune", "--bundle", str(tmp_path / "ghost.json"),
                 "--config", str(cfg)]) == 3
    capsys.readouterr()


#: What prune and sweep print when the adapter's generators overflow: the
#: fit's starting loss is not finite.
NON_FINITE_FIT = "numeric failure: surrogate loss is not finite at iteration 0: nan\n"


def test_prune_divergence_exits_4(tmp_path, capsys, trained_bundle):
    doc = json.loads(trained_bundle.read_text())
    for key in ("adapter0.down", "adapter0.up"):
        doc["tensors"][key] = (1e160 * np.array(doc["tensors"][key])).tolist()
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    for iterations in (0, 60):
        cfg = write_config(tmp_path, {"optim.iterations": iterations})
        assert main(["prune", "--bundle", str(huge), "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == NON_FINITE_FIT
        assert not (tmp_path / "run" / "trace_layer0.json").exists()


def test_sweep_divergence_exits_4(tmp_path, capfd, monkeypatch):
    # forked workers run the patched cli.train_stack; capfd also sees their stderr
    def train_huge(models, datas, seeds, **keys):
        results = harness.train_stack(models, datas, seeds, **keys)
        huge = [AdapterLayer(1e160 * r.model.adapter.down, 1e160 * r.model.adapter.up)
                for r in results]
        return [replace(r, model=replace(r.model, adapter=a)) for r, a in zip(results, huge)]

    monkeypatch.setattr(cli, "train_stack", train_huge)
    cfg = write_config(tmp_path, {"task.n_train": 300, "train.steps": 50,
                                  "sweep": {"seeds": [0, 1]}})
    out_csv = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 4
    assert capfd.readouterr().err == NON_FINITE_FIT
    assert not out_csv.exists()
    assert multiprocessing.active_children() == []


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


@pytest.mark.parametrize("tol", [0.0, 1e-3], ids=["tol0", "tol1e-3"])
@pytest.mark.parametrize("cpus", [1, 3], ids=["cpus1", "cpus3"])
def test_sweep_rows_match_one_seed_sweeps(tmp_path, monkeypatch, cpus, tol):
    # the seeds run in worker processes, as one training stack of three or
    # three stacks of one; the rows still come in seed order, byte for byte
    # those of one-seed sweeps.  At tol 1e-3 the seeds' fits stop at
    # different iterations.
    stops = tmp_path / "stops.txt"

    def run_logged(layer, config):
        outcome = optimizer.run(layer, config)
        with stops.open("a") as log:  # forked workers append here
            log.write(f"{outcome.converged_at}\n")
        return outcome

    monkeypatch.setattr(harness, "run", run_logged)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    cfg = write_config(tmp_path, {"task.n_train": 300, "train.steps": 200, "optim.tol": tol,
                                  "sweep": {"seeds": [0, 1, 2]}})
    out_csv = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 0
    assert multiprocessing.active_children() == []
    converged = stops.read_text().split()
    assert len(converged) == 3
    if tol:
        assert "None" not in converged and len(set(converged)) > 1
    expected = []
    for seed in (0, 1, 2):
        monkeypatch.setenv("TROPIPRUNE_SEED", str(seed))
        one = tmp_path / f"seed{seed}.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(one)]) == 0
        header, *rows = one.read_bytes().splitlines(keepends=True)
        expected += [header] * (seed == 0) + rows
    assert out_csv.read_bytes() == b"".join(expected)


def test_sweep_failing_seed_exits_4(tmp_path, capsys, monkeypatch):
    # a forked worker runs the patched cli.train_stack; seed s trains with seed s + 2
    def train_or_fail(models, datas, seeds, **keys):
        results = harness.train_stack(models, datas, seeds, **keys)
        return [NumericError("training diverged for sweep seed 1") if seed == 1 + 2 else r
                for seed, r in zip(seeds, results)]

    monkeypatch.setattr(cli, "train_stack", train_or_fail)
    cfg = write_config(tmp_path, {"task.n_train": 300, "train.steps": 50,
                                  "sweep": {"seeds": [0, 1, 2]}})
    out_csv = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 4
    assert capsys.readouterr().err == "numeric failure: training diverged for sweep seed 1\n"
    assert not out_csv.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_reports_first_failing_seed_across_stages(tmp_path, capsys, monkeypatch, cpus):
    # seed 1's fit overflows and seed 2's training fails; with one CPU both
    # seeds share a worker's stack, where seed 2 fails first
    def init_or_break(*args, **keys):
        model = harness.init_model(*args, **keys)
        if keys["seed"] == 1 + 1:
            adapter = model.adapter
            return replace(model, adapter=AdapterLayer(1e160 * adapter.down, 1e160 * adapter.up))
        if keys["seed"] == 2 + 1:
            return replace(model, head_w=np.full(model.head_w.shape, np.inf))
        return model

    monkeypatch.setattr(cli, "init_model", init_or_break)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    cfg = write_config(tmp_path, {"task.n_train": 300, "train.steps": 0,
                                  "sweep": {"seeds": [0, 1, 2]}})
    out_csv = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 4
    assert capsys.readouterr().err == NON_FINITE_FIT
    assert not out_csv.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_reports_first_failing_seed_across_scoring_and_fit(tmp_path, capsys, monkeypatch,
                                                                 cpus):
    # seed 0's head makes its logits overflow when scored, and seed 1's fit
    # overflows; in one chunk or in two, seed 0's error is the one reported
    def init_or_break(*args, **keys):
        model = harness.init_model(*args, **keys)
        if keys["seed"] == 0 + 1:
            return replace(model, head_w=np.full(model.head_w.shape, 1e308))
        if keys["seed"] == 1 + 1:
            adapter = model.adapter
            return replace(model, adapter=AdapterLayer(1e160 * adapter.down, 1e160 * adapter.up))
        return model

    monkeypatch.setattr(cli, "init_model", init_or_break)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    cfg = write_config(tmp_path, {"task.n_train": 300, "train.steps": 0,
                                  "sweep": {"seeds": [0, 1]}})
    out_csv = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 4
    assert capsys.readouterr().err == \
        "numeric failure: evaluation produced non-finite logits\n"
    assert not out_csv.exists()
    assert multiprocessing.active_children() == []


def test_sweep_failure_cancels_queued_chunks(tmp_path, capsys, monkeypatch):
    # one worker and one seed per chunk.  The executor hands the worker up to
    # max_workers + 1 chunks ahead, and one more may slip in as the first
    # failure arrives; the last of six chunks starts only if nothing cancels it
    started = tmp_path / "started.txt"

    def train_logged(models, datas, seeds, **keys):
        with started.open("a") as log:  # forked workers append here
            log.write("".join(f"{seed - 2}\n" for seed in seeds))
        if seeds == [0 + 2]:
            return [NumericError("training diverged for sweep seed 0")]
        time.sleep(0.2)
        return harness.train_stack(models, datas, seeds, **keys)

    monkeypatch.setattr(cli, "train_stack", train_logged)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(cli, "MAX_STACK", 1)
    cfg = write_config(tmp_path, {"task.n_train": 300, "train.steps": 0,
                                  "sweep": {"seeds": [0, 1, 2, 3, 4, 5]}})
    out_csv = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 4
    assert capsys.readouterr().err == "numeric failure: training diverged for sweep seed 0\n"
    assert not out_csv.exists()
    assert multiprocessing.active_children() == []
    seeds = started.read_text().split()
    assert seeds[0] == "0" and "5" not in seeds


def forbid_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("train", "train_stack", "sweep", "run"):
        monkeypatch.setattr(cli, name, forbidden)


@pytest.mark.parametrize("command", ["train", "prune", "sweep"])
def test_unusable_out_dir_exits_2(tmp_path, capsys, monkeypatch, trained_bundle, command):
    forbid_work(monkeypatch)
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    cfg = write_config(tmp_path, {"out.dir": str(out)})
    argv = {"train": ["train", "--config", str(cfg)],
            "prune": ["prune", "--bundle", str(trained_bundle), "--config", str(cfg)],
            "sweep": ["sweep", "--config", str(cfg), "--out", str(out / "results.csv")]}
    assert main(argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{tmp_path / 'afile'} is not a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]


def test_sweep_out_naming_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    forbid_work(monkeypatch)
    out = tmp_path / "results.csv"
    out.mkdir()
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: bad --out: {out} is a directory\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["plot-loss", "plot-zonotope"])
def test_plot_out_naming_a_directory_exits_2(tmp_path, capsys, monkeypatch, command):
    def forbidden(*args, **kwargs):
        raise AssertionError("an input was read before --out was checked")

    for name in ("read_json", "load_bundle"):
        monkeypatch.setattr(cli, name, forbidden)
    out = tmp_path / "plot.svg"
    out.mkdir()
    missing = str(tmp_path / "missing.json")
    argv = {"plot-loss": ["plot-loss", "--trace", missing, "--out", str(out)],
            "plot-zonotope": ["plot-zonotope", "--before", missing, "--after", missing,
                              "--layer", "0", "--node", "0", "--dims", "0,1",
                              "--out", str(out)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: bad --out: {out} is a directory\n"
    assert list(out.iterdir()) == []


def test_plot_loss_from_prune_trace(tmp_path):
    _, out = prune_setup(tmp_path)
    svg_path = tmp_path / "loss.svg"
    assert main(["plot-loss", "--trace", str(out / "trace_layer0.json"),
                 "--out", str(svg_path)]) == 0
    ET.fromstring(svg_path.read_text())


# (case, trace document): each exits 3 with "data error:" and writes no SVG.
BAD_TRACES = [
    ("empty", {"trace": []}),
    ("infinite-loss", {"trace": [[0, 1.0], [1, float("inf")]]}),
    ("nan-loss", {"trace": [[0, 1.0], [1, float("nan")]]}),
    ("fractional-iteration", {"trace": [[0, 1.0], [1.7, 0.5]]}),
    ("boolean-loss", {"trace": [[0, 1.0], [1, True]]}),
    ("no-trace", {"layer": 0}),
    ("trace-not-a-list", {"trace": {"0": 1.0}}),
    ("point-not-a-pair", {"trace": [[0, 1.0, 2.0]]}),
    ("loss-range-overflows", {"trace": [[0, -1e308], [1, 1e308]]}),
    ("huge-constant-loss", {"trace": [[0, 1e17]]}),
    ("bare-list", [[0, 1.0], [1, 0.5]]),
]


@pytest.mark.parametrize("doc", [d for _, d in BAD_TRACES], ids=[c for c, _ in BAD_TRACES])
def test_plot_loss_empty_trace_exits_3(tmp_path, capsys, doc):
    bad = tmp_path / "trace.json"
    bad.write_text(json.dumps(doc))
    svg_path = tmp_path / "x.svg"
    assert main(["plot-loss", "--trace", str(bad), "--out", str(svg_path)]) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not svg_path.exists()


@pytest.mark.parametrize("case", BROKEN_FILES)
def test_plot_loss_unreadable_trace_exits_3(tmp_path, capsys, case):
    path = tmp_path / "trace.json"
    break_file(path, case, '{"trace": [[0, 1.0]], "note": "ö"}')
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


@pytest.mark.parametrize("features,bottleneck", [(16, 2), (24, 4)])
def test_plot_zonotope_refuses_adapters_of_different_shapes(tmp_path, capsys,
                                                            features, bottleneck):
    # node 0 and dims 0,1 exist in both adapters, which overlaid would be unrelated
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, (f, r) in zip(paths, [(16, 4), (features, bottleneck)]):
        save_bundle(WeightBundle(init_model(in_dim=8, features=f, bottleneck=r, seed=1)), path)
    svg_path = tmp_path / "x.svg"
    assert main(["plot-zonotope", "--before", str(paths[0]), "--after", str(paths[1]),
                 "--layer", "0", "--node", "0", "--dims", "0,1", "--out", str(svg_path)]) == 3
    err = capsys.readouterr().err
    shapes = f"(({bottleneck}, {features + 1}), ({features}, {bottleneck}))"
    assert err.startswith("data error:") and shapes in err
    assert not svg_path.exists()


def test_plot_zonotope_bad_node_exits_3(tmp_path, capsys):
    _, out = prune_setup(tmp_path)
    assert main(["plot-zonotope", "--before", str(out / "bundle.json"),
                 "--after", str(out / "bundle.json"), "--layer", "0",
                 "--node", "99", "--dims", "0,1",
                 "--out", str(tmp_path / "x.svg")]) == 3
    assert "node" in capsys.readouterr().err


def test_plot_zonotope_bad_layer_exits_3(tmp_path, capsys):
    _, out = prune_setup(tmp_path)
    svg_path = tmp_path / "x.svg"
    assert main(["plot-zonotope", "--before", str(out / "bundle.json"),
                 "--after", str(out / "bundle.json"), "--layer", "1",
                 "--node", "0", "--dims", "0,1", "--out", str(svg_path)]) == 3
    assert capsys.readouterr().err.startswith("data error: layer 1 out of range")
    assert not svg_path.exists()


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
