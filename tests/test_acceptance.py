"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single [criterion NN] PASS/FAIL line.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they happen.
"""

import csv
import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tropiprune import (AdapterLayer, OptimConfig, PruneScope, TropicalPolynomial,
                        Zonotope, convex_hull_2d, dual_subdivision_points, forward,
                        hausdorff_distance, minkowski_sum, node_generators,
                        project_generators, run, standard_mask,
                        subgradient, trop_poly_mul, tropical_mask, tropical_parts,
                        zonotope_vertices)
from tropiprune.bundle import WeightBundle, bundle_to_json, load_bundle, save_bundle
from tropiprune.cli import main
from tropiprune.harness import init_model
from tropiprune.optimizer import branch_loss
from tropiprune.svgplot import loss_curve_svg, zonotope_overlay_svg

from oracles import graham_hull_vertices, mask_tuples, subset_sums, support


def report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_difference_of_parts_identity():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 33))
        r = int(rng.integers(1, 9))
        layer = AdapterLayer(rng.normal(size=(r, d + 1)), rng.normal(size=(d, r)))
        x = rng.normal(size=d)
        pos, neg = tropical_parts(layer, x)
        worst = max(worst, float(np.max(np.abs(forward(layer, x) - (pos - neg)))))
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-9 and elapsed < 5.0,
           f"1000 layers, max |f-(pos-neg)| = {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_minkowski_support_additivity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        pts1 = rng.integers(-64, 65, size=(int(rng.integers(1, 9)), 2)) / 16.0
        pts2 = rng.integers(-64, 65, size=(int(rng.integers(1, 9)), 2)) / 16.0
        p1, p2 = convex_hull_2d(pts1), convex_hull_2d(pts2)
        total = minkowski_sum(p1, p2)
        direct = [(a[0] + b[0], a[1] + b[1]) for a in p1.vertices for b in p2.vertices]
        for k in range(64):
            theta = 2 * math.pi * k / 64 + 0.05
            u = (math.cos(theta), math.sin(theta))
            worst = max(worst, abs(support(total.vertices, u) - support(direct, u)))
    report(2, worst <= 1e-9, f"100 polytope pairs x 64 directions, worst gap {worst:.2e}")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_dual_of_product_factorizes():
    rng = np.random.default_rng(303)
    checked = failures = 0
    for _ in range(50):
        polys = []
        for _ in range(2):
            n = int(rng.integers(1, 6))
            exps = set()
            while len(exps) < n:
                exps.add(tuple(int(e) for e in rng.integers(0, 5, size=2)))
            polys.append(TropicalPolynomial.from_terms(
                [(float(rng.normal()), e) for e in sorted(exps)]))
        direct = dual_subdivision_points(trop_poly_mul(polys[0], polys[1]))
        split = minkowski_sum(dual_subdivision_points(polys[0]),
                              dual_subdivision_points(polys[1]))
        checked += 1
        if direct != split:
            failures += 1
    report(3, failures == 0, f"{checked} polynomial pairs, {failures} mismatches (exact)")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_zonotope_vertices_match_brute_force():
    rng = np.random.default_rng(404)
    failures = 0
    cases = list(range(11)) + [int(rng.integers(1, 11)) for _ in range(19)]
    for m in cases:
        gens = tuple((float(a / 16), float(b / 16))
                     for a, b in rng.integers(-48, 49, size=(m, 2)))
        mine = set(zonotope_vertices(Zonotope(gens, (0.0, 0.0))).vertices)
        brute = graham_hull_vertices(subset_sums(gens))
        if mine != brute:
            failures += 1
    report(4, failures == 0,
           f"{len(cases)} generator sets up to m=10, exact vertex-set matches")


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_subgradient_matches_finite_differences():
    rng = np.random.default_rng(505)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        r = int(rng.integers(1, 4))
        layer = AdapterLayer(rng.normal(size=(r, d + 1)), rng.normal(size=(d, r)))
        # every coordinate sits at least 0.1 from the nearest kink
        down_hat = rng.choice([-1.0, 1.0], (r, d + 1)) * rng.uniform(0.1, 1.0, (r, d + 1))
        up_hat = rng.choice([-1.0, 1.0], (d, r)) * rng.uniform(0.1, 1.0, (d, r))
        node = int(rng.integers(0, d))
        branch = "pos" if rng.uniform() < 0.5 else "neg"
        lam = float(rng.uniform(0.0, 0.5))
        got_down, got_up = subgradient(layer, down_hat, up_hat, node, branch, lam)
        fd_down = np.zeros_like(down_hat)
        for j in range(r):
            for k in range(d + 1):
                plus, minus = down_hat.copy(), down_hat.copy()
                plus[j, k] += h
                minus[j, k] -= h
                fd_down[j, k] = (branch_loss(layer, plus, up_hat, node, branch, lam)
                                 - branch_loss(layer, minus, up_hat, node, branch, lam)) / (2 * h)
        fd_up = np.zeros_like(up_hat)
        for j in range(r):
            plus, minus = up_hat.copy(), up_hat.copy()
            plus[node, j] += h
            minus[node, j] -= h
            fd_up[node, j] = (branch_loss(layer, down_hat, plus, node, branch, lam)
                              - branch_loss(layer, down_hat, minus, node, branch, lam)) / (2 * h)
        for got, want in ((got_down, fd_down), (got_up, fd_up)):
            err = float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-12)
            worst = max(worst, err)
    report(5, worst <= 1e-4, f"100 kink-free points, worst relative error {worst:.2e}")


# ----------------------------------------------------- criteria 6 and 7 setup

def structured_layer(seed):
    """Random layer with two dominant feature columns and many minor ones,
    the desk-scale stand-in for trained feature importances."""
    rng = np.random.default_rng(seed)
    down = rng.uniform(-0.02, 0.02, (4, 17))
    down[:, :2] = rng.uniform(-0.12, 0.12, (4, 2))
    up = rng.uniform(-0.1, 0.1, (16, 4))
    return AdapterLayer(down, up)


def generator_l1(down, up):
    pos = np.maximum(up, 0.0)[:, :, None] * down[None, :, :]
    neg = np.maximum(-up, 0.0)[:, :, None] * down[None, :, :]
    return float(np.abs(pos).sum() + np.abs(neg).sum())


@pytest.fixture(scope="module")
def twenty_runs():
    cfg = OptimConfig(iterations=500, lr=1e-2, l1_pos=1e-2, l1_neg=1e-2, tol=0.0)
    out = []
    for seed in range(20):
        layer = structured_layer(1000 + seed)
        out.append((layer, run(layer, cfg)))
    return out


def test_criterion_06_loss_halves_and_decays(twenty_runs):
    worst_ratio = 0.0
    ma_ok = True
    for layer, result in twenty_runs:
        losses = np.array([v for _, v in result.loss_trace])
        worst_ratio = max(worst_ratio, losses[-1] / losses[0])
        ma = np.convolve(losses, np.ones(10) / 10, mode="valid")
        if not np.all(np.diff(ma[50:]) <= 1e-12):
            ma_ok = False
    report(6, worst_ratio < 0.5 and ma_ok,
           f"20 runs at T=500: worst final/initial {worst_ratio:.3f}, "
           f"10-step moving average non-increasing past 50: {ma_ok}")


def node_zonotope_gap(layer_a, layer_b):
    """Mean Hausdorff gap over per-node generator zonotopes, projected onto
    the two dominant feature columns."""
    gaps = []
    for i in range(layer_a.width):
        pos_a, _ = node_generators(layer_a, i)
        pos_b, _ = node_generators(layer_b, i)
        za = zonotope_vertices(project_generators(pos_a, (0, 1)))
        zb = zonotope_vertices(project_generators(pos_b, (0, 1)))
        gaps.append(hausdorff_distance(za, zb))
    return float(np.mean(gaps))


def test_criterion_07_sparsity_with_preserved_geometry(twenty_runs):
    worst_reduction = 1.0
    geometry_ok = True
    details = []
    for run_index, (layer, result) in enumerate(twenty_runs):
        before = generator_l1(layer.down, layer.up)
        after = generator_l1(result.down, result.up)
        reduction = 1.0 - after / before
        worst_reduction = min(worst_reduction, reduction)
        # achieved sparsity: entries the descent parked at zero
        zeros = int((np.abs(result.down) < 1e-4).sum()
                    + (np.abs(result.up) < 1e-4).sum())
        gap_opt = node_zonotope_gap(layer, AdapterLayer(result.down, result.up))
        random_gaps = []
        for mask_seed in range(10):
            rng = np.random.default_rng(9000 + mask_seed)
            picks = rng.choice(layer.param_count, size=zeros, replace=False)
            down = layer.down.copy()
            up = layer.up.copy()
            for flat in picks:
                if flat < down.size:
                    down.flat[flat] = 0.0
                else:
                    up.flat[flat - down.size] = 0.0
            random_gaps.append(node_zonotope_gap(layer, AdapterLayer(down, up)))
        baseline = float(np.median(random_gaps))
        if gap_opt > baseline:
            geometry_ok = False
            details.append(f"run {run_index}: {gap_opt:.4f} > {baseline:.4f}")
    report(7, worst_reduction >= 0.30 and geometry_ok,
           f"worst L1 reduction {worst_reduction:.2f} (need >= 0.30); optimized "
           f"zonotope gap <= matched random-mask median on all 20 runs: {geometry_ok}"
           + ("; " + "; ".join(details) if details else ""))


# ---------------------------------------------------------------- criterion 8

def brute_bottom_fraction(layers, fraction, scope):
    """Flat re-enumeration of the bottom-fraction selection, groups included."""
    entries = []
    for li, layer in enumerate(layers):
        for tag, mat in (("down", layer.down), ("up", layer.up)):
            for r in range(mat.shape[0]):
                for c in range(mat.shape[1]):
                    entries.append((li, tag, r, c, abs(float(mat[r, c]))))
    if scope is PruneScope.CLASS_BLIND:
        keyer = lambda e: ()
    elif scope is PruneScope.CLASS_UNIFORM:
        keyer = lambda e: (e[0],)
    else:
        keyer = lambda e: (e[0], e[1], e[2])
    groups = {}
    for e in entries:
        groups.setdefault(keyer(e), []).append(e)
    picked = set()
    for members in groups.values():
        members.sort(key=lambda e: (e[4], e[0], e[1], e[2], e[3]))
        take = int(math.floor(fraction * len(members) + 1e-9))
        picked.update((e[0], e[1], e[2], e[3]) for e in members[:take])
    return picked


def test_criterion_08_mask_algebra_on_exhaustive_fixture():
    down = np.array([[0.1, -0.2, 0.3, -0.4],
                     [0.5, -0.6, 0.7, -0.8],
                     [0.9, -1.0, 1.1, -1.2],
                     [1.3, -1.4, 1.5, -1.6]])
    up = np.array([[0.15, -0.25, 0.35, -0.45],
                   [0.55, -0.65, 0.75, -0.85],
                   [0.95, -1.05, 1.15, -1.25]])
    original = AdapterLayer(down, up)
    opt_down = down.copy()
    opt_down[0, 0] = 2.0    # was the smallest entry, now large
    opt_down[2, 2] = 0.01   # was large, now the smallest
    surrogate = AdapterLayer(opt_down, up.copy())

    # hand enumeration at p = 4/28, pooled scope:
    #   original bottom four:  down(0,0)=0.1, up(0,0)=0.15, down(0,1)=0.2, up(0,1)=0.25
    #   surrogate bottom four: down(2,2)=0.01, up(0,0), down(0,1), up(0,1)
    #   agreement: up(0,0), down(0,1), up(0,1) -> achieved fraction 3/28
    mask, p_hat = tropical_mask([original], [surrogate], 4 / 28, PruneScope.CLASS_BLIND)
    hand = {(0, "up", 0, 0), (0, "down", 0, 1), (0, "up", 0, 1)}
    hand_ok = mask_tuples(mask) == hand and p_hat == pytest.approx(3 / 28)

    total = original.param_count
    groups = {PruneScope.CLASS_BLIND: 1, PruneScope.CLASS_UNIFORM: 1,
              PruneScope.NODE_WISE: 7}
    exhaustive_ok = True
    for scope, n_groups in groups.items():
        for k in range(total + 1):
            p = k / total
            want_s = brute_bottom_fraction([original], p, scope)
            got_s = mask_tuples(standard_mask([original], p, scope))
            mask, p_hat = tropical_mask([original], [surrogate], p, scope)
            got_t = mask_tuples(mask)
            want_t = want_s & brute_bottom_fraction([surrogate], p, scope)
            std = standard_mask([original], p_hat, scope)
            checks = (got_s == want_s and got_t == want_t
                      and p_hat <= p + 1e-12
                      and got_t <= got_s
                      and abs(std.count() - mask.count()) <= n_groups)
            if not checks:
                exhaustive_ok = False
    report(8, hand_ok and exhaustive_ok,
           f"hand case {'ok' if hand_ok else 'bad'}; exhaustive fraction x scope "
           f"grid vs brute enumeration {'ok' if exhaustive_ok else 'bad'}")


# ----------------------------------------------- criteria 9 and 10 (the sweep)

TASK_SECTIONS = {
    "blobs": {"kind": "blobs", "dim": 8, "classes": 3, "noise": 0.5},
    "moons": {"kind": "moons", "dim": 2, "classes": 2, "noise": 0.15},
    "xor_grid": {"kind": "xor_grid", "dim": 2, "classes": 2, "noise": 0.05},
}


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweeps")
    start = time.monotonic()
    rows = []
    csv_paths = []
    for name, section in TASK_SECTIONS.items():
        cfg = {
            "task": {**section, "n_train": 2000, "n_dev": 500, "n_test": 500},
            "model": {"features": 16, "bottleneck": 4},
            "train": {"steps": 2000, "lr": 0.05, "batch": 32},
            "optim": {"iterations": 500, "lr": 0.01, "l1_pos": 0.01,
                      "l1_neg": 0.01, "tol": 0.0},
            "prune": {"fractions": [0.0, 0.5, 0.7, 0.8],
                      "scopes": ["CB", "CU", "CN"],
                      "methods": ["standard", "tropical", "combined"]},
            "sweep": {"seeds": [0, 1, 2, 3, 4]},
            "out": {"dir": str(base / name)},
        }
        cfg_path = base / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_csv = base / f"{name}.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
        csv_paths.append(out_csv)
        rows.extend(csv.DictReader(out_csv.read_text().splitlines()))
    return {"rows": rows, "elapsed": time.monotonic() - start, "csvs": csv_paths}


def test_criterion_09_prune_hard_with_small_drop(sweep_results):
    tasks_ok = 0
    summary = []
    for name in TASK_SECTIONS:
        cells = [r for r in sweep_results["rows"]
                 if r["task"] == name and r["method"] == "combined" and r["scope"] == "CU"]
        by_p = {}
        for r in cells:
            by_p.setdefault(float(r["p"]), []).append(
                (float(r["p_hat"]), float(r["test_metric"])))
        fm = float(np.median([t for _, t in by_p[0.0]]))
        ok = False
        for p, entries in sorted(by_p.items()):
            med_hat = float(np.median([h for h, _ in entries]))
            med_test = float(np.median([t for _, t in entries]))
            if med_hat >= 0.6 and fm - med_test <= 0.05:
                ok = True
                summary.append(f"{name}: p={p} keeps {med_test:.3f} vs FM {fm:.3f} "
                               f"at {100 * med_hat:.0f}% pruned")
                break
        tasks_ok += int(ok)
    fast = sweep_results["elapsed"] < 120.0
    report(9, tasks_ok >= 2 and fast,
           f"{tasks_ok}/3 tasks within 5 points past 60% pruned "
           f"({'; '.join(summary)}); {sweep_results['elapsed']:.0f}s < 120s: {fast}")


def test_criterion_10_scope_grid_is_complete(sweep_results):
    rows = sweep_results["rows"]
    per_task = len(rows) / len(TASK_SECTIONS)
    expected = 4 * 3 * 3 * 5  # fractions x scopes x methods x seeds
    combos = {(r["scope"], r["method"]) for r in rows}
    want = {(s, m) for s in ("CB", "CU", "CN")
            for m in ("standard", "tropical", "combined")}
    report(10, per_task == expected and combos == want,
           f"{per_task:.0f} rows per task (expected {expected}); "
           f"scope x method grid complete: {combos == want}")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_interface_contracts(tmp_path, sweep_results):
    model = init_model(in_dim=6, features=12, bottleneck=3, classes=2, seed=5)
    path = tmp_path / "bundle.json"
    save_bundle(WeightBundle(model, meta={"check": "round-trip"}), path)
    loaded = load_bundle(path)
    exact = all(np.array_equal(a, b) for a, b in [
        (loaded.model.feature_map, model.feature_map),
        (loaded.model.adapter.down, model.adapter.down),
        (loaded.model.adapter.up, model.adapter.up),
        (loaded.model.head_w, model.head_w),
        (loaded.model.head_b, model.head_b)])
    stable = bundle_to_json(loaded) == path.read_text()

    header_ok = all(
        p.read_text().splitlines()[0] ==
        "task,method,scope,p,p_hat,retained_pct,dev_metric,test_metric,seed"
        for p in sweep_results["csvs"])

    svg_ok = True
    try:
        ET.fromstring(loss_curve_svg([(0, 2.0), (1, 1.5), (2, 1.2), (3, 1.1)]))
        square = convex_hull_2d([(0, 0), (1, 0), (1, 1), (0, 1)])
        smaller = convex_hull_2d([(0, 0), (0.7, 0), (0.7, 0.7), (0, 0.7)])
        ET.fromstring(zonotope_overlay_svg(square, smaller))
    except ET.ParseError:
        svg_ok = False
    report(11, exact and stable and header_ok and svg_ok,
           f"bundle round-trip exact: {exact and stable}; CSV headers exact: "
           f"{header_ok}; SVG emitters well-formed: {svg_ok}")
