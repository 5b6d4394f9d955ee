"""Output checks that do not reuse the program's own code paths.

Each check reads the files a `tropiprune` command wrote and recomputes what
they must hold from the inputs or from properties the method guarantees.  A
failed check raises `CheckError` naming the file and the first mismatch.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

CSV_HEADER = ["task", "method", "scope", "p", "p_hat", "retained_pct",
              "dev_metric", "test_metric", "seed"]

#: Relative tolerance of the closed-form objective against the program's
#: materialised sum; both are float64 sums of the same terms in another order.
OBJECTIVE_RTOL = 1e-9

#: SVG coordinates carry 6 significant digits, so each is off by at most
#: 5e-6 of its magnitude and a support value by sqrt(2) times that.
SVG_RTOL = 1e-5


class CheckError(AssertionError):
    """An output file does not hold what the inputs and the method imply."""


def _fail(message: str) -> None:
    raise CheckError(message)


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def adapter_of(bundle_doc: dict) -> tuple[np.ndarray, np.ndarray]:
    tensors = bundle_doc["tensors"]
    return (np.array(tensors["adapter0.down"], dtype=np.float64),
            np.array(tensors["adapter0.up"], dtype=np.float64))


# ---------------------------------------------------------------- objective

def objective(down: np.ndarray, up: np.ndarray, down_hat: np.ndarray, up_hat: np.ndarray,
              l1_pos: float, l1_neg: float) -> tuple[float, float]:
    """Surrogate objective in O(d*r), and the scale of its terms.

    Node i's branch generator row j is part[i, j] * down[j], so the squared
    distance of a branch expands per row j into
    (sum_i ph_ij^2)|Dh_j|^2 - 2(sum_i ph_ij p_ij)<Dh_j, D_j> + (sum_i p_ij^2)|D_j|^2
    and its L1 norm into (sum_i ph_ij)|Dh_j|_1, because the parts are >= 0.
    """
    norm_hat = np.sum(down_hat * down_hat, axis=1)
    norm_ref = np.sum(down * down, axis=1)
    cross = np.sum(down_hat * down, axis=1)
    l1_rows = np.sum(np.abs(down_hat), axis=1)
    value = 0.0
    scale = 0.0
    for sign, weight in ((1.0, l1_pos), (-1.0, l1_neg)):
        part_hat = np.maximum(sign * up_hat, 0.0)
        part_ref = np.maximum(sign * up, 0.0)
        a = np.sum(part_hat * part_hat, axis=0) @ norm_hat
        b = np.sum(part_hat * part_ref, axis=0) @ cross
        c = np.sum(part_ref * part_ref, axis=0) @ norm_ref
        l1 = np.sum(part_hat, axis=0) @ l1_rows
        value += 0.5 * (a - 2.0 * b + c) + weight * l1
        scale += 0.5 * (a + c) + weight * l1
    return float(value), float(scale)


def check_objective(bundle_doc: dict, optimized_doc: dict, trace_doc: dict,
                    l1_pos: float, l1_neg: float, iterations: int) -> None:
    """trace_layer0.json starts at the original's objective and ends at the surrogate's."""
    down, up = adapter_of(bundle_doc)
    down_hat, up_hat = adapter_of(optimized_doc)
    trace = trace_doc["trace"]
    if [t for t, _ in trace] != list(range(iterations + 1)):
        _fail(f"trace steps are not 0..{iterations}")
    for label, (dh, uh), recorded in (("first", (down, up), trace[0][1]),
                                      ("last", (down_hat, up_hat), trace[-1][1])):
        value, scale = objective(down, up, dh, uh, l1_pos, l1_neg)
        if not abs(value - recorded) <= OBJECTIVE_RTOL * scale:
            _fail(f"{label} trace entry {recorded!r} differs from the recomputed "
                  f"objective {value!r}")


# -------------------------------------------------------------------- masks

def _take(fraction: float, size: int) -> int:
    return int(math.floor(fraction * size + 1e-9))


def bottom_mask(down: np.ndarray, up: np.ndarray, fraction: float,
                scope: str) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-magnitude entries per scope group, ties in flatten order.

    With one adapter layer CB and CU both rank all parameters together; CN
    ranks each row of each matrix on its own.  A stable argsort over the
    flattened magnitudes breaks ties by (matrix, row, column).
    """
    if scope in ("CB", "CU"):
        flat = np.abs(np.concatenate([down.ravel(), up.ravel()]))
        chosen = np.zeros(flat.size, dtype=bool)
        chosen[np.argsort(flat, kind="stable")[:_take(fraction, flat.size)]] = True
        return chosen[:down.size].reshape(down.shape), chosen[down.size:].reshape(up.shape)
    if scope != "CN":
        _fail(f"unknown scope {scope!r}")
    masks = []
    for mat in (down, up):
        mask = np.zeros(mat.shape, dtype=bool)
        k = _take(fraction, mat.shape[1])
        order = np.argsort(np.abs(mat), axis=1, kind="stable")[:, :k]
        np.put_along_axis(mask, order, True, axis=1)
        masks.append(mask)
    return masks[0], masks[1]


def expected_masks(down, up, down_hat, up_hat, p: float, scope: str) -> dict:
    """method -> (down mask, up mask) for one grid cell."""
    orig = bottom_mask(down, up, p, scope)
    surr = bottom_mask(down_hat, up_hat, p, scope)
    trop = (orig[0] & surr[0], orig[1] & surr[1])
    total = down.size + up.size
    p_hat = (int(trop[0].sum()) + int(trop[1].sum())) / total
    return {"tropical": trop, "standard": bottom_mask(down, up, p_hat, scope)}


def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


def check_pruned_bundle(original_doc: dict, pruned_doc: dict,
                        mask: tuple[np.ndarray, np.ndarray], name: str) -> None:
    """The pruned bundle is the original with exactly the masked entries zeroed."""
    if set(pruned_doc["tensors"]) != set(original_doc["tensors"]):
        _fail(f"{name}: tensor names differ from the original")
    for key, values in original_doc["tensors"].items():
        before = np.array(values, dtype=np.float64)
        after = np.array(pruned_doc["tensors"][key], dtype=np.float64)
        if after.shape != before.shape:
            _fail(f"{name}: {key} has shape {after.shape}, expected {before.shape}")
        masked = {"adapter0.down": mask[0], "adapter0.up": mask[1]}.get(
            key, np.zeros(before.shape, dtype=bool))
        if np.any(after[masked] != 0.0):
            _fail(f"{name}: {key} keeps a value the mask prunes")
        if not np.array_equal(_bits(after[~masked]), _bits(before[~masked])):
            _fail(f"{name}: {key} changes an entry the mask keeps")
    if pruned_doc["manifest"] != original_doc["manifest"]:
        _fail(f"{name}: manifest differs from the original")


def check_prune_outputs(out_dir: Path, bundle_doc: dict, fractions, scopes, methods) -> int:
    """report.json and every pruned bundle of one `prune` call; returns bundles checked."""
    out_dir = Path(out_dir)
    optimized_doc = read_json(out_dir / "optimized.json")
    report = read_json(out_dir / "report.json")
    down, up = adapter_of(bundle_doc)
    down_hat, up_hat = adapter_of(optimized_doc)
    if not optimized_doc["manifest"]["optimized"]:
        _fail("optimized.json is not flagged optimized")
    total = down.size + up.size
    if report["total_params"] != total:
        _fail(f"report total_params {report['total_params']} != {total}")
    cells = report["cells"]
    grid = [(p, s, m) for p in fractions for s in scopes for m in methods]
    if [(c["p"], c["scope"], c["method"]) for c in cells] != grid:
        _fail("report cells do not cover the configured grid in order")
    by_cell = {}
    for p in fractions:
        for scope in scopes:
            for method, mask in expected_masks(down, up, down_hat, up_hat, p, scope).items():
                by_cell[(p, scope, method)] = mask
    for cell in cells:
        key = (cell["p"], cell["scope"], cell["method"])
        mask = by_cell[key]
        pruned = int(mask[0].sum()) + int(mask[1].sum())
        if cell["pruned"] != pruned or cell["total"] != total:
            _fail(f"{key}: report counts {cell['pruned']}/{cell['total']}, "
                  f"expected {pruned}/{total}")
        if cell["p_hat"] != cell["pruned"] / cell["total"]:
            _fail(f"{key}: p_hat {cell['p_hat']!r} != pruned / total")
        if cell["method"] == "tropical" and not cell["p_hat"] <= cell["p"]:
            _fail(f"{key}: tropical p_hat {cell['p_hat']!r} exceeds p")
        check_pruned_bundle(bundle_doc, read_json(out_dir / cell["bundle"]), mask,
                            cell["bundle"])
    return len(cells)


# ---------------------------------------------------------------- zonotopes

_POLYGON = re.compile(r'<polygon points="([^"]*)"')


def svg_polygons(svg_text: str) -> list[np.ndarray]:
    """Vertex arrays of every <polygon> in an SVG, in file order."""
    polys = []
    for raw in _POLYGON.findall(svg_text):
        pts = [tuple(float(v) for v in pair.split(",")) for pair in raw.split()]
        polys.append(np.array(pts, dtype=np.float64).reshape(-1, 2))
    return polys


def node_generators_2d(bundle_doc: dict, node: int, dims: tuple[int, int]) -> np.ndarray:
    """Positive-part generators of one output node, projected onto two input columns."""
    down, up = adapter_of(bundle_doc)
    gens = np.maximum(up[node], 0.0)[:, None] * down
    return gens[:, list(dims)]


def check_zonotope(vertices: np.ndarray, generators: np.ndarray, name: str,
                   directions: int = 720) -> None:
    """Support of the polygon equals sum_g max(0, <g, u>) over a fan of directions."""
    angles = 2.0 * np.pi * np.arange(directions) / directions
    fan = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    exact = np.maximum(generators @ fan.T, 0.0).sum(axis=0)
    drawn = (vertices @ fan.T).max(axis=0)
    tol = SVG_RTOL * max(float(np.abs(vertices).max()), 1e-300) + 1e-12
    worst = float(np.abs(drawn - exact).max())
    if worst > tol:
        _fail(f"{name}: polygon support is off the zonotope's by {worst:.3g} (tol {tol:.3g})")


def check_zonotope_svg(svg_path: Path, before_doc: dict, after_doc: dict,
                       node: int, dims: tuple[int, int]) -> None:
    polys = svg_polygons(Path(svg_path).read_text())
    if len(polys) != 2:
        _fail(f"{svg_path.name}: expected 2 polygons, found {len(polys)}")
    for label, poly, doc in (("before", polys[0], before_doc), ("after", polys[1], after_doc)):
        check_zonotope(poly, node_generators_2d(doc, node, dims), f"{svg_path.name} {label}")


def check_svg(svg_path: Path) -> None:
    text = Path(svg_path).read_text()
    if "<svg" not in text or not text.rstrip().endswith("</svg>"):
        _fail(f"{svg_path.name} is not a complete SVG document")


# -------------------------------------------------------------------- sweep

def check_sweep_csv(path: Path, task: str, seeds, fractions, scopes, methods) -> int:
    """Header, grid order, derived columns and method rules; returns rows checked."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != CSV_HEADER:
        _fail(f"{path.name}: header is {rows[:1]}, expected {CSV_HEADER}")
    body = rows[1:]
    grid = [(s, p, sc, m) for s in seeds for p in fractions for sc in scopes for m in methods]
    if len(body) != len(grid):
        _fail(f"{path.name}: {len(body)} rows, expected {len(grid)}")
    cells = {}
    for row, (seed, p, scope, method) in zip(body, grid):
        got_task, got_method, got_scope = row[0], row[1], row[2]
        p_row, p_hat, retained, dev, test = (float(v) for v in row[3:8])
        if (got_task, got_method, got_scope, p_row, int(row[8])) != (task, method, scope, p, seed):
            _fail(f"{path.name}: row {row} out of grid order, expected "
                  f"{(task, method, scope, p, seed)}")
        if retained != 100.0 * (1.0 - p_hat):
            _fail(f"{path.name}: retained_pct {retained!r} != 100(1 - {p_hat!r})")
        if not (0.0 <= p_hat <= 1.0 and 0.0 <= dev <= 1.0 and 0.0 <= test <= 1.0):
            _fail(f"{path.name}: row {row} has a value outside [0, 1]")
        if method == "tropical" and p_hat > p:
            _fail(f"{path.name}: tropical p_hat {p_hat!r} exceeds p {p!r}")
        cells[(seed, p, scope, method)] = (p_hat, dev, test)
    for seed in seeds:
        for p in fractions:
            for scope in scopes:
                got = {m: cells[(seed, p, scope, m)] for m in methods}
                if p == 0.0 and len(set(got.values())) != 1:
                    _fail(f"{path.name}: methods differ at p = 0 ({seed}, {scope})")
                if {"standard", "tropical", "combined"} <= set(methods):
                    std, trop = got["standard"], got["tropical"]
                    winner = std if std[1] > trop[1] else trop
                    if got["combined"] != winner:
                        _fail(f"{path.name}: combined does not follow the dev metric "
                              f"at ({seed}, {p}, {scope})")
    return len(body)


# ------------------------------------------------------------------ repeats

def check_identical_dirs(first: Path, again: Path) -> None:
    """A repeated round wrote byte-identical files."""
    names = sorted(p.name for p in Path(first).iterdir())
    if sorted(p.name for p in Path(again).iterdir()) != names:
        _fail(f"{again.name}: file names differ from {first.name}")
    for name in names:
        if (Path(first) / name).read_bytes() != (Path(again) / name).read_bytes():
            _fail(f"{again.name}/{name} differs from {first.name}/{name}")
