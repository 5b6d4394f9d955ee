"""Brute-force reference implementations, kept independent of the package.

Everything here recomputes results from definitions (enumeration, naive
loops, Graham scan) so tests can compare the production code against a
second, unrelated route.
"""

from __future__ import annotations

import json
import math

import numpy as np


def enum_poly_value(terms, x):
    """Max-affine evaluation straight from the term list."""
    return max(c + sum(a * v for a, v in zip(alpha, x)) for c, alpha in terms)


def enum_monomial_values(terms, x):
    return [c + sum(a * v for a, v in zip(alpha, x)) for c, alpha in terms]


def support(vertices, direction):
    return max(v[0] * direction[0] + v[1] * direction[1] for v in vertices)


def naive_adapter_forward(down, up, x):
    """Triple-loop adapter map on plain lists; bias column handled explicitly."""
    aug = list(x) + [1.0]
    hidden = []
    for row in down:
        acc = 0.0
        for w, v in zip(row, aug):
            acc += w * v
        hidden.append(max(acc, 0.0))
    out = []
    for row in up:
        acc = 0.0
        for w, h in zip(row, hidden):
            acc += w * h
        out.append(acc)
    return out


def subset_sums(generators):
    """All 2**m corner points of a 2-D zonotope anchored at the origin."""
    sums = [(0.0, 0.0)]
    for gx, gy in generators:
        sums += [(x + gx, y + gy) for x, y in sums]
    return sums


def graham_hull_vertices(points, scale=16):
    """Independent convex-hull oracle (Graham scan); returns the vertex set.

    Exact integer arithmetic on coordinates given in 1/scale units: points
    sharing a polar direction from the pivot collapse to the farthest one,
    then a strict-turn scan drops every remaining collinear point.
    """
    ints = set()
    for x, y in points:
        sx, sy = round(float(x) * scale), round(float(y) * scale)
        if sx != float(x) * scale or sy != float(y) * scale:
            raise ValueError("oracle needs coordinates on the 1/scale grid")
        ints.add((sx, sy))
    if len(ints) == 1:
        ((sx, sy),) = ints
        return {(sx / scale, sy / scale)}
    pivot = min(ints, key=lambda p: (p[1], p[0]))
    farthest = {}
    for p in ints:
        if p == pivot:
            continue
        dx, dy = p[0] - pivot[0], p[1] - pivot[1]
        g = math.gcd(abs(dx), abs(dy))
        key = (dx // g, dy // g)
        d2 = dx * dx + dy * dy
        if key not in farthest or d2 > farthest[key][0]:
            farthest[key] = (d2, p)
    ordered = sorted((math.atan2(k[1], k[0]), p) for k, (_, p) in farthest.items())

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    stack = [pivot]
    for _, p in ordered:
        while len(stack) >= 2 and cross(stack[-2], stack[-1], p) <= 0:
            stack.pop()
        stack.append(p)
    return {(x / scale, y / scale) for x, y in stack}


def materialised_objective(down, up, down_hat, up_hat, l1_pos, l1_neg):
    """Surrogate objective from its definition, all node generators at once.

    Node i's positive generator is max(up[i], 0)[:, None] * down, so both
    branches are (d, r, d+1) stacks: O(d^2 r) memory, fine at test sizes.
    """
    def stacks(dn, u):
        dn, u = np.asarray(dn, dtype=np.float64), np.asarray(u, dtype=np.float64)
        return (np.maximum(u, 0.0)[:, :, None] * dn[None, :, :],
                np.maximum(-u, 0.0)[:, :, None] * dn[None, :, :])

    ref_pos, ref_neg = stacks(down, up)
    hat_pos, hat_neg = stacks(down_hat, up_hat)
    value = 0.5 * np.sum((hat_pos - ref_pos) ** 2) + 0.5 * np.sum((hat_neg - ref_neg) ** 2)
    value += l1_pos * np.sum(np.abs(hat_pos)) + l1_neg * np.sum(np.abs(hat_neg))
    return float(value)


def reference_fit(layer, config):
    """The surrogate fit run for every iteration, one layer at a time.

    Unlike the rest of this module this reuses the package's block
    minimisers and loss (each is checked against the objective's definition
    in `test_optimizer`); what it keeps apart is the control flow.  It
    computes every iteration until the `tol` test passes or the iterations
    run out, with no stack and no early exit on a repeated iterate.  Returns
    (down, up, trace, converged_at), or the NumericError the fit raises.
    """
    from tropiprune import optimizer as opt
    from tropiprune.errors import NumericError

    l1 = np.array([config.l1_pos, config.l1_neg])
    with np.errstate(all="ignore"):
        fixed = opt._Layers.of(layer.down[None], layer.up[None], config.l1_pos, config.l1_neg)
        down_hat, up_hat, part_hat = fixed.down, layer.up[None], fixed.parts
        hat_l1 = np.abs(down_hat).sum(axis=-1)
        trace = []
        for t in range(config.iterations + 1):
            if t:
                down_hat = opt._down_block(fixed, l1, down_hat, part_hat)
                hat_l1 = np.abs(down_hat).sum(axis=-1)
                up_hat = opt._up_block(fixed, down_hat, hat_l1)
                part_hat = opt._parts(up_hat)
            loss = float(opt._loss(fixed, l1, down_hat, part_hat, hat_l1)[0])
            if not math.isfinite(loss):
                return NumericError(f"surrogate loss is not finite at iteration {t}: {loss!r}")
            trace.append((t, loss))
            if t >= config.window:
                prev = trace[t - config.window][1]
                if abs(loss - prev) / max(abs(prev), 1e-300) < config.tol:
                    return down_hat[0], up_hat[0], trace, t
    return down_hat[0], up_hat[0], trace, None


def worst_single_entry_move(down, up, down_hat, up_hat, l1_pos, l1_neg, block):
    """Largest relative drop of `materialised_objective` from moving one entry.

    Every entry of the `block` ("down" or "up") surrogate matrix is moved on
    its own to 0, to the layer's value and by +-1e-6 of itself.  Returns the
    largest (before - after) / before over those moves, or 0.0 when the
    objective is 0; a block minimiser gives at most rounding.
    """
    down_hat = np.array(down_hat, dtype=np.float64)
    up_hat = np.array(up_hat, dtype=np.float64)
    moved, ref = (down_hat, down) if block == "down" else (up_hat, up)
    before = materialised_objective(down, up, down_hat, up_hat, l1_pos, l1_neg)
    worst = 0.0
    for idx in np.ndindex(moved.shape):
        value = moved[idx]
        for target in (0.0, ref[idx], value * (1.0 + 1e-6), value * (1.0 - 1e-6)):
            moved[idx] = target
            after = materialised_objective(down, up, down_hat, up_hat, l1_pos, l1_neg)
            if before > 0.0:
                worst = max(worst, (before - after) / before)
        moved[idx] = value
    return worst


def reference_train(feature_map, down, up, head_w, head_b, x, y, steps, lr, batch, seed,
                    up_bias=None):
    """Mini-batch SGD on softmax cross entropy, one batch drawn per step.

    Step t draws `batch` row indices with `rng.integers(0, n, size=batch)`,
    features them as relu(x @ feature_map.T), appends the bias column, runs
    the residual adapter (adding the frozen `up_bias`, when given, before
    the residual) and the head, and takes the mean cross entropy of the
    max-shifted logits.  The hand-derived gradients then update `down`,
    `up`, `head_w` and `head_b` (copies) by `lr`.  Returns the four matrices
    and the list of per-step losses.
    """
    rng = np.random.default_rng(seed)
    down, up, head_w, head_b = down.copy(), up.copy(), head_w.copy(), head_b.copy()
    features = np.maximum(np.asarray(x, dtype=np.float64) @ feature_map.T, 0.0)
    losses = []
    for _ in range(steps):
        idx = rng.integers(0, len(features), size=batch)
        h, labels = features[idx], y[idx]
        aug = np.hstack([h, np.ones((batch, 1))])
        pre = aug @ down.T
        hidden = np.maximum(pre, 0.0)
        out = hidden @ up.T
        if up_bias is not None:
            out = out + up_bias
        adapted = out + h
        z = adapted @ head_w.T + head_b
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=1, keepdims=True)
        losses.append(float(np.mean(np.log(total[:, 0]) - shifted[np.arange(batch), labels])))
        dz = e / total
        dz[np.arange(batch), labels] -= 1.0
        dz /= batch
        d_head_w = dz.T @ adapted
        d_head_b = dz.sum(axis=0)
        d_adapted = dz @ head_w
        d_up = d_adapted.T @ hidden
        d_down = ((d_adapted @ up) * (pre > 0.0)).T @ aug
        down -= lr * d_down
        up -= lr * d_up
        head_w -= lr * d_head_w
        head_b -= lr * d_head_b
    return down, up, head_w, head_b, losses


def sampled_hausdorff(vertices_a, vertices_b, edge_samples=64):
    """Hausdorff distance of two convex polygons from densified boundaries.

    Each CCW vertex list is walked edge by edge at `edge_samples` evenly
    spaced points (the vertices among them); a sample's distance to the other
    polygon is 0 inside it and else the nearest edge distance.
    """
    def samples(verts):
        if len(verts) == 1:
            return list(verts)
        out = []
        for i, a in enumerate(verts):
            b = verts[(i + 1) % len(verts)]
            out += [(a[0] + k / edge_samples * (b[0] - a[0]),
                     a[1] + k / edge_samples * (b[1] - a[1])) for k in range(edge_samples)]
        return out

    def seg_dist(p, a, b):
        vx, vy = b[0] - a[0], b[1] - a[1]
        wx, wy = p[0] - a[0], p[1] - a[1]
        vv = vx * vx + vy * vy
        t = 0.0 if vv == 0.0 else max(0.0, min(1.0, (wx * vx + wy * vy) / vv))
        return math.hypot(wx - t * vx, wy - t * vy)

    def dist(p, verts):
        n = len(verts)
        if n == 1:
            return math.hypot(p[0] - verts[0][0], p[1] - verts[0][1])
        edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
        inside = n >= 3 and all((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                                >= -1e-12 for a, b in edges)
        return 0.0 if inside else min(seg_dist(p, a, b) for a, b in edges)

    return max(max(dist(s, vertices_b) for s in samples(vertices_a)),
               max(dist(s, vertices_a) for s in samples(vertices_b)))


def brute_smallest(layers, fraction, scope):
    """Bottom-fraction selection re-enumerated one parameter at a time.

    `layers` are (down, up) matrix pairs and `scope` is "CB", "CU" or "CN".
    Each group sorts its (magnitude, layer, matrix, row, col) tuples, so ties
    go to the earlier layer, down before up, then row-major.  Returns a set
    of (layer, matrix, row, col) tuples.
    """
    groups = {}
    for li, pair in enumerate(layers):
        for tag, mat in zip(("down", "up"), pair):
            mat = np.asarray(mat, dtype=np.float64)
            for r in range(mat.shape[0]):
                for c in range(mat.shape[1]):
                    key = {"CB": (), "CU": (li,), "CN": (li, tag, r)}[scope]
                    groups.setdefault(key, []).append((abs(float(mat[r, c])), li, tag, r, c))
    picked = set()
    for members in groups.values():
        members.sort()
        take = int(math.floor(fraction * len(members) + 1e-9))
        picked.update(m[1:] for m in members[:take])
    return picked


def mask_tuples(mask):
    """A mask's pruned entries as the (layer, matrix, row, col) tuples of `brute_smallest`."""
    return {(li, tag, int(r), int(c))
            for li, pair in enumerate(mask.entries)
            for tag, matrix in zip(("down", "up"), pair)
            for r, c in np.argwhere(matrix)}


def bundle_json(bundle):
    """A weight bundle's file text through `json.dumps`, the format's definition.

    This is the writer the package used before it rendered its floats
    itself; the package's writer must produce these bytes exactly.
    """
    model = bundle.model
    adapter = model.adapter
    manifest = {
        "model": {
            "in_dim": model.in_dim,
            "features": model.features,
            "bottleneck": adapter.bottleneck,
            "classes": model.classes,
        },
        "layers": [{
            "name": "adapter0",
            "bias_merged": True,
            "has_up_bias": adapter.up_bias is not None,
            "down_shape": list(adapter.down.shape),
            "up_shape": list(adapter.up.shape),
        }],
        "optimized": bundle.optimized,
        "meta": bundle.meta,
    }
    tensors = {
        "feature_map": model.feature_map.tolist(),
        "adapter0.down": adapter.down.tolist(),
        "adapter0.up": adapter.up.tolist(),
        "head.w": model.head_w.tolist(),
        "head.b": model.head_b.tolist(),
    }
    if adapter.up_bias is not None:
        tensors["adapter0.up_bias"] = adapter.up_bias.tolist()
    doc = {"format": "tropiprune-bundle", "version": 1, "manifest": manifest,
           "tensors": tensors}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
