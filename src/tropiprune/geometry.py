"""Exact 2-D polytope machinery: hulls, Minkowski sums, zonotopes, duals.

Everything here works on plain float tuples so that integer-coordinate
inputs (exponent vectors, dyadic test data) stay exact.  Higher-dimensional
zonotopes are handled by projecting generator matrices down to two chosen
coordinates first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tropical import TropicalPolynomial, newton_points

Point = tuple[float, float]


@dataclass(frozen=True)
class Polytope2D:
    """Convex polygon as a canonical CCW vertex tuple.

    The first vertex is the lexicographically smallest and edge-interior
    points are dropped, so equal regions compare equal.  Construct through
    convex_hull_2d to keep the representation canonical.
    """

    vertices: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Zonotope:
    """Generator representation: all sums of scaled generators plus a shift."""

    generators: tuple[tuple[float, ...], ...]
    shift: tuple[float, ...]

    def __post_init__(self) -> None:
        gens = tuple(tuple(float(v) for v in g) for g in self.generators)
        shift = tuple(float(v) for v in self.shift)
        if any(len(g) != len(shift) for g in gens):
            raise ValueError("generator dimensions must match the shift")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "shift", shift)

    @property
    def dim(self) -> int:
        return len(self.shift)


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: Sequence[Sequence[float]]) -> Polytope2D:
    """Monotone-chain hull with strictly convex corners only.

    Args:
        points: at least one 2-D point; duplicates are fine.

    Returns:
        Canonical CCW polytope.  Collinear input degenerates to a segment,
        coincident input to a single point.
    """
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if not pts:
        raise ValueError("cannot take the hull of no points")
    if len(pts) == 1:
        return Polytope2D((pts[0],))
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:
        # fully collinear: keep the two extreme points
        hull = [pts[0], pts[-1]]
    return Polytope2D(tuple(hull))


def minkowski_sum(p1: Polytope2D, p2: Polytope2D) -> Polytope2D:
    """Hull of all pairwise vertex sums of the two polytopes."""
    if not p1.vertices or not p2.vertices:
        raise ValueError("polytopes must be non-empty")
    sums = [(a[0] + b[0], a[1] + b[1]) for a in p1.vertices for b in p2.vertices]
    return convex_hull_2d(sums)


def zonotope_vertices(z: Zonotope) -> Polytope2D:
    """Exact vertices of a 2-D zonotope from its generators sorted by angle.

    A segment [0, g] equals g + [0, -g], so every generator is flipped into
    the upper half-plane and the flipped ones are folded into the base point.
    Walking the sorted generators from the base point traces one boundary
    chain and the suffix sums trace the other, which leaves 2m candidate
    points for the hull instead of 2**m subset sums.
    """
    if z.dim != 2:
        raise ValueError(f"zonotope vertices need 2-D generators, got dim {z.dim}")
    bx, by = z.shift
    upper: list[Point] = []
    for gx, gy in z.generators:
        if gy < 0.0 or (gy == 0.0 and gx < 0.0):
            bx, by = bx + gx, by + gy
            upper.append((-gx, -gy))
        elif gx != 0.0 or gy != 0.0:
            upper.append((gx, gy))
    upper.sort(key=lambda g: math.atan2(g[1], g[0]))
    points = [(bx, by)]
    x, y = bx, by
    for gx, gy in upper:
        x, y = x + gx, y + gy
        points.append((x, y))
    x, y = 0.0, 0.0
    for gx, gy in reversed(upper[1:]):
        x, y = x + gx, y + gy
        points.append((bx + x, by + y))
    return convex_hull_2d(points)


def dual_subdivision_points(p: TropicalPolynomial) -> Polytope2D:
    """Hull of the exponent vectors of a 2-variable polynomial.

    For bias-free models this hull is the dual object of the polynomial's
    non-linearity locus, which is what the pruning objective preserves.
    """
    if p.dim != 2:
        raise ValueError(f"dual subdivision implemented for 2 variables, got {p.dim}")
    return convex_hull_2d([(float(a), float(b)) for a, b in newton_points(p)])


def project_generators(g: np.ndarray, dims: tuple[int, int]) -> Zonotope:
    """Zonotope from two chosen columns of a generator matrix, zero shift."""
    mat = np.asarray(g, dtype=float)
    if mat.ndim != 2:
        raise ValueError("generator matrix must be 2-D")
    a, b = int(dims[0]), int(dims[1])
    if not (0 <= a < mat.shape[1] and 0 <= b < mat.shape[1]):
        raise ValueError(f"projection dims {dims} out of range for {mat.shape[1]} columns")
    gens = tuple((float(row[a]), float(row[b])) for row in mat)
    return Zonotope(gens, (0.0, 0.0))


def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    ax, ay = a
    vx, vy = b[0] - ax, b[1] - ay
    wx, wy = p[0] - ax, p[1] - ay
    vv = vx * vx + vy * vy
    t = 0.0 if vv == 0.0 else max(0.0, min(1.0, (wx * vx + wy * vy) / vv))
    dx, dy = wx - t * vx, wy - t * vy
    return math.hypot(dx, dy)


def _contains(poly: Polytope2D, p: Point) -> bool:
    verts = poly.vertices
    if len(verts) < 3:
        return False
    n = len(verts)
    return all(_cross(verts[i], verts[(i + 1) % n], p) >= -1e-12 for i in range(n))


def point_to_polytope(p: Point, poly: Polytope2D) -> float:
    """Euclidean distance from a point to a convex region (0 inside)."""
    verts = poly.vertices
    if len(verts) == 1:
        return math.hypot(p[0] - verts[0][0], p[1] - verts[0][1])
    if _contains(poly, p):
        return 0.0
    n = len(verts)
    return min(_point_segment_distance(p, verts[i], verts[(i + 1) % n]) for i in range(n))


def hausdorff_distance(p1: Polytope2D, p2: Polytope2D) -> float:
    """Symmetric Hausdorff distance between two convex regions.

    The distance to a convex region is a convex function, so over a convex
    polygon its maximum sits at a vertex: the vertices give the exact value.
    """
    if not p1.vertices or not p2.vertices:
        raise ValueError("polytopes must be non-empty")
    d12 = max(point_to_polytope(v, p2) for v in p1.vertices)
    d21 = max(point_to_polytope(v, p1) for v in p2.vertices)
    return max(d12, d21)
