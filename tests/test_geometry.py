import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropiprune import (TropicalPolynomial, Zonotope, convex_hull_2d,
                        dual_subdivision_points, hausdorff_distance,
                        minkowski_sum, project_generators, trop_poly_mul,
                        zonotope_vertices)
from tropiprune.geometry import point_to_polytope

from oracles import graham_hull_vertices, sampled_hausdorff, subset_sums, support


def dyadic_points(rng, n, scale=4.0, grid=32):
    return [tuple(scale * v / grid for v in rng.integers(-grid, grid + 1, size=2))
            for _ in range(n)]


def random_poly(rng, max_terms=5, max_exp=4):
    n = int(rng.integers(1, max_terms + 1))
    exps = set()
    while len(exps) < n:
        exps.add(tuple(int(e) for e in rng.integers(0, max_exp + 1, size=2)))
    return TropicalPolynomial.from_terms([(float(rng.normal()), e) for e in sorted(exps)])


def test_hull_drops_interior_point():
    hull = convex_hull_2d([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
    assert hull.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_hull_collinear_degenerates_to_segment():
    hull = convex_hull_2d([(0, 0), (1, 1), (2, 2)])
    assert hull.vertices == ((0.0, 0.0), (2.0, 2.0))


def test_hull_single_point_and_duplicates():
    assert convex_hull_2d([(3, 4), (3, 4)]).vertices == ((3.0, 4.0),)


def test_hull_empty_raises():
    with pytest.raises(ValueError):
        convex_hull_2d([])


def test_hull_is_canonical_and_ccw():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = dyadic_points(rng, int(rng.integers(3, 15)))
        hull = convex_hull_2d(pts)
        verts = hull.vertices
        assert verts[0] == min(verts)
        if len(verts) >= 3:
            n = len(verts)
            for i in range(n):
                o, a, b = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
                cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                assert cross > 0.0


def test_hull_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(50):
        hull = convex_hull_2d(dyadic_points(rng, 12))
        assert convex_hull_2d(hull.vertices) == hull


def test_hull_matches_independent_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        pts = dyadic_points(rng, int(rng.integers(1, 20)))
        assert set(convex_hull_2d(pts).vertices) == graham_hull_vertices(pts)


def test_newton_hull_of_quadric():
    p = TropicalPolynomial.from_terms(
        [(1.0, (2, 0)), (1.0, (0, 2)), (2.0, (1, 1)),
         (2.0, (1, 0)), (2.0, (0, 1)), (2.0, (0, 0))])
    assert dual_subdivision_points(p).vertices == ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))


def test_minkowski_examples():
    seg_x = convex_hull_2d([(0, 0), (1, 0)])
    seg_y = convex_hull_2d([(0, 0), (0, 1)])
    square = minkowski_sum(seg_x, seg_y)
    assert square.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

    tri = convex_hull_2d([(0, 0), (1, 0), (0, 1)])
    origin = convex_hull_2d([(0, 0)])
    assert minkowski_sum(tri, origin) == tri
    assert minkowski_sum(tri, tri).vertices == ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))


def test_minkowski_support_additivity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p1 = convex_hull_2d(dyadic_points(rng, int(rng.integers(1, 9))))
        p2 = convex_hull_2d(dyadic_points(rng, int(rng.integers(1, 9))))
        total = minkowski_sum(p1, p2)
        for k in range(16):
            theta = 2 * math.pi * k / 16 + 0.1
            u = (math.cos(theta), math.sin(theta))
            lhs = support(total.vertices, u)
            rhs = support(p1.vertices, u) + support(p2.vertices, u)
            assert abs(lhs - rhs) <= 1e-9


def test_zonotope_examples():
    unit = zonotope_vertices(Zonotope(((1, 0), (0, 1)), (0, 0)))
    assert unit.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

    seg = zonotope_vertices(Zonotope(((2, 3),), (0, 0)))
    assert seg.vertices == ((0.0, 0.0), (2.0, 3.0))

    hexagon = zonotope_vertices(Zonotope(((1, 0), (0, 1), (1, 1)), (0, 0)))
    assert hexagon.vertices == (
        (0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0), (0.0, 1.0))


def test_zonotope_point_degenerate():
    z = zonotope_vertices(Zonotope(((0.0, 0.0), (0.0, 0.0)), (1.0, 2.0)))
    assert z.vertices == ((1.0, 2.0),)


def test_zonotope_bounds():
    # parallel copies add up to one segment, whatever their count
    seg = zonotope_vertices(Zonotope(tuple([(1.0, 0.0)] * 21), (0, 0)))
    assert seg.vertices == ((0.0, 0.0), (21.0, 0.0))
    # 64 generators, far past any subset enumeration: dyadic generators and
    # integer directions keep every support value exact
    rng = np.random.default_rng(23)
    gens = tuple((float(a / 16), float(b / 16))
                 for a, b in rng.integers(-48, 49, size=(64, 2)))
    verts = zonotope_vertices(Zonotope(gens, (0.0, 0.0))).vertices
    for u in [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]:
        assert support(verts, u) == sum(max(0.0, g[0] * u[0] + g[1] * u[1]) for g in gens)
    with pytest.raises(ValueError):
        zonotope_vertices(Zonotope(((1.0, 0.0, 0.0),), (0.0, 0.0, 0.0)))


def test_zonotope_matches_subset_sum_oracle():
    rng = np.random.default_rng(19)
    for _ in range(50):
        m = int(rng.integers(0, 7))
        gens = tuple((float(a / 16), float(b / 16))
                     for a, b in rng.integers(-32, 33, size=(m, 2)))
        mine = set(zonotope_vertices(Zonotope(gens, (0.0, 0.0))).vertices)
        assert mine == graham_hull_vertices(subset_sums(gens))


def test_zonotope_centrally_symmetric():
    rng = np.random.default_rng(21)
    for _ in range(30):
        m = int(rng.integers(1, 7))
        gens = tuple((float(a / 8), float(b / 8))
                     for a, b in rng.integers(-16, 17, size=(m, 2)))
        shift = (0.5, -0.25)
        verts = set(zonotope_vertices(Zonotope(gens, shift)).vertices)
        cx = shift[0] + 0.5 * sum(g[0] for g in gens)
        cy = shift[1] + 0.5 * sum(g[1] for g in gens)
        assert {(2 * cx - x, 2 * cy - y) for x, y in verts} == verts


def test_dual_of_product_is_minkowski_sum_of_duals():
    rng = np.random.default_rng(29)
    for _ in range(50):
        p1, p2 = random_poly(rng), random_poly(rng)
        direct = dual_subdivision_points(trop_poly_mul(p1, p2))
        summed = minkowski_sum(dual_subdivision_points(p1), dual_subdivision_points(p2))
        assert direct == summed


def test_dual_requires_two_variables():
    with pytest.raises(ValueError):
        dual_subdivision_points(TropicalPolynomial.from_terms([(0.0, (1, 0, 0))]))


def test_dual_of_monomial_is_point():
    p = TropicalPolynomial.from_terms([(1.0, (3, 2))])
    assert dual_subdivision_points(p).vertices == ((3.0, 2.0),)


def test_hausdorff_examples():
    square = convex_hull_2d([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert hausdorff_distance(square, square) == 0.0
    shifted = convex_hull_2d([(1, 0), (2, 0), (2, 1), (1, 1)])
    assert hausdorff_distance(square, shifted) == pytest.approx(1.0, abs=1e-12)
    doubled = convex_hull_2d([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert hausdorff_distance(square, doubled) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_hausdorff_degenerate_shapes():
    pt = convex_hull_2d([(0, 0)])
    seg = convex_hull_2d([(0, 0), (3, 4)])
    assert hausdorff_distance(pt, seg) == pytest.approx(5.0, abs=1e-12)
    assert point_to_polytope((3.0, 4.0), pt) == 5.0


coords = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=500, deadline=None)
@given(coords, coords, coords, coords)
def test_distance_to_a_single_vertex_is_hypot(px, py, vx, vy):
    # measured over the degenerate edge (v, v), bit for bit
    got = point_to_polytope((px, py), convex_hull_2d([(vx, vy)]))
    assert got.hex() == math.hypot(px - vx, py - vy).hex()


def test_hausdorff_matches_sampled_boundaries():
    square = convex_hull_2d([(0, 0), (1, 0), (1, 1), (0, 1)])
    # parallel edges: the distance is flat along the whole top and bottom
    wide = convex_hull_2d([(-1, 0.25), (2, 0.25), (2, 0.75), (-1, 0.75)])
    # collinear segments: samples inside a segment can round off its line
    short = convex_hull_2d([(0.0, 0.0), (0.3, 0.7)])
    long = convex_hull_2d([(0.0, 0.0), (0.6, 1.4)])
    cases = [(square, wide), (wide, square), (short, long),
             (convex_hull_2d([(0, 0)]), square),
             (convex_hull_2d([(0, 0), (3, 4)]), wide)]
    rng = np.random.default_rng(43)
    for _ in range(60):
        a = zonotope_vertices(project_generators(rng.normal(size=(4, 2)), (0, 1)))
        b = zonotope_vertices(project_generators(rng.normal(size=(4, 2)), (0, 1)))
        cases.append((a, b))
    for a, b in cases:
        assert hausdorff_distance(a, b) == pytest.approx(
            sampled_hausdorff(a.vertices, b.vertices), rel=1e-12, abs=1e-15)


def test_project_generators():
    z = project_generators(np.eye(2), (0, 1))
    assert z.generators == ((1.0, 0.0), (0.0, 1.0)) and z.shift == (0.0, 0.0)

    zero = project_generators(np.zeros((3, 4)), (1, 2))
    assert zonotope_vertices(zero).vertices == ((0.0, 0.0),)

    rng = np.random.default_rng(33)
    g = rng.normal(size=(3, 4))
    z = project_generators(g, (1, 3))
    assert z.generators == tuple((float(r[1]), float(r[3])) for r in g)

    with pytest.raises(ValueError):
        project_generators(g, (1, 4))
