import numpy as np
import pytest

from tropiprune import (AdapterLayer, convex_hull_2d, forward, merge_bias,
                        minkowski_sum, node_generators, project_generators,
                        split_pos_neg, tropical_parts, zonotope_vertices)

from oracles import naive_adapter_forward


def random_layer(rng, d=None, r=None, scale=1.0):
    d = d or int(rng.integers(2, 9))
    r = r or int(rng.integers(1, 5))
    return AdapterLayer(scale * rng.normal(size=(r, d + 1)),
                        scale * rng.normal(size=(d, r)))


def test_merge_bias_shapes_and_zero_bias():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    merged = merge_bias(w, np.zeros(2))
    assert merged.shape == (2, 3)
    assert np.array_equal(merged[:, :2], w) and np.all(merged[:, 2] == 0.0)


def test_merge_bias_scalar_case():
    # pre-activation of x=3 under weight 1 and bias 2 is 5
    layer = AdapterLayer(merge_bias(np.array([[1.0]]), np.array([2.0])),
                         np.array([[1.0]]))
    assert forward(layer, np.array([3.0])) == pytest.approx(np.array([5.0]))


def test_merge_bias_matches_unmerged_route():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r, d = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        w = rng.normal(size=(r, d))
        b = rng.normal(size=r)
        x = rng.normal(size=d)
        merged = merge_bias(w, b)
        aug = np.concatenate([x, [1.0]])
        assert np.allclose(merged @ aug, w @ x + b, atol=1e-12)


def test_merge_bias_shape_mismatch():
    with pytest.raises(ValueError):
        merge_bias(np.ones((2, 3)), np.ones(3))


def test_forward_relu_kills_negatives():
    layer = AdapterLayer(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.eye(2))
    assert np.array_equal(forward(layer, np.array([1.0, -1.0])), np.array([1.0, 0.0]))


def test_forward_zero_down_projection():
    layer = AdapterLayer(np.zeros((2, 4)), np.ones((3, 2)))
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(forward(layer, x), np.zeros(3))
    assert np.array_equal(forward(layer, x, residual=True), x)


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        layer = random_layer(rng)
        x = rng.normal(size=layer.width)
        expect = naive_adapter_forward(layer.down.tolist(), layer.up.tolist(), x.tolist())
        assert np.allclose(forward(layer, x), expect, atol=1e-12)


def test_forward_batch_agrees_with_single():
    rng = np.random.default_rng(11)
    layer = random_layer(rng)
    xs = rng.normal(size=(5, layer.width))
    batched = forward(layer, xs, residual=True)
    for i in range(5):
        assert np.allclose(batched[i], forward(layer, xs[i], residual=True))


def test_forward_shape_mismatch():
    layer = AdapterLayer(np.zeros((2, 4)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        forward(layer, np.zeros(4))


def test_layer_validation():
    with pytest.raises(ValueError):
        AdapterLayer(np.zeros((2, 3)), np.zeros((3, 2)))  # width mismatch
    with pytest.raises(ValueError):
        AdapterLayer(np.zeros((2, 4)), np.zeros((3, 3)))  # bottleneck mismatch
    bad = np.zeros((2, 4))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        AdapterLayer(bad, np.zeros((3, 2)))


@pytest.mark.parametrize("up_bias", [[0.0, np.nan, 0.0], [0.0, 0.0, -np.inf], [0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0]])
def test_layer_rejects_a_non_finite_or_misshapen_up_bias(up_bias):
    with pytest.raises(ValueError, match="up_bias must be a finite vector of the output width"):
        AdapterLayer(np.zeros((2, 4)), np.zeros((3, 2)), up_bias)


def test_layer_matrices_are_frozen():
    layer = AdapterLayer(np.zeros((2, 4)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        layer.down[0, 0] = 1.0


def test_split_pos_neg():
    pos, neg = split_pos_neg(np.array([[1.0, -2.0]]))
    assert np.array_equal(pos, [[1.0, 0.0]]) and np.array_equal(neg, [[0.0, 2.0]])

    m = -np.abs(np.random.default_rng(0).normal(size=(3, 3)))
    pos, neg = split_pos_neg(m)
    assert np.all(pos == 0.0) and np.array_equal(neg, -m)

    m = np.random.default_rng(1).normal(size=(4, 5))
    pos, neg = split_pos_neg(m)
    assert np.array_equal(pos - neg, m)
    assert np.all((pos == 0) | (neg == 0))


def test_parts_nonnegative_layer_has_zero_negative_part():
    rng = np.random.default_rng(13)
    layer = AdapterLayer(np.abs(rng.normal(size=(2, 4))), np.abs(rng.normal(size=(3, 2))))
    x = rng.normal(size=3)
    pos, neg = tropical_parts(layer, x)
    assert np.allclose(neg, 0.0)
    assert np.allclose(pos, forward(layer, x))


def test_parts_zero_input_zero_bias():
    rng = np.random.default_rng(17)
    down = merge_bias(rng.normal(size=(2, 3)), np.zeros(2))
    layer = AdapterLayer(down, rng.normal(size=(3, 2)))
    pos, neg = tropical_parts(layer, np.zeros(3))
    assert np.allclose(pos, 0.0) and np.allclose(neg, 0.0)


def test_parts_difference_equals_forward():
    rng = np.random.default_rng(19)
    for _ in range(200):
        layer = random_layer(rng)
        x = rng.normal(size=layer.width)
        pos, neg = tropical_parts(layer, x)
        assert np.max(np.abs(pos - neg - forward(layer, x))) <= 1e-12


def test_parts_carry_up_bias():
    rng = np.random.default_rng(23)
    layer = AdapterLayer(rng.normal(size=(2, 4)), rng.normal(size=(3, 2)),
                         up_bias=rng.normal(size=3))
    x = rng.normal(size=3)
    pos, neg = tropical_parts(layer, x)
    assert np.allclose(pos - neg, forward(layer, x), atol=1e-12)


def test_forward_is_piecewise_linear_along_segments():
    rng = np.random.default_rng(29)
    layer = random_layer(rng, d=4, r=3)
    x0 = rng.normal(size=4)
    x1 = rng.normal(size=4)
    ts = np.linspace(0.0, 1.0, 201)
    points = np.array([x0 + t * (x1 - x0) for t in ts])
    aug = np.hstack([points, np.ones((len(ts), 1))])
    patterns = (aug @ layer.down.T) > 0.0
    outs = forward(layer, points)
    for i in range(1, len(ts) - 1):
        if np.array_equal(patterns[i - 1], patterns[i]) and \
           np.array_equal(patterns[i], patterns[i + 1]):
            mid = 0.5 * (outs[i - 1] + outs[i + 1])
            assert np.allclose(outs[i], mid, atol=1e-9)


def test_node_generators_hand_case():
    down = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    up = np.array([[2.0, -3.0], [0.5, 0.5]])
    pos, neg = node_generators(AdapterLayer(down, up), 0)
    assert np.array_equal(pos, [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(neg, [[0.0, 0.0, 0.0], [0.0, 3.0, 0.0]])


def test_node_generators_signs_and_zero():
    rng = np.random.default_rng(31)
    layer = AdapterLayer(rng.normal(size=(3, 5)), np.abs(rng.normal(size=(4, 3))))
    for i in range(4):
        _, neg = node_generators(layer, i)
        assert np.all(neg == 0.0)
    zero = AdapterLayer(np.zeros((3, 5)), rng.normal(size=(4, 3)))
    pos, neg = node_generators(zero, 1)
    assert np.all(pos == 0.0) and np.all(neg == 0.0)
    with pytest.raises(ValueError):
        node_generators(layer, 4)


def test_generator_row_support_matches_node_weights():
    rng = np.random.default_rng(37)
    for _ in range(20):
        layer = random_layer(rng)
        for i in range(layer.width):
            pos, neg = node_generators(layer, i)
            row_used = np.any(pos != 0.0, axis=1) | np.any(neg != 0.0, axis=1)
            expected = layer.up[i] != 0.0
            # a zero down row can hide a nonzero weight, so compare where down is live
            live = np.any(layer.down != 0.0, axis=1)
            assert np.array_equal(row_used[live], expected[live])
            # the two branches never share a nonzero row
            both = np.any(pos != 0.0, axis=1) & np.any(neg != 0.0, axis=1)
            assert not both.any()


def test_node_zonotope_equals_segment_minkowski_sum():
    rng = np.random.default_rng(41)
    for _ in range(20):
        grid = rng.integers(-16, 17, size=(3, 5)) / 8.0
        up = rng.integers(-8, 9, size=(4, 3)) / 8.0
        layer = AdapterLayer(grid, up)
        pos, _ = node_generators(layer, int(rng.integers(0, 4)))
        zono = zonotope_vertices(project_generators(pos, (0, 1)))
        acc = convex_hull_2d([(0.0, 0.0)])
        for row in pos:
            seg = convex_hull_2d([(0.0, 0.0), (float(row[0]), float(row[1]))])
            acc = minkowski_sum(acc, seg)
        assert zono == acc
