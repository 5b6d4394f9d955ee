import tracemalloc
import warnings

import numpy as np
import pytest

from tropiprune import (AdapterLayer, OptimConfig, branch_loss, node_generators,
                        objective_value, run, subgradient)
from tropiprune.errors import NumericError

from oracles import materialised_objective


def random_layer(rng, d=4, r=2, scale=1.0):
    return AdapterLayer(scale * rng.normal(size=(r, d + 1)),
                        scale * rng.normal(size=(d, r)))


def generator_l1(layer_or_pair):
    down, up = layer_or_pair.down, layer_or_pair.up
    total = 0.0
    for i in range(up.shape[0]):
        pos = np.maximum(up[i], 0.0)[:, None] * down
        neg = np.maximum(-up[i], 0.0)[:, None] * down
        total += np.abs(pos).sum() + np.abs(neg).sum()
    return total


def test_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(iterations=-1)
    with pytest.raises(ValueError):
        OptimConfig(lr=0.0)
    with pytest.raises(ValueError):
        OptimConfig(l1_pos=-0.1)
    with pytest.raises(ValueError):
        OptimConfig(tol=-1e-9)
    with pytest.raises(ValueError):
        OptimConfig(window=0)
    for field in ("lr", "l1_pos", "l1_neg", "tol"):
        with pytest.raises(ValueError):
            OptimConfig(**{field: float("nan")})


def test_objective_zero_at_perfect_reconstruction():
    rng = np.random.default_rng(1)
    layer = random_layer(rng)
    assert objective_value(layer, layer.down, layer.up, 0.0, 0.0) == 0.0


def test_objective_reduces_to_penalty_at_init():
    rng = np.random.default_rng(2)
    for _ in range(10):
        layer = random_layer(rng)
        lam1, lam2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        value = objective_value(layer, layer.down, layer.up, lam1, lam2)
        pos_total = neg_total = 0.0
        for i in range(layer.width):
            pos, neg = node_generators(layer, i)
            pos_total += np.abs(pos).sum()
            neg_total += np.abs(neg).sum()
        assert value == pytest.approx(lam1 * pos_total + lam2 * neg_total, rel=1e-12)


def test_objective_scalar_case():
    # single node, single weight: penalty is l1 * |3 * 2|
    layer = AdapterLayer(np.array([[2.0, 0.0]]), np.array([[3.0]]))
    assert objective_value(layer, layer.down, layer.up, 0.1, 0.0) == pytest.approx(0.6)


def test_objective_matches_materialised_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        d, r = int(rng.integers(1, 24)), int(rng.integers(1, 9))
        scale = float(10.0 ** rng.integers(-3, 4))
        layer = random_layer(rng, d=d, r=r, scale=scale)
        lam1, lam2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        assert objective_value(layer, layer.down, layer.up, 0.0, 0.0) == 0.0
        assert materialised_objective(layer.down, layer.up, layer.down, layer.up,
                                      0.0, 0.0) == 0.0
        step = float(10.0 ** rng.integers(-4, 1))
        down_hat = layer.down + step * scale * rng.normal(size=layer.down.shape)
        up_hat = layer.up + step * scale * rng.normal(size=layer.up.shape)
        # exact zeros, as the sparsity pressure leaves them
        down_hat[rng.uniform(size=down_hat.shape) < 0.2] = 0.0
        up_hat[rng.uniform(size=up_hat.shape) < 0.2] = 0.0
        for lams in ((lam1, lam2), (0.0, 0.0)):
            want = materialised_objective(layer.down, layer.up, down_hat, up_hat, *lams)
            got = objective_value(layer, down_hat, up_hat, *lams)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_objective_memory_is_linear():
    # the (d, r, d+1) stacks of a 256x16 adapter take about 8 MB each
    rng = np.random.default_rng(6)
    layer = random_layer(rng, d=256, r=16)
    down_hat, up_hat = 0.5 * layer.down, 0.5 * layer.up
    objective_value(layer, down_hat, up_hat, 0.1, 0.1)
    tracemalloc.start()
    try:
        objective_value(layer, down_hat, up_hat, 0.1, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_objective_shape_mismatch():
    layer = AdapterLayer(np.zeros((2, 4)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        objective_value(layer, np.zeros((2, 5)), np.zeros((3, 2)), 0.0, 0.0)


def test_subgradient_zero_at_unpenalized_minimum():
    rng = np.random.default_rng(3)
    layer = random_layer(rng)
    for node in range(layer.width):
        for branch in ("pos", "neg"):
            d_down, d_up = subgradient(layer, layer.down, layer.up, node, branch, 0.0)
            assert np.all(d_down == 0.0) and np.all(d_up == 0.0)


def test_subgradient_scalar_case():
    layer = AdapterLayer(np.array([[2.0, 0.0]]), np.array([[3.0]]))
    d_down, d_up = subgradient(layer, layer.down, layer.up, 0, "pos", 0.1)
    assert d_down == pytest.approx(np.array([[0.3, 0.0]]))
    assert d_up == pytest.approx(np.array([[0.2]]))


def test_subgradient_rejects_bad_arguments():
    layer = AdapterLayer(np.zeros((2, 4)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        subgradient(layer, layer.down, layer.up, 3, "pos", 0.1)
    with pytest.raises(ValueError):
        subgradient(layer, layer.down, layer.up, 0, "both", 0.1)


def finite_difference(layer, down_hat, up_hat, node, branch, lam, h=1e-5):
    d_down = np.zeros_like(down_hat)
    for j in range(down_hat.shape[0]):
        for k in range(down_hat.shape[1]):
            plus, minus = down_hat.copy(), down_hat.copy()
            plus[j, k] += h
            minus[j, k] -= h
            d_down[j, k] = (branch_loss(layer, plus, up_hat, node, branch, lam)
                            - branch_loss(layer, minus, up_hat, node, branch, lam)) / (2 * h)
    d_up = np.zeros_like(up_hat)
    for j in range(up_hat.shape[1]):
        plus, minus = up_hat.copy(), up_hat.copy()
        plus[node, j] += h
        minus[node, j] -= h
        d_up[node, j] = (branch_loss(layer, down_hat, plus, node, branch, lam)
                         - branch_loss(layer, down_hat, minus, node, branch, lam)) / (2 * h)
    return d_down, d_up


def kink_free_point(rng, layer):
    """Surrogate matrices with every coordinate well away from a kink."""
    sign_d = rng.choice([-1.0, 1.0], size=layer.down.shape)
    sign_u = rng.choice([-1.0, 1.0], size=layer.up.shape)
    down_hat = sign_d * rng.uniform(0.1, 1.0, size=layer.down.shape)
    up_hat = sign_u * rng.uniform(0.1, 1.0, size=layer.up.shape)
    return down_hat, up_hat


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        layer = random_layer(rng, d=3, r=2)
        down_hat, up_hat = kink_free_point(rng, layer)
        node = int(rng.integers(0, layer.width))
        branch = "pos" if rng.uniform() < 0.5 else "neg"
        lam = float(rng.uniform(0.0, 0.5))
        got = subgradient(layer, down_hat, up_hat, node, branch, lam)
        want = finite_difference(layer, down_hat, up_hat, node, branch, lam)
        for g, w in zip(got, want):
            denom = max(float(np.linalg.norm(w)), 1e-12)
            assert float(np.linalg.norm(g - w)) / denom <= 1e-4


def test_run_zero_iterations_returns_init():
    rng = np.random.default_rng(7)
    layer = random_layer(rng)
    result = run(layer, OptimConfig(iterations=0, l1_pos=0.2, l1_neg=0.2))
    assert np.array_equal(result.down, layer.down)
    assert np.array_equal(result.up, layer.up)
    assert len(result.loss_trace) == 1 and result.loss_trace[0][0] == 0
    assert result.converged_at is None


def test_run_without_penalty_is_stationary():
    rng = np.random.default_rng(9)
    layer = random_layer(rng)
    result = run(layer, OptimConfig(iterations=50, l1_pos=0.0, l1_neg=0.0))
    assert np.array_equal(result.down, layer.down)
    assert np.array_equal(result.up, layer.up)
    # flat loss trips the relative-change stop as soon as the window fills
    assert result.converged_at == 10


def test_run_reduces_loss():
    rng = np.random.default_rng(11)
    layer = AdapterLayer(rng.normal(size=(4, 9)), rng.normal(size=(8, 4)))
    result = run(layer, OptimConfig(iterations=500, lr=1e-2, l1_pos=1e-2,
                                    l1_neg=1e-2, tol=0.0))
    losses = [v for _, v in result.loss_trace]
    assert losses[-1] < losses[0]
    assert len(losses) == 501


def test_run_final_loss_never_exceeds_initial_for_small_steps():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        layer = random_layer(rng, d=6, r=3, scale=0.5)
        result = run(layer, OptimConfig(iterations=120, lr=1e-3, l1_pos=5e-2,
                                        l1_neg=5e-2, tol=0.0))
        losses = [v for _, v in result.loss_trace]
        assert losses[-1] <= losses[0]


def test_heavy_penalty_crushes_generator_mass():
    rng = np.random.default_rng(13)
    layer = random_layer(rng, d=6, r=3, scale=0.1)
    lam = 1.0  # an order of magnitude above the parameter scale
    result = run(layer, OptimConfig(iterations=400, lr=1e-2, l1_pos=lam,
                                    l1_neg=lam, tol=0.0))
    assert generator_l1(result) < 0.1 * generator_l1(layer)


def test_run_is_deterministic():
    rng = np.random.default_rng(17)
    layer = random_layer(rng)
    cfg = OptimConfig(iterations=80, lr=5e-3, l1_pos=0.05, l1_neg=0.02)
    a, b = run(layer, cfg), run(layer, cfg)
    assert np.array_equal(a.down, b.down) and np.array_equal(a.up, b.up)
    assert a.loss_trace == b.loss_trace and a.converged_at == b.converged_at


def test_run_preserves_shapes():
    rng = np.random.default_rng(19)
    layer = random_layer(rng, d=5, r=2)
    result = run(layer, OptimConfig(iterations=30))
    assert result.down.shape == layer.down.shape
    assert result.up.shape == layer.up.shape


def test_branch_alternation_touches_both_signs():
    # a layer with one positive and one negative weight: both must move
    layer = AdapterLayer(np.array([[1.0, 0.0, 0.0]]), np.array([[2.0], [-2.0]]))
    result = run(layer, OptimConfig(iterations=6, lr=1e-2, l1_pos=0.5,
                                    l1_neg=0.5, tol=0.0))
    assert result.up[0, 0] != layer.up[0, 0]
    assert result.up[1, 0] != layer.up[1, 0]


def reference_run(layer, cfg):
    """run() as a plain loop over the public subgradient and the oracle objective."""
    down_hat, up_hat = layer.down.copy(), layer.up.copy()

    def value():
        return materialised_objective(layer.down, layer.up, down_hat, up_hat,
                                      cfg.l1_pos, cfg.l1_neg)

    trace = [(0, value())]
    for t in range(1, cfg.iterations + 1):
        branch = "pos" if t % 2 == 0 else "neg"
        l1 = cfg.l1_pos if branch == "pos" else cfg.l1_neg
        for node in range(layer.width):
            d_down, d_up = subgradient(layer, down_hat, up_hat, node, branch, l1)
            down_hat -= cfg.lr * d_down
            up_hat[node] -= cfg.lr * d_up[node]
        trace.append((t, value()))
        if t >= cfg.window:
            prev = trace[t - cfg.window][1]
            if abs(trace[-1][1] - prev) / max(abs(prev), 1e-300) < cfg.tol:
                return down_hat, up_hat, trace, t
    return down_hat, up_hat, trace, None


@pytest.mark.parametrize("d,r", [(16, 4), (64, 8)])
def test_run_matches_reference_loop(d, r):
    rng = np.random.default_rng(d)
    layer = random_layer(rng, d=d, r=r, scale=0.5)
    cfg = OptimConfig(iterations=300, lr=1e-2, l1_pos=0.05, l1_neg=0.02, tol=1e-4, window=5)
    result = run(layer, cfg)
    down, up, trace, converged_at = reference_run(layer, cfg)
    assert converged_at is not None and result.converged_at == converged_at
    # bit for bit, signed zeros included
    assert result.down.tobytes() == down.tobytes()
    assert result.up.tobytes() == up.tobytes()
    assert [t for t, _ in result.loss_trace] == [t for t, _ in trace]
    for (_, got), (_, want) in zip(result.loss_trace, trace):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_run_raises_at_first_non_finite_iteration():
    rng = np.random.default_rng(31)
    layer = random_layer(rng, d=6, r=3)
    cfg = OptimConfig(iterations=40, lr=2.0, l1_pos=0.1, l1_neg=0.1, tol=0.0)
    with np.errstate(all="ignore"):
        _, _, trace, _ = reference_run(layer, cfg)
        first = next(t for t, v in trace if not np.isfinite(v))
        assert first > 2
        branch = "pos" if first % 2 == 0 else "neg"
        with pytest.raises(NumericError,
                           match=f"diverged at iteration {first} on the {branch} branch"):
            run(layer, cfg)


def test_diverging_run_raises_without_numpy_warnings():
    rng = np.random.default_rng(47)
    layer = random_layer(rng, d=16, r=4)
    cfg = OptimConfig(iterations=200, lr=1e9, tol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="diverged"):
            run(layer, cfg)
