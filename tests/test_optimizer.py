import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropiprune import (AdapterLayer, OptimConfig, branch_loss, forward, init_model,
                        node_generators, objective_value, run, subgradient)
from tropiprune.errors import NumericError
from tropiprune import optimizer
from tropiprune.harness import SyntheticTask, generate_task, train_stack

from oracles import materialised_objective, reference_fit, worst_single_entry_move


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


def test_blocks_hand_case_moves_both_signs():
    # one row: S2 = 8, S1 = 8, L = 0.5*2 + 0.25*2, so down = (8 - 1.5)/8;
    # then a = down^2 = c*down, n = down: up = +-(2 - l1)*down/a
    layer = AdapterLayer(np.array([[1.0, 0.0, 0.0]]), np.array([[2.0], [-2.0]]))
    result = run(layer, OptimConfig(iterations=1, l1_pos=0.5, l1_neg=0.25, tol=0.0))
    assert result.down == pytest.approx(np.array([[0.8125, 0.0, 0.0]]), rel=1e-15)
    assert result.up == pytest.approx(np.array([[24.0 / 13.0], [-28.0 / 13.0]]), rel=1e-15)


def seeded_layer(d, r):
    return random_layer(np.random.default_rng(d), d=d, r=r, scale=0.5)


def untrained_adapter():
    """The init_model adapter; the merged bias column of its down is exactly 0."""
    return init_model(6, features=16, bottleneck=4, seed=0).adapter


def dead_unit_layer():
    """A 12x3 layer: hidden unit 1 has an all-zero down row, unit 2 an all-zero up column."""
    layer = seeded_layer(12, 3)
    down, up = layer.down.copy(), layer.up.copy()
    down[1] = 0.0
    up[:, 2] = 0.0
    return AdapterLayer(down, up)


@pytest.mark.parametrize("make_layer", [
    pytest.param(lambda: seeded_layer(16, 4), id="16-4"),
    pytest.param(lambda: seeded_layer(40, 6), id="40-6"),
    pytest.param(untrained_adapter, id="init_model"),
    pytest.param(dead_unit_layer, id="dead-unit"),
])
def test_run_blocks_are_exact_minimisers(make_layer):
    # iteration k sets down with iteration k-1's up fixed, then up with the
    # new down fixed; with tol=0 the k-iteration fit extends the (k-1)-one
    layer = make_layer()
    lams = (0.05, 0.02)
    prev = run(layer, OptimConfig(iterations=0))
    for k in (1, 2, 3):
        cur = run(layer, OptimConfig(iterations=k, l1_pos=lams[0], l1_neg=lams[1], tol=0.0))
        assert worst_single_entry_move(layer.down, layer.up, cur.down, prev.up, *lams,
                                       "down") <= 1e-12
        assert worst_single_entry_move(layer.down, layer.up, cur.down, cur.up, *lams,
                                       "up") <= 1e-12
        prev = cur


#: log10 of a sparsity weight over the product of the two matrices' scales
log_penalties = st.one_of(st.none(), st.floats(-3.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), r=st.integers(1, 6),
       down_scale=st.floats(-3.0, 1.0), up_scale=st.floats(-3.0, 1.0),
       l1_pos=log_penalties, l1_neg=log_penalties, iterations=st.integers(1, 30))
# weights of scale 0.018 at d = 9, r = 1: the subgradient fit blew up here
@example(seed=0, d=9, r=1, down_scale=math.log10(0.018), up_scale=math.log10(0.018),
         l1_pos=-1.0, l1_neg=-1.0, iterations=30)
def test_run_is_finite_and_monotone_on_any_layer(seed, d, r, down_scale, up_scale,
                                                 l1_pos, l1_neg, iterations):
    rng = np.random.default_rng(seed)
    down_scale, up_scale = 10.0 ** down_scale, 10.0 ** up_scale
    down = down_scale * rng.normal(size=(r, d + 1))
    down[:, -1] = 0.0  # a zero bias column, as init_model gives
    up = up_scale * rng.normal(size=(d, r))
    up[rng.uniform(size=up.shape) < 0.2] = 0.0
    layer = AdapterLayer(down, up)
    penalty = [0.0 if log is None else 10.0 ** log * down_scale * up_scale
               for log in (l1_pos, l1_neg)]
    result = run(layer, OptimConfig(iterations=iterations, l1_pos=penalty[0],
                                    l1_neg=penalty[1], tol=0.0))
    assert np.all(np.isfinite(result.down)) and np.all(np.isfinite(result.up))
    losses = [v for _, v in result.loss_trace]
    assert len(losses) == iterations + 1
    for before, after in zip(losses, losses[1:]):
        assert after <= before * (1.0 + 1e-12)
    assert np.all(result.down[layer.down == 0.0] == 0.0)
    assert np.all(result.up[layer.up == 0.0] == 0.0)


def test_dead_hidden_unit_drops_its_up_column():
    layer = dead_unit_layer()
    assert np.any(layer.up[:, 1] != 0.0)
    x = np.random.default_rng(3).normal(size=(20, layer.width))
    for lam in (0.1, 0.0):
        result = run(layer, OptimConfig(iterations=1, l1_pos=lam, l1_neg=lam, tol=0.0))
        assert np.all(result.down[1] == 0.0)
        assert np.all(result.up[:, 1] == 0.0)
    # without a penalty every other entry stays at the layer, and the dead
    # unit's output is 0 whatever its up column holds: the map is unchanged
    fitted = AdapterLayer(result.down, result.up)
    assert np.array_equal(forward(fitted, x), forward(layer, x))


def test_unread_hidden_unit_keeps_its_down_row():
    # no generator reads down row 2 while up column 2 is all zero, so the
    # objective is flat in that row and the row keeps the layer's values
    layer = dead_unit_layer()
    result = run(layer, OptimConfig(iterations=5, l1_pos=0.1, l1_neg=0.1, tol=0.0))
    assert np.array_equal(result.down[2], layer.down[2])
    assert np.all(result.up[:, 2] == 0.0)


def test_run_converges_at_bert_shape():
    # the default settings at 768x64: converged by the iteration count alone
    result = run(init_model(32, 768, 64).adapter, OptimConfig())
    assert result.converged_at is not None


def test_layer_zeros_stay_exact_zeros():
    # the merged bias column of down is 0 in the layer, and so are the up
    # entries zeroed here, positive and negative ones before
    adapter = untrained_adapter()
    up = adapter.up.copy()
    up[::3, 1] = 0.0
    layer = AdapterLayer(adapter.down, up)
    result = run(layer, OptimConfig(iterations=200, lr=0.05, l1_pos=0.2, l1_neg=0.2, tol=0.0))
    assert np.all(layer.down[:, -1] == 0.0)
    assert np.all(result.down[:, -1] == 0.0)
    assert np.all(result.up[::3, 1] == 0.0)
    assert np.all(result.down[:, :-1] != layer.down[:, :-1])


def test_subgradient_moves_zeros_off_a_non_zero_layer_value():
    layer = AdapterLayer(np.array([[0.3, 0.5]]), np.array([[0.8]]))
    d_down, _ = subgradient(layer, np.array([[0.0, 0.5]]), layer.up, 0, "pos", 0.1)
    assert 0.0 - 0.01 * d_down[0, 0] == pytest.approx(0.00192, rel=1e-12)


def test_run_memory_is_linear():
    # one (r, d+1) down per node step of an iteration would take about 300 MB
    rng = np.random.default_rng(8)
    layer = random_layer(rng, d=768, r=64, scale=0.5)
    cfg = OptimConfig(iterations=2, lr=1e-3, l1_pos=1e-3, l1_neg=1e-3, tol=0.0)
    run(layer, cfg)
    tracemalloc.start()
    try:
        run(layer, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def huge_layer(down_scale=1e160, up_scale=1e160):
    """A finite layer whose generators' squares overflow."""
    layer = random_layer(np.random.default_rng(31), d=6, r=3)
    return AdapterLayer(down_scale * layer.down, up_scale * layer.up)


def test_run_raises_at_first_non_finite_iteration():
    # the starting loss already overflows: iteration 0 is the one to blame
    for iterations in (0, 5):
        with pytest.raises(NumericError, match="not finite at iteration 0: nan"):
            run(huge_layer(), OptimConfig(iterations=iterations))


def test_diverging_run_raises_without_numpy_warnings():
    for down_scale, up_scale in ((1e160, 1e160), (1.0, 1e200), (1e200, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="not finite"):
                run(huge_layer(down_scale, up_scale), OptimConfig(iterations=3))


def test_run_stops_on_its_tol_test_or_iteration_cap():
    # each layer stops on its own tol test or iteration cap, and the huge
    # one fails at iteration 0
    rng = np.random.default_rng(23)
    layers = [random_layer(rng, d=6, r=3, scale=s) for s in (0.1, 0.5, 1.0, 2.0)]
    layers.insert(2, huge_layer())
    cfg = OptimConfig(iterations=7, l1_pos=0.05, l1_neg=0.02, tol=1e-12, window=5)
    outcomes = []
    for layer in layers:
        try:
            outcomes.append(run(layer, cfg))
        except NumericError as exc:
            outcomes.append(exc)
    assert [getattr(o, "converged_at", "failed") for o in outcomes] == \
        [6, None, "failed", None, 7]
    assert str(outcomes[2]) == "surrogate loss is not finite at iteration 0: nan"
    for layer, got in zip(layers, outcomes):
        if layer is not layers[2]:
            down, up, trace, converged_at = reference_fit(layer, cfg)
            assert np.array_equal(got.down, down)
            assert np.array_equal(got.up, up)
            assert got.loss_trace == tuple(trace)
            assert got.converged_at == converged_at
            # each result owns its matrices, not views of the layer's
            for a in (got.down, got.up):
                assert a.base is None or a.base.nbytes <= a.nbytes
                assert not np.shares_memory(a, layer.down) and not np.shares_memory(a, layer.up)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4), d=st.integers(1, 8),
       r=st.integers(1, 4), log_penalty=st.floats(-4.0, 0.0),
       tol=st.sampled_from([0.0, 0.0, 1e-12, 1e-6, 1e-3]), window=st.sampled_from([1, 2, 5, 10]),
       iterations=st.integers(0, 400), failing=st.booleans())
def test_run_equals_the_every_iteration_fit(seed, size, d, r, log_penalty, tol, window,
                                            iterations, failing):
    # fits stop at their first exact repeat; the outcome must be the one
    # of a fit that runs every iteration
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(size):
        down, up = rng.normal(size=(r, d + 1)), rng.normal(size=(d, r))
        down[:, -1] = 0.0
        up[rng.uniform(size=up.shape) < 0.2] = 0.0
        layers.append(AdapterLayer(down, up))
    if failing:  # a layer whose loss is NaN
        layers.insert(int(rng.integers(size + 1)), random_layer(rng, d, r, scale=1e160))
    lam = 10.0 ** log_penalty
    cfg = OptimConfig(iterations=iterations, l1_pos=lam, l1_neg=lam * rng.uniform(0.5, 2.0),
                      tol=tol, window=window)
    for layer in layers:
        want = reference_fit(layer, cfg)
        if isinstance(want, NumericError):
            with pytest.raises(NumericError) as got:
                run(layer, cfg)
            assert str(got.value) == str(want)
            continue
        got = run(layer, cfg)
        down, up, trace, converged_at = want
        assert same_bits(got.down, down) and same_bits(got.up, up)
        assert got.loss_trace == tuple(trace)
        assert got.converged_at == converged_at


def test_readme_fits_stop_at_their_repeats(monkeypatch):
    # the README config's fits (tol 0, 500 iterations) on five sweep seeds;
    # one repeats with period 30, first seen at iteration 61
    seeds = [7412, 11124, 12004, 22162, 47324]
    tasks = [SyntheticTask("blobs", dim=8, classes=3, noise=0.5, seed=s) for s in seeds]
    models = [init_model(8, 16, 4, 3, seed=s + 1) for s in seeds]
    trained = train_stack(models, [generate_task(task) for task in tasks],
                          [s + 2 for s in seeds], steps=2000)
    layers = [r.model.adapter for r in trained]
    computed = []
    down_block = optimizer._down_block
    monkeypatch.setattr(optimizer, "_down_block",
                        lambda *args: computed.append(1) or down_block(*args))
    cfg = OptimConfig(iterations=500, l1_pos=0.01, l1_neg=0.01, tol=0.0, window=10)
    outcomes = []
    for layer in layers:
        computed.clear()
        outcomes.append(run(layer, cfg))
        assert len(computed) <= 100
    monkeypatch.undo()
    for layer, got in zip(layers, outcomes):
        down, up, trace, converged_at = reference_fit(layer, cfg)
        assert same_bits(got.down, down) and same_bits(got.up, up)
        assert got.loss_trace == tuple(trace) and len(trace) == 501
        assert got.converged_at is converged_at is None
