"""Contracts that hold at every adapter shape of one ladder, from toy width to BERT-base.

Each shape's layer is an `init_model` adapter with planted zeros (its bias
column is zero too).  It is fitted at the default `OptimConfig` and at a
tenth of its penalty: at the default every surrogate entry below 768x64
lands on zero, at the tenth most stay non-zero, so the mask contracts see
both a flat and a graded surrogate ranking.
"""

from dataclasses import replace

import numpy as np
import pytest

from tropiprune import AdapterLayer, OptimConfig, init_model, run
from tropiprune.bundle import WeightBundle, load_bundle, save_bundle
from tropiprune.strategies import PruneScope, apply_mask, prune_grid, standard_mask

from oracles import reference_fit, unit_by_unit_fit, unit_order_breaks

#: (features d, bottleneck r), up to a BERT-base Houlsby adapter.
LADDER = [(16, 4), (64, 8), (256, 16), (768, 64)]
PENALTIES = [OptimConfig().l1_pos, OptimConfig().l1_pos / 10]
FRACTIONS = [i / 20 for i in range(21)]
#: A loss may rise by rounding only: this share of the starting loss.
ROUNDING = 1e-12


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="module", params=LADDER, ids=[f"{d}x{r}" for d, r in LADDER])
def model(request):
    d, r = request.param
    model = init_model(2, d, r, seed=d)
    rng = np.random.default_rng(d)
    down, up = (np.where(rng.uniform(size=m.shape) < 0.1, 0.0, m)
                for m in (model.adapter.down, model.adapter.up))
    return replace(model, adapter=AdapterLayer(down, up))


@pytest.fixture(scope="module", params=PENALTIES, ids=["default", "tenth"])
def config(request):
    return OptimConfig(l1_pos=request.param, l1_neg=request.param)


@pytest.fixture(scope="module")
def fit(model, config):
    return run(model.adapter, config)


@pytest.fixture(scope="module")
def standard_at_p(model):
    """The standard mask of every (fraction, scope) cell, at the cell's own fraction."""
    return {(p, scope): standard_mask([model.adapter], p, scope)
            for p in FRACTIONS for scope in PruneScope}


@pytest.fixture(scope="module")
def iterates(model, config, fit):
    """Iterate k of the fit for each k up to its converged_at: `run` at iterations=k, tol 0."""
    return [run(model.adapter, replace(config, iterations=k, tol=0.0))
            for k in range(fit.converged_at + 1)]


def test_fit_equals_the_every_iteration_fit(model, config, fit):
    down, up, trace, converged_at = reference_fit(model.adapter, config)
    assert same_bits(fit.down, down) and same_bits(fit.up, up)
    assert fit.loss_trace == tuple(trace) and fit.converged_at == converged_at


def test_every_iterate_keeps_each_units_order(model, iterates):
    # each down row, and each up column within each branch, is shrunk
    # without a sign change or a reordering of its magnitudes
    for got in iterates:
        assert unit_order_breaks(model.adapter, got.down, got.up) == \
            {"down": [], "pos": [], "neg": []}


def test_each_unit_fitted_alone_gives_its_slice_of_the_fit(model, config):
    cfg = replace(config, iterations=60, tol=0.0)
    whole = run(model.adapter, cfg)
    for alone, together in zip(unit_by_unit_fit(model.adapter, cfg), (whole.down, whole.up)):
        assert np.array_equal(alone == 0.0, together == 0.0)
        np.testing.assert_allclose(alone, together, rtol=1e-9, atol=0.0)


def test_fit_loss_never_rises(fit):
    losses = [loss for _, loss in fit.loss_trace]
    assert len(losses) > 1
    for before, after in zip(losses, losses[1:]):
        assert after <= before + ROUNDING * losses[0]


def test_fit_converges_within_budget(fit, config):
    assert fit.converged_at is not None and fit.converged_at <= config.iterations
    assert len(fit.loss_trace) == fit.converged_at + 1


def test_fit_keeps_layer_zeros(model, fit):
    layer = model.adapter
    for original, fitted in ((layer.down, fit.down), (layer.up, fit.up)):
        assert np.any(original == 0.0)
        assert np.all(fitted[original == 0.0] == 0.0)


def groups(layer, scope):
    return {PruneScope.CLASS_BLIND: 1, PruneScope.CLASS_UNIFORM: 1,
            PruneScope.NODE_WISE: layer.down.shape[0] + layer.up.shape[0]}[scope]


def test_grid_contracts(model, fit, standard_at_p):
    layer = model.adapter
    cells = 0
    for p, scope, masks in prune_grid([layer], [fit], FRACTIONS, list(PruneScope)):
        tropical, p_hat = masks["tropical"]
        standard, _ = masks["standard"]
        assert p_hat <= p
        # the tropical mask lies inside the standard mask at p
        for inner, outer in zip(tropical.entries[0], standard_at_p[p, scope].entries[0]):
            assert not np.any(inner & ~outer)
        # the standard mask at p_hat prunes about as many entries
        assert standard.count() - tropical.count() <= groups(layer, scope)
        for mask in (tropical, standard):
            (pruned,) = apply_mask([layer], mask)
            for before, after, hit in zip((layer.down, layer.up), (pruned.down, pruned.up),
                                          mask.entries[0]):
                assert same_bits(after[~hit], before[~hit])
                assert np.all(after[hit] == 0.0)
        cells += 1
    assert cells == len(FRACTIONS) * len(PruneScope)


def test_bundle_round_trip_is_exact(tmp_path, model, fit):
    # the optimized bundle is written as `prune` writes it, against the original
    original = WeightBundle(model, meta={"task": "blobs"})
    optimized = WeightBundle(replace(model, adapter=AdapterLayer(fit.down, fit.up)),
                             optimized=True)
    save_bundle(original, tmp_path / "original.json")
    save_bundle(optimized, tmp_path / "optimized.json", like=original)
    for bundle, name in ((original, "original.json"), (optimized, "optimized.json")):
        loaded = load_bundle(tmp_path / name)
        assert loaded.optimized == bundle.optimized and loaded.meta == bundle.meta
        for a, b in ((loaded.model.adapter.down, bundle.model.adapter.down),
                     (loaded.model.adapter.up, bundle.model.adapter.up),
                     (loaded.model.feature_map, bundle.model.feature_map),
                     (loaded.model.head_w, bundle.model.head_w),
                     (loaded.model.head_b, bundle.model.head_b)):
            assert same_bits(a, b)
