import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tropiprune import (AdapterLayer, OptimConfig, PruneScope, SyntheticTask, evaluate,
                        forward, generate_task, run, sweep)
from tropiprune import harness
from tropiprune.errors import NumericError
from tropiprune.harness import (METHODS, SweepRecord, TinyModel, _macro_f1, _scored_grid,
                                _stack_logits, _stack_scores, featurize, init_model, train,
                                train_stack)
from tropiprune.optimizer import OptimResult
from tropiprune.strategies import apply_mask, combined_select, prune_grid, standard_mask

from oracles import reference_train


def logits(model, x):
    """The model's logits on x the unstacked way: featurize, `forward` with the residual, head."""
    return forward(model.adapter, featurize(model, x), residual=True) @ model.head_w.T + model.head_b


def blobs_task(seed=0):
    return SyntheticTask("blobs", dim=8, classes=3, noise=0.5, seed=seed)


def quick_setup(seed=0, steps=2000):
    task = blobs_task(seed)
    data = generate_task(task)
    model = init_model(task.dim, 16, 4, task.classes, seed=seed + 1)
    result = train(model, data, steps=steps, lr=0.05, batch=32, seed=seed + 2)
    return task, data, result


def test_task_validation():
    with pytest.raises(ValueError):
        SyntheticTask("spirals")
    with pytest.raises(ValueError):
        SyntheticTask("blobs", n_train=0)
    with pytest.raises(ValueError):
        SyntheticTask("moons", classes=3)
    with pytest.raises(ValueError):
        SyntheticTask("blobs", dim=1)
    with pytest.raises(ValueError):
        SyntheticTask("blobs", noise=-0.5)
    with pytest.raises(ValueError, match="classes must be at least 2"):
        SyntheticTask("blobs", classes=1)


def test_generation_is_deterministic():
    for kind in ("blobs", "moons", "xor_grid"):
        a = generate_task(SyntheticTask(kind, seed=42))
        b = generate_task(SyntheticTask(kind, seed=42))
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_test, b.y_test)
        c = generate_task(SyntheticTask(kind, seed=43))
        assert not np.array_equal(a.x_train, c.x_train)


def test_noiseless_blobs_collapse_to_centers():
    data = generate_task(SyntheticTask("blobs", dim=4, classes=3, noise=0.0, seed=1))
    for c in range(3):
        points = data.x_train[data.y_train == c]
        assert np.array_equal(points, np.broadcast_to(points[0], points.shape))
    centers = {tuple(data.x_train[data.y_train == c][0]) for c in range(3)}
    assert len(centers) == 3


def test_xor_labels_match_sign_oracle():
    data = generate_task(SyntheticTask("xor_grid", noise=0.0, seed=5))
    for x, y in ((data.x_train, data.y_train), (data.x_test, data.y_test)):
        want = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
        assert np.array_equal(want, y)


def test_splits_are_balanced_and_disjoint():
    for kind in ("blobs", "moons", "xor_grid"):
        classes = 3 if kind == "blobs" else 2
        task = SyntheticTask(kind, dim=4, classes=classes, noise=0.3, seed=9)
        data = generate_task(task)
        for x, y, n in ((data.x_train, data.y_train, task.n_train),
                        (data.x_dev, data.y_dev, task.n_dev),
                        (data.x_test, data.y_test, task.n_test)):
            assert len(y) == n
            for c in range(classes):
                share = np.mean(y == c)
                assert abs(share - 1.0 / classes) <= 0.1
        rows = {tuple(r) for r in np.vstack([data.x_train, data.x_dev, data.x_test])}
        assert len(rows) == task.n_train + task.n_dev + task.n_test


def test_train_zero_steps_is_identity():
    task, data, _ = None, generate_task(blobs_task()), None
    model = init_model(8, 16, 4, 3, seed=1)
    result = train(model, data, steps=0, lr=0.05, batch=32, seed=2)
    assert np.array_equal(result.model.adapter.down, model.adapter.down)
    assert np.array_equal(result.model.head_w, model.head_w)
    assert result.losses == ()


def test_train_reaches_high_accuracy_on_separable_task():
    _, data, result = quick_setup(seed=0)
    assert evaluate(result.model, data.x_dev, data.y_dev) >= 0.95


def test_train_loss_trend_is_non_increasing():
    # 100-step moving average, with a small allowance for converged SGD noise
    _, _, result = quick_setup(seed=3)
    losses = np.array(result.losses)
    ma = np.convolve(losses, np.ones(100) / 100, mode="valid")
    assert np.all(np.diff(ma) <= 1e-3)
    assert ma[-1] < 0.25 * ma[0]


def test_train_loss_is_never_negative():
    # confidently separable: batches are classified with probability 1 within
    # a few steps, where -log(p + 1e-12) would log -1e-12
    data = generate_task(SyntheticTask("blobs", n_train=200, n_dev=10, n_test=10,
                                       dim=8, classes=2, noise=0.01, seed=5))
    result = train(init_model(8, 16, 4, 2, seed=6), data, steps=300, lr=5.0, batch=32,
                   seed=7)
    assert min(result.losses) == 0.0
    assert all(loss >= 0.0 for loss in result.losses)


def test_train_is_deterministic():
    _, _, a = quick_setup(seed=4, steps=120)
    _, _, b = quick_setup(seed=4, steps=120)
    assert np.array_equal(a.model.adapter.down, b.model.adapter.down)
    assert a.losses == b.losses


def reference_run(model, data, steps, batch, seed):
    return reference_train(model.feature_map, model.adapter.down, model.adapter.up,
                           model.head_w, model.head_b, data.x_train, data.y_train, steps,
                           0.05, batch, seed)


def assert_trained_like(result, reference):
    down, up, head_w, head_b, losses = reference
    trained = result.model
    for have, want in ((trained.adapter.down, down), (trained.adapter.up, up),
                       (trained.head_w, head_w), (trained.head_b, head_b)):
        assert np.array_equal(have, want)
    assert list(result.losses) == losses


@pytest.mark.parametrize("features,bottleneck,batch,steps", [
    (16, 4, 32, 300), (256, 16, 7, 40), (768, 64, 33, 5)])
def test_train_matches_per_step_reference_bitwise(features, bottleneck, batch, steps):
    # train is a stack of one; a stack of three must give each member the
    # same bits as training it alone
    models, datas = [], []
    for k in range(3):
        datas.append(generate_task(SyntheticTask("blobs", n_train=300, n_dev=8, n_test=8,
                                                 dim=8, classes=3, noise=0.5,
                                                 seed=features + k)))
        model = init_model(8, features, bottleneck, 3, seed=bottleneck + k)
        # a head away from zero, so that every gradient path carries signal
        models.append(TinyModel(model.feature_map, model.adapter,
                                np.random.default_rng(1 + k).normal(size=model.head_w.shape),
                                model.head_b))
    result = train(models[0], datas[0], steps=steps, lr=0.05, batch=batch, seed=3)
    assert_trained_like(result, reference_run(models[0], datas[0], steps, batch, 3))
    stacked = train_stack(models, datas, [3, 4, 5], steps=steps, lr=0.05, batch=batch)
    for k, member in enumerate(stacked):
        assert_trained_like(member, reference_run(models[k], datas[k], steps, batch, 3 + k))


def test_train_index_memory_is_fixed():
    # 600 steps of 975 rows: one index draw for the whole run would take
    # 4.7 MB.  The blocks hold 33 steps, an odd count of indices, and must
    # still give the per-step reference's stream.
    data = generate_task(SyntheticTask("blobs", n_train=100, n_dev=4, n_test=4, dim=2,
                                       classes=2, seed=0))
    model = init_model(2, 4, 1, 2, seed=1)
    train(model, data, steps=2, batch=975, seed=2)
    tracemalloc.start()
    try:
        result = train(model, data, steps=600, batch=975, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert_trained_like(result, reference_run(model, data, 600, 975, 2))


def test_train_stack_members_fail_on_their_own():
    # member 1's huge head diverges within a few steps; member 0 trains on,
    # and member 2, after the first failure, is not returned
    data = generate_task(blobs_task())
    models = [init_model(8, 16, 4, 3, seed=s) for s in (1, 2, 3)]
    models[1] = TinyModel(models[1].feature_map, models[1].adapter,
                          np.full(models[1].head_w.shape, 1e300), models[1].head_b)
    outcomes = train_stack(models, [data] * 3, [4, 5, 6], steps=50)
    assert len(outcomes) == 2
    with pytest.raises(NumericError, match="training diverged at step 1: nan") as alone:
        train(models[1], data, steps=50, seed=5)
    assert isinstance(outcomes[1], NumericError) and str(outcomes[1]) == str(alone.value)
    alone = train(models[0], data, steps=50, seed=4)
    assert np.array_equal(outcomes[0].model.adapter.down, alone.model.adapter.down)
    assert outcomes[0].losses == alone.losses
    # the trained model owns its weights, not views of the whole stack
    model = outcomes[0].model
    for a in (model.adapter.down, model.adapter.up, model.head_w, model.head_b):
        assert a.base is None or a.base.nbytes <= a.nbytes


def test_train_stack_ends_with_the_block_member_0_fails_in(monkeypatch):
    # member 0's logits overflow at step 0, so no entry the stack returns
    # needs the other 19,999 steps: the run draws one index block and stops
    data = generate_task(blobs_task())
    models = [init_model(8, 16, 4, 3, seed=s) for s in (1, 2)]
    models[0] = replace(models[0], head_w=np.full(models[0].head_w.shape, 1e308))
    draw, draws = harness._batches, []

    def counted(*args):
        for block in draw(*args):
            draws.append(len(block))
            yield block

    with pytest.raises(NumericError, match="training diverged at step 0: nan") as alone:
        train(models[0], data, steps=20000, seed=4)
    monkeypatch.setattr(harness, "_batches", counted)
    outcomes = train_stack(models, [data] * 2, [4, 5], steps=20000)
    assert draws == [harness._INDEX_BLOCK // 32]
    assert len(outcomes) == 1 and str(outcomes[0]) == str(alone.value)


def biased(model, up_bias):
    return replace(model, adapter=AdapterLayer(model.adapter.down, model.adapter.up, up_bias))


def test_train_keeps_and_applies_up_bias():
    # a frozen +-50 up bias moves every logit; training must see it, leave it
    # unchanged, and score the trained model the way `logits` does
    rng = np.random.default_rng(5)
    data = generate_task(blobs_task())
    models = [biased(replace(init_model(8, 16, 4, 3, seed=s),
                             head_w=rng.normal(size=(3, 16))), rng.uniform(-50, 50, size=16))
              for s in (1, 2)]
    outcomes = train_stack(models, [data] * 2, [3, 4], steps=40, lr=0.05, batch=32)
    for k, (model, outcome) in enumerate(zip(models, outcomes)):
        adapter = model.adapter
        assert_trained_like(outcome, reference_train(
            model.feature_map, adapter.down, adapter.up, model.head_w, model.head_b,
            data.x_train, data.y_train, 40, 0.05, 32, 3 + k, up_bias=adapter.up_bias))
        assert np.array_equal(outcome.model.adapter.up_bias, adapter.up_bias)
        assert outcome.losses != train(biased(model, None), data, steps=40, seed=3 + k).losses
        trained = outcome.model
        h = featurize(trained, data.x_dev)
        (stacked,) = _stack_logits(trained, trained.adapter.down[None],
                                   trained.adapter.up[None], h)
        assert same_bits(stacked, logits(trained, data.x_dev))
        assert evaluate(trained, data.x_dev, data.y_dev) == \
            np.mean(np.argmax(stacked, axis=1) == data.y_dev)


def test_train_stack_rejects_mixed_up_bias():
    data = generate_task(blobs_task())
    models = [init_model(8, 16, 4, 3, seed=1), biased(init_model(8, 16, 4, 3, seed=2),
                                                      np.ones(16))]
    with pytest.raises(ValueError, match="up bias on every model's adapter or on none"):
        train_stack(models, [data] * 2, [3, 4], steps=1)


@pytest.mark.parametrize("datas, seeds", [(1, 2), (2, 1), (2, 3)])
def test_train_stack_rejects_lists_of_unequal_length(datas, seeds):
    data = generate_task(blobs_task())
    models = [init_model(8, 16, 4, 3, seed=1), init_model(8, 16, 4, 3, seed=2)]
    with pytest.raises(ValueError, match="one data set and one seed per model"):
        train_stack(models, [data] * datas, list(range(seeds)), steps=1)


def test_train_reports_non_finite_weights_after_the_last_step():
    # features 100 times larger and one step at lr 1e308: the step's loss is
    # finite, but the update overflows the weights
    data = generate_task(blobs_task())
    model = init_model(8, 16, 4, 3, seed=1)
    model = replace(model, feature_map=100.0 * model.feature_map)
    with pytest.raises(NumericError,
                       match="training diverged: non-finite weights after 1 steps"):
        train(model, data, steps=1, lr=1e308)


@pytest.mark.parametrize("stack", [1, 4])
def test_train_stack_holds_one_copy_of_the_features(stack):
    # at BERT-base width the training features dominate what a run holds,
    # so each member's must be held only once
    datas = [generate_task(SyntheticTask("blobs", n_train=2000, n_dev=4, n_test=4, dim=32,
                                         classes=4, seed=k)) for k in range(stack)]
    models = [init_model(32, 768, 64, 4, seed=k) for k in range(stack)]
    feature_bytes = stack * 2000 * 768 * 8
    tracemalloc.start()
    try:
        train_stack(models, datas, list(range(stack)), steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * feature_bytes


def test_train_stack_holds_no_feature_buffer():
    # each step featurizes only its batch: two members at BERT-base width
    # with 2000 rows each hold far less than their features would take
    datas = [generate_task(SyntheticTask("blobs", n_train=2000, n_dev=4, n_test=4, dim=32,
                                         classes=4, seed=k)) for k in range(2)]
    models = [init_model(32, 768, 64, 4, seed=k) for k in range(2)]
    feature_bytes = 2 * 2000 * 768 * 8
    tracemalloc.start()
    try:
        train_stack(models, datas, [0, 1], steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < feature_bytes / 2


def test_train_gradients_match_finite_differences():
    # one step of the analytic gradient against a numeric directional check
    data = generate_task(SyntheticTask("blobs", n_train=64, n_dev=8, n_test=8,
                                       dim=4, classes=2, noise=0.5, seed=7))
    model = init_model(4, 6, 2, 2, seed=8)

    def batch_loss(m):
        z = logits(m, data.x_train)
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -float(np.mean(logp[np.arange(len(data.y_train)), data.y_train]))

    result = train(model, data, steps=1, lr=1e-3, batch=64, seed=0)
    # the sgd step moved downhill on the full-batch loss for a tiny step
    assert batch_loss(result.model) < batch_loss(model)


def test_evaluate_all_correct_scores_one():
    task = SyntheticTask("blobs", n_train=300, n_dev=60, n_test=60,
                         dim=4, classes=3, noise=0.0, seed=2)
    data = generate_task(task)
    model = init_model(task.dim, 16, 4, task.classes, seed=3)
    result = train(model, data, steps=500, lr=0.05, batch=32, seed=4)
    assert evaluate(result.model, data.x_test, data.y_test) == 1.0


def test_evaluate_perfect_and_chance():
    task, data, result = quick_setup(seed=0)
    trained = result.model
    acc = evaluate(trained, data.x_test, data.y_test)
    assert 0.0 <= acc <= 1.0
    untrained = init_model(task.dim, 16, 4, task.classes, seed=99)
    chance = evaluate(untrained, data.x_test, data.y_test)
    assert abs(chance - 1.0 / task.classes) <= 0.1
    with pytest.raises(ValueError):
        evaluate(trained, data.x_test[:0], data.y_test[:0])
    with pytest.raises(ValueError):
        evaluate(trained, data.x_test, data.y_test, metric="auc")


def test_macro_f1_equals_accuracy_for_symmetric_confusion():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 0])
    assert _macro_f1(y_true, y_pred, 2) == 0.5
    assert _macro_f1(y_true, y_true, 2) == 1.0


def test_macro_f1_metric_available_through_evaluate():
    _, data, result = quick_setup(seed=0)
    f1 = evaluate(result.model, data.x_dev, data.y_dev, metric="macro_f1")
    assert 0.0 <= f1 <= 1.0


OPTIM = OptimConfig(iterations=120, lr=1e-2, l1_pos=1e-2, l1_neg=1e-2, tol=0.0)


def test_sweep_unpruned_cells_match_full_model():
    task, data, result = quick_setup(seed=0, steps=400)
    records = sweep(result.model, task, [0.0], [PruneScope.CLASS_UNIFORM],
                    ["standard", "tropical", "combined"], OPTIM, data=data)
    fm_dev = evaluate(result.model, data.x_dev, data.y_dev)
    fm_test = evaluate(result.model, data.x_test, data.y_test)
    assert len(records) == 3
    for rec in records:
        assert rec.p_hat == 0.0
        assert rec.dev_metric == fm_dev and rec.test_metric == fm_test


def test_sweep_full_pruning_equals_zeroed_adapter():
    task, data, result = quick_setup(seed=1, steps=400)
    model = result.model
    records = sweep(model, task, [1.0], [PruneScope.CLASS_BLIND],
                    ["standard", "tropical"], OPTIM, data=data)
    full = standard_mask([model.adapter], 1.0, PruneScope.CLASS_BLIND)
    bare = TinyModel(model.feature_map, apply_mask([model.adapter], full)[0],
                     model.head_w, model.head_b)
    want = evaluate(bare, data.x_test, data.y_test)
    for rec in records:
        assert rec.p_hat == 1.0
        assert rec.test_metric == want


def test_sweep_combined_reports_dev_winner():
    task, data, result = quick_setup(seed=2, steps=400)
    records = sweep(result.model, task, [0.0, 0.5, 0.8],
                    [PruneScope.CLASS_UNIFORM, PruneScope.NODE_WISE],
                    ["standard", "tropical", "combined"], OPTIM, data=data)
    assert len(records) == 3 * 2 * 3
    by_cell = {}
    for rec in records:
        by_cell.setdefault((rec.p, rec.scope), {})[rec.method] = rec
    for cell in by_cell.values():
        std, trop, comb = cell["standard"], cell["tropical"], cell["combined"]
        assert comb.dev_metric == max(std.dev_metric, trop.dev_metric)
        winner = trop if trop.dev_metric >= std.dev_metric else std
        assert comb.test_metric == winner.test_metric
        assert comb.p_hat == winner.p_hat
        assert trop.p_hat <= trop.p + 1e-12


def test_sweep_is_reproducible():
    task, data, result = quick_setup(seed=5, steps=300)
    a = sweep(result.model, task, [0.4], [PruneScope.CLASS_UNIFORM],
              ["combined"], OPTIM, data=data)
    b = sweep(result.model, task, [0.4], [PruneScope.CLASS_UNIFORM],
              ["combined"], OPTIM, data=data)
    assert a == b


def test_sweep_rejects_unknown_method():
    task, data, result = quick_setup(seed=0, steps=10)
    with pytest.raises(ValueError):
        sweep(result.model, task, [0.1], [PruneScope.CLASS_BLIND], ["magnitude"],
              OPTIM, data=data)


def per_cell_records(model, task, data, fit, fractions, scopes, methods):
    """`_scored_grid`'s records, each cell's model built and evaluated on its own."""
    records = []
    for p, scope, masks in prune_grid([model.adapter], [fit], fractions, scopes):
        cells = {}
        for method, (mask, achieved) in masks.items():
            pruned = replace(model, adapter=apply_mask([model.adapter], mask)[0])
            cells[method] = (evaluate(pruned, data.x_dev, data.y_dev),
                             evaluate(pruned, data.x_test, data.y_test), achieved)
        cells["combined"] = cells[combined_select(cells["standard"][0], cells["tropical"][0])]
        records += [SweepRecord(task.kind, method, scope.value, float(p), cells[method][2],
                                cells[method][0], cells[method][1], task.seed)
                    for method in methods]
    return records


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("features, bottleneck", [(16, 4), (64, 8), (768, 64)])
def test_stacked_evaluate_matches_per_cell_evaluate(features, bottleneck):
    rng = np.random.default_rng(features)
    task = SyntheticTask("blobs", n_train=100, n_dev=120, n_test=120, dim=8, classes=3,
                         noise=0.5, seed=features)
    data = generate_task(task)
    model = init_model(task.dim, features, bottleneck, task.classes, seed=1)
    adapter = AdapterLayer(model.adapter.down, 2.0 * rng.normal(size=model.adapter.up.shape))
    model = replace(model, adapter=adapter, head_w=rng.normal(size=model.head_w.shape),
                    head_b=rng.normal(size=model.head_b.shape))
    # six masked adapters, scored as one stack against one model each
    down = np.where(rng.uniform(size=(6, *adapter.down.shape)) < 0.4, 0.0, adapter.down)
    up = np.where(rng.uniform(size=(6, *adapter.up.shape)) < 0.4, 0.0, adapter.up)
    h = featurize(model, data.x_dev)
    cells = [replace(model, adapter=AdapterLayer(d, u)) for d, u in zip(down, up)]
    for stacked, cell in zip(_stack_logits(model, down, up, h), cells, strict=True):
        unstacked = forward(cell.adapter, h, residual=True) @ cell.head_w.T + cell.head_b
        assert same_bits(stacked, unstacked)
        assert same_bits(stacked, logits(cell, data.x_dev))
    for metric in ("accuracy", "macro_f1"):
        assert _stack_scores(model, down, up, h, data.y_dev, metric) == \
            [evaluate(cell, data.x_dev, data.y_dev, metric) for cell in cells]
    # and the whole grid, one stack per fraction
    fit = run(adapter, OptimConfig(iterations=3, l1_pos=0.05, l1_neg=0.05, tol=0.0))
    fractions, scopes = [0.0, 0.3, 0.7], list(PruneScope)
    assert _scored_grid(model, task, data, fit, fractions, scopes, METHODS) == \
        per_cell_records(model, task, data, fit, fractions, scopes, METHODS)


def test_stacked_evaluate_fails_where_a_cell_fails():
    # two equal hidden units whose up weights cancel on output 0: the model
    # is finite, but a CN mask at p = 0.5 prunes one of the two, and output
    # 0 then overflows through the head
    rng = np.random.default_rng(3)
    down = np.array([[1.0, 1.0, 1.0, 1.0, 0.5]] * 2)
    up = np.vstack([[1e300, -1e300], rng.normal(size=(3, 2))])
    head_w = rng.normal(size=(3, 4))
    head_w[:, 0] = 1e10
    model = TinyModel(np.abs(rng.normal(size=(4, 3))), AdapterLayer(down, up), head_w,
                      np.zeros(3))
    task = SyntheticTask("blobs", n_train=10, n_dev=30, n_test=30, dim=3, classes=3, seed=1)
    data = generate_task(task)
    fit = OptimResult(down, up, (), None)  # the layer as its own surrogate
    scopes = [PruneScope.NODE_WISE]
    # the unpruned cells pass, as they do on their own ...
    assert _scored_grid(model, task, data, fit, [0.0], scopes, METHODS) == \
        per_cell_records(model, task, data, fit, [0.0], scopes, METHODS)
    # ... and the first failing cell, (0.5, CN), fails both routes with one error
    errors = []
    for route in (per_cell_records, _scored_grid):
        with pytest.raises(NumericError) as failure:
            route(model, task, data, fit, [0.0, 0.5], scopes, METHODS)
        errors.append(str(failure.value))
    assert errors == ["evaluation produced non-finite logits"] * 2
