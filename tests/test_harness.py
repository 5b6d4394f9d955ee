import numpy as np
import pytest

from tropiprune import OptimConfig, PruneScope, SyntheticTask, evaluate, generate_task, sweep
from tropiprune.harness import TinyModel, _macro_f1, init_model, logits, train
from tropiprune.strategies import apply_mask, standard_mask


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
