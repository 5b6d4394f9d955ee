"""Desk-scale experiment harness: synthetic tasks, a tiny model, and sweeps.

The model is a frozen random featurizer (linear map plus ReLU), a trainable
residual adapter on the feature vector, and a trainable linear head.  Only
adapter and head move during training, mirroring adapter-style tuning of a
frozen backbone.  Sweeps prune the trained adapter at a grid of fractions,
scopes, and methods and report dev/test metrics per cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapter import AdapterLayer, merge_bias
from .errors import NumericError
from .optimizer import OptimConfig, OptimResult, run
from .strategies import PruneScope, combined_select, prune_grid
# Not called here; bench/tracing.py looks these names up on this module.
from .adapter import forward  # noqa: F401
from .strategies import apply_mask, standard_mask, tropical_mask  # noqa: F401

TASK_KINDS = ("blobs", "moons", "xor_grid")
METHODS = ("standard", "tropical", "combined")
#: The methods with a mask of their own; `combined` picks one of their cells.
_MASKED = ("tropical", "standard")


@dataclass(frozen=True)
class SyntheticTask:
    kind: str
    n_train: int = 2000
    n_dev: int = 500
    n_test: int = 500
    dim: int = 2
    classes: int = 2
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; expected one of {TASK_KINDS}")
        if min(self.n_train, self.n_dev, self.n_test) <= 0:
            raise ValueError("split sizes must be positive")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.classes < 2:
            raise ValueError("classes must be at least 2")
        if self.kind in ("moons", "xor_grid") and self.classes != 2:
            raise ValueError(f"{self.kind} is a binary task")
        if not 0 <= self.noise < math.inf:  # NaN fails it too
            raise ValueError(f"noise must be finite and >= 0, got {self.noise!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class TaskData:
    x_train: np.ndarray
    y_train: np.ndarray
    x_dev: np.ndarray
    y_dev: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def _blobs(task: SyntheticTask, rng: np.random.Generator, n: int):
    centers = 3.0 * rng.normal(size=(task.classes, task.dim))
    labels = np.arange(n) % task.classes
    points = centers[labels] + task.noise * rng.normal(size=(n, task.dim))
    return points, labels


def _moons(task: SyntheticTask, rng: np.random.Generator, n: int):
    labels = np.arange(n) % 2
    theta = rng.uniform(0.0, math.pi, size=n)
    x = np.where(labels == 0, np.cos(theta), 1.0 - np.cos(theta))
    y = np.where(labels == 0, np.sin(theta), 0.5 - np.sin(theta))
    points = np.zeros((n, task.dim))
    points[:, 0] = x
    points[:, 1] = y
    points += task.noise * rng.normal(size=(n, task.dim))
    return points, labels


def _xor_grid(task: SyntheticTask, rng: np.random.Generator, n: int):
    # class = XOR of the two leading coordinate signs; quadrants chosen so
    # the labels come out exactly balanced, jitter applied after labeling
    labels = np.arange(n) % 2
    flip = rng.integers(0, 2, size=n)
    sign_x = np.where(flip == 0, 1.0, -1.0)
    sign_y = sign_x * np.where(labels == 0, 1.0, -1.0)
    mag = rng.uniform(0.1, 1.0, size=(n, 2))
    points = np.zeros((n, task.dim))
    points[:, 0] = sign_x * mag[:, 0]
    points[:, 1] = sign_y * mag[:, 1]
    points += task.noise * rng.normal(size=(n, task.dim))
    return points, labels


def generate_task(task: SyntheticTask) -> TaskData:
    """Deterministic splits; labels cycle through the classes so every split
    is balanced to within one sample per class."""
    rng = np.random.default_rng(task.seed)
    n = task.n_train + task.n_dev + task.n_test
    maker = {"blobs": _blobs, "moons": _moons, "xor_grid": _xor_grid}[task.kind]
    points, labels = maker(task, rng, n)
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    a, b = task.n_train, task.n_train + task.n_dev
    return TaskData(points[:a], labels[:a], points[a:b], labels[a:b], points[b:], labels[b:])


@dataclass(frozen=True)
class TinyModel:
    """Frozen featurizer, residual adapter, linear head."""

    feature_map: np.ndarray  # (features, in_dim), never trained
    adapter: AdapterLayer
    head_w: np.ndarray       # (classes, features)
    head_b: np.ndarray       # (classes,)

    @property
    def features(self) -> int:
        return self.feature_map.shape[0]

    @property
    def in_dim(self) -> int:
        return self.feature_map.shape[1]

    @property
    def classes(self) -> int:
        return self.head_w.shape[0]


def init_model(in_dim: int, features: int = 16, bottleneck: int = 4,
               classes: int = 2, seed: int = 0) -> TinyModel:
    rng = np.random.default_rng(seed)
    feature_map = rng.normal(scale=1.0 / math.sqrt(in_dim), size=(features, in_dim))
    down = merge_bias(rng.normal(scale=0.4, size=(bottleneck, features)),
                      np.zeros(bottleneck))
    up = rng.normal(scale=0.05, size=(features, bottleneck))
    adapter = AdapterLayer(down, up)
    return TinyModel(feature_map, adapter, np.zeros((classes, features)), np.zeros(classes))


def featurize(model: TinyModel, x: np.ndarray) -> np.ndarray:
    """relu(x @ feature_map.T)."""
    h = np.asarray(x, dtype=np.float64) @ model.feature_map.T
    return np.maximum(h, 0.0, out=h)


@dataclass(frozen=True)
class TrainResult:
    model: TinyModel
    losses: tuple[float, ...]


#: Batch indices drawn at once per member, in whole steps.  Drawing a run's
#: indices in blocks gives the same stream as one draw for the whole run, and
#: the memory they take stays fixed however many steps the run has.  A block
#: is also the span of the training loop's bookkeeping: its steps' label
#: positions are found at once, and their losses are reduced and checked for
#: divergence at its end.
_INDEX_BLOCK = 1 << 15


def _batches(rngs: list[np.random.Generator], sizes: list[int], steps: int, batch: int,
             block: int):
    """Each index block's (steps, S, batch) row indices into the members' training rows, stacked.

    A block holds `block` steps, the last one what is left.  Every block is
    a view of one buffer, which the next block overwrites.
    """
    offsets = np.cumsum([0, *sizes[:-1]])[:, None]
    out = np.empty((min(block, steps), len(rngs), batch), dtype=np.int64)
    for start in range(0, steps, block):
        rows = out[:min(block, steps - start)]
        for k, (rng, n) in enumerate(zip(rngs, sizes)):
            rows[:, k] = rng.integers(0, n, size=(len(rows), batch))
        yield np.add(rows, offsets, out=rows)


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of `flat`, one of each shape in turn."""
    bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    return [flat[i:j].reshape(shape) for shape, i, j in zip(shapes, bounds, bounds[1:])]


def train_stack(models: Sequence[TinyModel], datas: Sequence[TaskData], seeds: Sequence[int],
                steps: int = 2000, lr: float = 0.05,
                batch: int = 32) -> list[TrainResult | NumericError]:
    """Train every model as `train` does, in lockstep on one stack of same-shape models.

    Model k trains on datas[k] with seed seeds[k].  Each numpy call of a
    step serves the whole stack, so at small shapes, where per-call overhead
    sets the time, S models train in little more than the time of one.
    Each step featurizes only the rows it draws, so no member's training
    features are ever held whole.  Entry k is bit for bit what
    train(models[k], datas[k], steps, lr, batch, seeds[k]) returns, or the
    NumericError it raises.  The entries end at the first member that
    fails: the ones after it are not returned, and once member 0 has failed
    the run ends with the index block (`_INDEX_BLOCK`) its failure fell in.
    Either every model's adapter has an up bias or none has.
    """
    if steps < 0 or not 0 < lr < math.inf or batch <= 0:  # NaN fails it too
        raise ValueError("steps must be >= 0, lr positive and finite, and batch positive")
    if not len(models) == len(datas) == len(seeds):
        raise ValueError("train_stack needs one data set and one seed per model")
    biases = [model.adapter.up_bias for model in models]
    if len({bias is None for bias in biases}) > 1:
        raise ValueError("train_stack needs an up bias on every model's adapter or on none")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # the trained tensors are views of one buffer, and their gradients of a
    # matching one, so that one update per step moves them all
    members = [(m.adapter.down, m.adapter.up, m.head_w, m.head_b) for m in models]
    shapes = [(len(models), *w.shape) for w in members[0]]
    params = np.empty(sum(math.prod(shape) for shape in shapes))
    grads = np.empty_like(params)
    down, up, head_w, head_b = tensors = _views(params, shapes)
    d_down, d_up, d_head_w, d_head_b = _views(grads, shapes)
    for tensor, weights in zip(tensors, zip(*members)):
        np.stack(weights, out=tensor)
    sizes = [len(data.x_train) for data in datas]
    x_all = np.concatenate([data.x_train for data in datas], dtype=np.float64)
    y_all = np.concatenate([data.y_train for data in datas], dtype=np.int64)
    maps = np.stack([model.feature_map for model in models]).mT
    stack, width = len(models), models[0].features
    # every step featurizes its rows into one buffer whose last column is the bias
    aug = np.ones((stack, batch, width + 1))
    h = aug[..., :width]
    classes = head_w.shape[1]
    # each step's rows as flat offsets into its (S, batch, classes) logits
    row_starts = classes * np.arange(stack * batch).reshape(stack, batch)
    bias = head_b[:, None, :]  # a view, so it follows head_b's in-place steps
    up_bias = None if biases[0] is None else np.stack(biases)[:, None, :]
    losses = np.empty((steps, stack))
    # a block's label positions, and its softmax sums and label logits, from
    # which its losses are reduced
    block_steps = max(1, _INDEX_BLOCK // batch)
    totals = np.empty((min(steps, block_steps), stack, batch))
    picked = np.empty_like(totals)
    positions = np.empty_like(totals, dtype=np.int64)
    errors: list[NumericError | None] = [None] * stack
    start = 0
    # a diverging run overflows before its loss turns non-finite; the
    # NumericError below reports it, so numpy's own warnings stay quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _batches(rngs, sizes, steps, batch, block_steps):
            count = len(block)
            labels = np.take(y_all, block, out=positions[:count])
            labels += row_starts
            for i, (idx, label) in enumerate(zip(block, labels)):
                # each member's `featurize` of the step's rows
                np.maximum(np.matmul(x_all.take(idx, axis=0), maps, out=h), 0.0, out=h)
                pre = aug @ down.mT
                hidden = np.maximum(pre, 0.0)
                # the frozen up bias, then the residual: the order `forward` adds them in
                adapted = hidden @ up.mT
                if up_bias is not None:
                    adapted += up_bias
                adapted += h
                z = adapted @ head_w.mT + bias
                # softmax of the max-shifted logits: their exponentials sum to at
                # least 1 and the label's shifted logit is <= 0, so the loss
                # log(total) - shifted[y] is never negative, not even once a
                # batch is classified with probability 1
                z -= z.max(axis=-1, keepdims=True)
                z.take(label, out=picked[i])
                dz = np.exp(z)
                total = dz.sum(axis=-1, out=totals[i])
                dz /= total[..., None]
                dz.reshape(-1)[label] -= 1.0
                dz /= batch
                np.matmul(dz.mT, adapted, out=d_head_w)
                dz.sum(axis=-2, out=d_head_b)
                d_adapted = dz @ head_w
                np.matmul(d_adapted.mT, hidden, out=d_up)
                d_hidden = (d_adapted @ up) * (pre > 0.0)
                np.matmul(d_hidden.mT, aug, out=d_down)
                params -= lr * grads
            block_losses = losses[start:start + count]
            terms = np.log(totals[:count], out=totals[:count])
            terms -= picked[:count]
            terms.sum(axis=-1, out=block_losses)
            block_losses /= batch
            diverged = ~np.isfinite(block_losses)
            for k in np.flatnonzero(diverged.any(axis=0)):
                if errors[k] is None:
                    step = int(np.argmax(diverged[:, k]))
                    errors[k] = NumericError(f"training diverged at step {start + step}: "
                                             f"{float(block_losses[step, k])!r}")
            if errors[0] is not None:
                break
            start += count
    outcomes: list[TrainResult | NumericError] = []
    for k, model in enumerate(models):
        if errors[k] is None and not all(np.all(np.isfinite(w[k]))
                                         for w in (down, up, head_w, head_b)):
            errors[k] = NumericError(
                f"training diverged: non-finite weights after {steps} steps")
        if errors[k] is not None:
            outcomes.append(errors[k])
            break
        # AdapterLayer copies its matrices; the head is copied here, so that no
        # result holds a view of the whole stack
        trained = TinyModel(model.feature_map, AdapterLayer(down[k], up[k], biases[k]),
                            head_w[k].copy(), head_b[k].copy())
        outcomes.append(TrainResult(trained, tuple(losses[:, k].tolist())))
    return outcomes


def train(model: TinyModel, data: TaskData, steps: int = 2000, lr: float = 0.05,
          batch: int = 32, seed: int = 0) -> TrainResult:
    """Mini-batch SGD on softmax cross entropy over adapter and head only.

    Deterministic for a given seed; the featurizer is never touched, and
    each step featurizes only the rows of its batch.  An adapter's up bias
    stays frozen: each step adds it to the adapter's output before the
    residual, as `forward` does, and the trained model carries it unchanged.
    Returns the trained model together with the per-step batch losses.
    This is `train_stack` on a stack of one.

    Raises:
        NumericError: naming the first step whose loss is not finite, once
            the index block (`_INDEX_BLOCK`) that step fell in has run, or
            when the last step leaves a non-finite weight, with numpy's
            overflow and invalid-value warnings silenced.
    """
    (outcome,) = train_stack([model], [data], [seed], steps, lr, batch)
    if isinstance(outcome, NumericError):
        raise outcome
    return outcome


def _macro_f1(y_true: np.ndarray, y_pred: np.ndarray, classes: int) -> float:
    scores = []
    for c in range(classes):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        scores.append(0.0 if denom == 0 else 2 * tp / denom)
    return float(np.mean(scores))


def _stack_logits(model: TinyModel, down: np.ndarray, up: np.ndarray,
                  h: np.ndarray) -> np.ndarray:
    """(K, n, classes) logits of `model` with adapter k = (down[k], up[k]) in its place.

    h holds n featurized rows.  Slice k is bit for bit `forward` of that
    model's adapter on h, residual added, times its head: every product is
    the same one, in the same order.  `evaluate` is a stack of one.
    """
    aug = np.hstack([h, np.ones((len(h), 1))])
    out = np.maximum(aug @ down.mT, 0.0) @ up.mT
    if model.adapter.up_bias is not None:
        out = out + model.adapter.up_bias
    return (out + h) @ model.head_w.T + model.head_b


def _stack_scores(model: TinyModel, down: np.ndarray, up: np.ndarray, h: np.ndarray,
                  y: np.ndarray, metric: str) -> list[float]:
    """`evaluate` of `model` with each adapter of the stack in its place, on featurized rows."""
    # huge but finite weights overflow here; the NumericError reports it
    with np.errstate(over="ignore", invalid="ignore"):
        z = _stack_logits(model, down, up, h)
    if not np.all(np.isfinite(z)):
        raise NumericError("evaluation produced non-finite logits")
    preds = np.argmax(z, axis=-1)
    if metric == "accuracy":
        return np.mean(preds == y, axis=-1).tolist()
    if metric == "macro_f1":
        return [_macro_f1(np.asarray(y), row, model.classes) for row in preds]
    raise ValueError(f"unknown metric {metric!r}")


def evaluate(model: TinyModel, x: np.ndarray, y: np.ndarray,
             metric: str = "accuracy") -> float:
    """The model's accuracy or macro-F1 on (x, y); `_stack_scores` of a stack of one."""
    if len(y) == 0:
        raise ValueError("cannot evaluate an empty split")
    adapter = model.adapter
    return _stack_scores(model, adapter.down[None], adapter.up[None], featurize(model, x), y,
                         metric)[0]


@dataclass(frozen=True)
class SweepRecord:
    task: str
    method: str
    scope: str
    p: float
    p_hat: float
    dev_metric: float
    test_metric: float
    seed: int


def _scored_grid(model: TinyModel, task: SyntheticTask, data: TaskData, fit: OptimResult,
                 fractions: Sequence[float], scopes: Sequence[PruneScope],
                 methods: Sequence[str]) -> list[SweepRecord]:
    """Every cell's records, each split featurized once and each fraction scored as one stack.

    A fraction's stack holds each scope's tropical and standard adapter, in
    grid order, with the masks applied as `apply_mask` applies them.
    """
    adapter = model.adapter
    splits = [(featurize(model, data.x_dev), data.y_dev),
              (featurize(model, data.x_test), data.y_test)]
    grid = prune_grid([adapter], [fit], fractions, scopes)
    records: list[SweepRecord] = []
    for _ in fractions:
        cells = list(itertools.islice(grid, len(scopes)))
        pairs = [masks[m][0].entries[0] for _, _, masks in cells for m in _MASKED]
        down = np.where(np.stack([d for d, _ in pairs]), 0.0, adapter.down)
        up = np.where(np.stack([u for _, u in pairs]), 0.0, adapter.up)
        dev, test = (iter(_stack_scores(model, down, up, h, y, "accuracy")) for h, y in splits)
        for p, scope, masks in cells:
            scored = {m: (next(dev), next(test), masks[m][1]) for m in _MASKED}
            scored["combined"] = scored[combined_select(scored["standard"][0],
                                                        scored["tropical"][0])]
            for method in METHODS:
                if method in methods:
                    dev_metric, test_metric, achieved = scored[method]
                    records.append(SweepRecord(task.kind, method, scope.value, float(p),
                                               achieved, dev_metric, test_metric, task.seed))
    return records


def sweep(model: TinyModel, task: SyntheticTask, fractions: Sequence[float],
          scopes: Sequence[PruneScope], methods: Sequence[str],
          optim: OptimConfig, data: TaskData) -> list[SweepRecord]:
    """Prune the trained model over the full grid and score every cell on `data`.

    The surrogate fit is deterministic and independent of the grid cell, so
    it runs once (`run`) and is reused across fractions and scopes.  Records
    arrive in (fraction, scope, method) order with methods in the canonical
    standard/tropical/combined sequence.

    Raises:
        NumericError: from the fit, or when a cell's logits are not finite.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected subset of {METHODS}")
    return _scored_grid(model, task, data, run(model.adapter, optim), fractions, scopes, methods)
