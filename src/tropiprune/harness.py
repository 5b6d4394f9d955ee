"""Desk-scale experiment harness: synthetic tasks, a tiny model, and sweeps.

The model is a frozen random featurizer (linear map plus ReLU), a trainable
residual adapter on the feature vector, and a trainable linear head.  Only
adapter and head move during training, mirroring adapter-style tuning of a
frozen backbone.  Sweeps prune the trained adapter at a grid of fractions,
scopes, and methods and report dev/test metrics per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .adapter import AdapterLayer, forward, merge_bias
from .errors import NumericError
from .optimizer import OptimConfig, run
from .strategies import PruneScope, apply_mask, combined_select, prune_grid
# Not called here; bench/tracing.py looks both names up on this module.
from .strategies import standard_mask, tropical_mask  # noqa: F401

TASK_KINDS = ("blobs", "moons", "xor_grid")
METHODS = ("standard", "tropical", "combined")


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
        if not self.noise >= 0:  # NaN fails it too
            raise ValueError("noise must be >= 0")


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
    return np.maximum(np.asarray(x, dtype=np.float64) @ model.feature_map.T, 0.0)


def logits(model: TinyModel, x: np.ndarray) -> np.ndarray:
    h = featurize(model, x)
    adapted = forward(model.adapter, h, residual=True)
    return adapted @ model.head_w.T + model.head_b


def _softmax_xent(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Softmax probabilities and the mean cross entropy of the labels y.

    The loss is logsumexp(shifted) - shifted[y] on max-shifted logits: the
    shifted exponentials sum to at least 1 and shifted[y] <= 0, so it never
    goes negative, not even once a batch is classified with probability 1.
    """
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(len(y)), y]))
    return e / total, loss


@dataclass(frozen=True)
class TrainResult:
    model: TinyModel
    losses: tuple[float, ...]


def train(model: TinyModel, data: TaskData, steps: int = 2000, lr: float = 0.05,
          batch: int = 32, seed: int = 0) -> TrainResult:
    """Mini-batch SGD on softmax cross entropy over adapter and head only.

    Deterministic for a given seed; the featurizer is never touched.
    Returns the trained model together with the per-step batch losses.

    Raises:
        NumericError: at the first step whose loss is not finite, or when the
            last step leaves a non-finite weight, with numpy's overflow and
            invalid-value warnings silenced.
    """
    if steps < 0 or not lr > 0 or batch <= 0:
        raise ValueError("steps must be >= 0 and lr, batch positive")
    rng = np.random.default_rng(seed)
    down = model.adapter.down.copy()
    up = model.adapter.up.copy()
    head_w = model.head_w.copy()
    head_b = model.head_b.copy()
    h_all = featurize(model, data.x_train)
    y_all = data.y_train
    n = h_all.shape[0]
    losses: list[float] = []
    # a diverging run overflows before its loss turns non-finite; the
    # NumericError below reports it, so numpy's own warnings stay quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            idx = rng.integers(0, n, size=batch)
            h = h_all[idx]
            y = y_all[idx]
            aug = np.hstack([h, np.ones((batch, 1))])
            pre = aug @ down.T
            hidden = np.maximum(pre, 0.0)
            adapted = h + hidden @ up.T
            z = adapted @ head_w.T + head_b
            probs, loss = _softmax_xent(z, y)
            if not math.isfinite(loss):
                raise NumericError(f"training diverged at step {step}: {loss!r}")
            losses.append(loss)
            dz = probs.copy()
            dz[np.arange(batch), y] -= 1.0
            dz /= batch
            d_head_w = dz.T @ adapted
            d_head_b = dz.sum(axis=0)
            d_adapted = dz @ head_w
            d_up = d_adapted.T @ hidden
            d_hidden = (d_adapted @ up) * (pre > 0.0)
            d_down = d_hidden.T @ aug
            down -= lr * d_down
            up -= lr * d_up
            head_w -= lr * d_head_w
            head_b -= lr * d_head_b
    if not all(np.all(np.isfinite(w)) for w in (down, up, head_w, head_b)):
        raise NumericError(f"training diverged: non-finite weights after {steps} steps")
    trained = TinyModel(model.feature_map, AdapterLayer(down, up), head_w, head_b)
    return TrainResult(trained, tuple(losses))


def _macro_f1(y_true: np.ndarray, y_pred: np.ndarray, classes: int) -> float:
    scores = []
    for c in range(classes):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        scores.append(0.0 if denom == 0 else 2 * tp / denom)
    return float(np.mean(scores))


def evaluate(model: TinyModel, x: np.ndarray, y: np.ndarray,
             metric: str = "accuracy") -> float:
    if len(y) == 0:
        raise ValueError("cannot evaluate an empty split")
    # huge but finite weights overflow here; the NumericError reports it
    with np.errstate(over="ignore", invalid="ignore"):
        z = logits(model, x)
    if not np.all(np.isfinite(z)):
        raise NumericError("evaluation produced non-finite logits")
    preds = np.argmax(z, axis=1)
    if metric == "accuracy":
        return float(np.mean(preds == y))
    if metric == "macro_f1":
        return _macro_f1(np.asarray(y), preds, model.classes)
    raise ValueError(f"unknown metric {metric!r}")


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


def sweep(model: TinyModel, task: SyntheticTask, fractions: Sequence[float],
          scopes: Sequence[PruneScope], methods: Sequence[str],
          optim: OptimConfig, metric: str = "accuracy",
          data: TaskData | None = None) -> list[SweepRecord]:
    """Prune the trained model over the full grid and score every cell.

    The surrogate fit is deterministic and independent of the grid cell, so
    it runs once per layer and is reused across fractions and scopes.
    Records arrive in (fraction, scope, method) order with methods in the
    canonical standard/tropical/combined sequence.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected subset of {METHODS}")
    if data is None:
        data = generate_task(task)
    originals = [model.adapter]
    optimized = [run(layer, optim) for layer in originals]

    def scored(mask) -> tuple[float, float]:
        pruned = replace(model, adapter=apply_mask(originals, mask)[0])
        return (evaluate(pruned, data.x_dev, data.y_dev, metric),
                evaluate(pruned, data.x_test, data.y_test, metric))

    records: list[SweepRecord] = []
    for p, scope, masks in prune_grid(originals, optimized, fractions, scopes):
        cells = {m: (*scored(mask), achieved) for m, (mask, achieved) in masks.items()}
        winner = combined_select(cells["standard"][0], cells["tropical"][0])
        cells["combined"] = cells[winner]
        for method in METHODS:
            if method in methods:
                dev, test, achieved = cells[method]
                records.append(SweepRecord(task.kind, method, scope.value,
                                           float(p), achieved, dev, test, task.seed))
    return records
