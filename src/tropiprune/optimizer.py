"""Sparse surrogate fitting for adapter layers by exact block-coordinate descent.

The objective keeps each node's generator pair close to the original layer's
in squared Frobenius distance while an entrywise L1 penalty pushes the
surrogate generators toward sparsity:

    sum_i  0.5*||Gp_i(hat) - Gp_i||_F^2 + 0.5*||Gn_i(hat) - Gn_i||_F^2
         + l1_pos*||Gp_i(hat)||_1      + l1_neg*||Gn_i(hat)||_1

where Gp_i / Gn_i are the positive- and negative-part generators of node i.
With `up` fixed the objective splits into one scalar problem per `down`
entry, a soft threshold; with `down` fixed, into one per `up` entry, a
clipped ratio (see _down_block and _up_block).  Each iteration sets both
blocks to these exact minimisers in turn, so the loss never rises, there is
no step size, and entries land on exact zeros.  An entry that is 0 in the
layer stays exactly 0, in `down` and in `up`.

Neither the objective nor an iteration forms the (d, r, d+1) generator
tensors.  Every node scales the same down-projection rows, so both reduce to
per-row sums over the nodes' signed parts: O(d*r) time and memory.

Since entries land on exact zeros, the iterate soon repeats bit for bit,
and from then on so do the iterates and the losses.  A fit's computation
ends at its first exact repeat (Brent's cycle test): the rest of its trace
is copied from the repeating stretch, and its result is the iterate that
the last iteration would hold.  So `iterations` with `tol` 0 fixes what the
fit returns, not how many iterations it computes; the README config's fits
repeat within 16-80 iterations of their 500.

`subgradient` and `branch_loss` give one node's branch loss and its
minimal-norm subgradient; the fit itself does not use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adapter import AdapterLayer
from .errors import NumericError

#: The positive and the negative branch's sign, shaped to broadcast over (d, r).
_BRANCH_SIGNS = np.array([1.0, -1.0])[:, None, None]


@dataclass(frozen=True)
class OptimConfig:
    """Hyperparameters for the block-coordinate fit.

    tol is a relative-change threshold on the combined loss measured across
    `window` iterations.  With tol=0 no layer converges: its result and trace
    are those of all `iterations` iterations, though the computation may end
    at the iterate's first exact repeat (see `run`).  lr has no effect:
    the exact block minimisers take no step size.  It is still accepted and
    range-checked so that configs written for the earlier subgradient fit,
    which set it, keep working.  lr, l1_pos and l1_neg must be finite.
    """

    iterations: int = 1000
    lr: float = 0.01
    l1_pos: float = 0.1
    l1_neg: float = 0.1
    tol: float = 1e-6
    window: int = 10

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not 0 < self.lr < math.inf:  # written so that NaN fails the checks too
            raise ValueError("lr must be positive and finite")
        if not (0 <= self.l1_pos < math.inf and 0 <= self.l1_neg < math.inf):
            raise ValueError("sparsity weights must be finite and >= 0")
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass(frozen=True)
class OptimResult:
    down: np.ndarray
    up: np.ndarray
    loss_trace: tuple[tuple[int, float], ...]
    converged_at: int | None


def _surrogate(layer: AdapterLayer, down_hat, up_hat) -> tuple[np.ndarray, np.ndarray]:
    """The surrogate matrices as float64 arrays, once their shapes match the layer's."""
    down_hat = np.asarray(down_hat, dtype=np.float64)
    up_hat = np.asarray(up_hat, dtype=np.float64)
    if down_hat.shape != layer.down.shape or up_hat.shape != layer.up.shape:
        raise ValueError(
            f"surrogate shapes {down_hat.shape}/{up_hat.shape} do not match "
            f"layer shapes {layer.down.shape}/{layer.up.shape}")
    return down_hat, up_hat


def _branch_parts(layer: AdapterLayer, up_hat: np.ndarray, node: int,
                  branch: str) -> tuple[float, np.ndarray, np.ndarray]:
    """The branch's sign and the node's up-row parts of the surrogate and the layer."""
    if not 0 <= node < layer.width:
        raise ValueError(f"node {node} out of range for width {layer.width}")
    if branch not in ("pos", "neg"):
        raise ValueError(f"branch must be 'pos' or 'neg', got {branch!r}")
    sign = 1.0 if branch == "pos" else -1.0
    return sign, np.maximum(sign * up_hat[node], 0.0), np.maximum(sign * layer.up[node], 0.0)


def objective_value(layer: AdapterLayer, down_hat: np.ndarray, up_hat: np.ndarray,
                    l1_pos: float, l1_neg: float) -> float:
    """Full objective summed over all node slices and both branches, in O(d*r).

    Row j of node i's branch generator is p_ij * D_j, so with dD_j = Dh_j - D_j
    and dp_ij = ph_ij - p_ij its distance row is ph_ij * dD_j + dp_ij * D_j.
    Summed over nodes, each row contributes
        0.5*[(sum_i ph_ij^2)|dD_j|^2 + 2(sum_i ph_ij dp_ij)<dD_j, D_j>
             + (sum_i dp_ij^2)|D_j|^2] + l1*(sum_i ph_ij)|Dh_j|_1.
    Every distance term carries a difference, so the value is exactly 0.0 at
    the layer itself when the penalties are zero.
    """
    down_hat, up_hat = _surrogate(layer, down_hat, up_hat)
    fixed = _Layers.of(layer.down, layer.up, l1_pos, l1_neg)
    return float(_loss(fixed, np.array([l1_pos, l1_neg]), down_hat, _parts(up_hat),
                       np.abs(down_hat).sum(axis=-1)))


def branch_loss(layer: AdapterLayer, down_hat: np.ndarray, up_hat: np.ndarray,
                node: int, branch: str, l1: float) -> float:
    """One node's single-branch loss: 0.5 distance squared plus L1 penalty."""
    down_hat, up_hat = _surrogate(layer, down_hat, up_hat)
    _, part_hat, part_ref = _branch_parts(layer, up_hat, node, branch)
    g_hat = part_hat[:, None] * down_hat
    g_ref = part_ref[:, None] * layer.down
    return float(0.5 * np.sum((g_hat - g_ref) ** 2) + l1 * np.sum(np.abs(g_hat)))


def subgradient(layer: AdapterLayer, down_hat: np.ndarray, up_hat: np.ndarray,
                node: int, branch: str, l1: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-norm subgradient of branch_loss w.r.t. the surrogate matrices.

    The rectifier inside the signed part contributes an indicator (1 only
    where the row weight is strictly on the branch's side of zero) and the L1
    term contributes sign(), with sign(0) = 0.
    """
    down_hat, up_hat = _surrogate(layer, down_hat, up_hat)
    sign, part_hat, part_ref = _branch_parts(layer, up_hat, node, branch)
    scale = part_hat[:, None]
    g_hat = scale * down_hat
    pull = g_hat - part_ref[:, None] * layer.down + l1 * np.sign(g_hat)
    d_up = np.zeros_like(up_hat)
    d_up[node] = sign * np.where(part_hat > 0.0, (pull * down_hat).sum(axis=1), 0.0)
    return scale * pull, d_up


class _Layers(NamedTuple):
    """A layer's matrices, with any leading axes, and the terms every iteration reuses."""

    down: np.ndarray     # (..., r, d+1)
    down_sq: np.ndarray  # (..., r): each down row's squared norm
    parts: np.ndarray    # (..., 2, d, r): both branches' parts of up
    up_size: np.ndarray  # (..., d, r): |up|
    up_sign: np.ndarray  # (..., d, r): sign(up)
    l1_up: np.ndarray    # (..., d, r): the penalty of each up entry's branch

    @classmethod
    def of(cls, down: np.ndarray, up: np.ndarray, l1_pos: float, l1_neg: float) -> "_Layers":
        return cls(down, (down * down).sum(axis=-1), _parts(up), np.abs(up), np.sign(up),
                   np.where(up > 0.0, l1_pos, l1_neg))


def _parts(up_hat: np.ndarray) -> np.ndarray:
    """Both branches' parts of `up_hat`, on a new axis before its last two."""
    return np.maximum(_BRANCH_SIGNS * up_hat[..., None, :, :], 0.0)


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (m @ v[..., None])[..., 0]


def _loss(fixed: _Layers, l1: np.ndarray, down_hat: np.ndarray, part_hat: np.ndarray,
          hat_l1: np.ndarray) -> np.ndarray:
    """objective_value of each surrogate, given its up parts and down row L1 norms."""
    # row sums are taken with .sum() and both branches in one array: at toy
    # shapes the per-call overhead of numpy is a visible share of the fit
    delta = down_hat - fixed.down
    delta_sq = (delta * delta).sum(axis=-1)
    cross = (delta * fixed.down).sum(axis=-1)
    part_delta = part_hat - fixed.parts
    per_branch = (0.5 * (_matvec((part_hat * part_hat).sum(axis=-2), delta_sq)
                         + 2.0 * _matvec((part_hat * part_delta).sum(axis=-2), cross)
                         + _matvec((part_delta * part_delta).sum(axis=-2), fixed.down_sq))
                  + l1 * _matvec(part_hat.sum(axis=-2), hat_l1))
    return per_branch.sum(axis=-1)


def _down_block(fixed: _Layers, l1: np.ndarray, down_hat: np.ndarray,
                part_hat: np.ndarray) -> np.ndarray:
    """The exact minimiser over `down` with `up_hat`, whose parts are `part_hat`, fixed.

    Entry (j, k) solves 0.5*S2_j*x^2 - S1_j*D_jk*x + L_j*|x| on its own, with
    S2_j = sum_i ph_ij^2, S1_j = sum_i ph_ij*p_ij and L_j = sum_i l1*ph_ij
    over both branches' parts: x = soft(S1_j*D_jk, L_j)/S2_j.  It is taken
    in difference form, y = D - ((S2 - S1)/S2)*D and then y less its clip to
    +-L/S2, so a penalty-free fit at the layer stays there bit for bit.  A
    row whose parts ph_ij are all 0 (S2_j = 0) leaves the objective flat in
    x and keeps its value.
    """
    s2 = (part_hat * part_hat).sum(axis=(-3, -2))
    gap = (part_hat * (part_hat - fixed.parts)).sum(axis=(-3, -2))  # S2 - S1
    thresh = (l1 @ part_hat.sum(axis=-2) / s2)[..., None]
    y = fixed.down - (gap / s2)[..., None] * fixed.down
    return np.where((s2 > 0.0)[..., None], y - np.clip(y, -thresh, thresh), down_hat)


def _up_block(fixed: _Layers, down_hat: np.ndarray, hat_l1: np.ndarray) -> np.ndarray:
    """The exact minimiser over `up` with `down_hat`, whose row L1 norms are `hat_l1`, fixed.

    Entry (i, j) is max(0, p*c - l1*n)/a with the sign of the layer's entry,
    where p = |U_ij|, a = |Dh_j|^2, c = <Dh_j, D_j>, n = |Dh_j|_1 and l1 the
    penalty of U_ij's branch (the other branch's minimiser is 0).  It is
    taken in difference form, p - (p*(a - c) + l1*n)/a.  Where row j of
    `down_hat` is all zero (a = 0) the generators are 0 whatever column j
    holds, and column j is set to 0, the minimal-norm minimiser.  Zeros
    are written as 0.0, never -0.0.
    """
    a = (down_hat * down_hat).sum(axis=-1)[..., None, :]
    gap = (down_hat * (down_hat - fixed.down)).sum(axis=-1)[..., None, :]  # a - c
    size = fixed.up_size
    shrunk = size - (size * gap + fixed.l1_up * hat_l1[..., None, :]) / a
    return np.where((a > 0.0) & (shrunk > 0.0), fixed.up_sign * shrunk, 0.0)


def _result(down_hat: np.ndarray, up_hat: np.ndarray, trace: list,
            converged_at: int | None) -> OptimResult:
    """The fit's outcome, holding its own read-only copies, never the layer's matrices."""
    down_hat, up_hat = down_hat.copy(), up_hat.copy()
    down_hat.flags.writeable = False
    up_hat.flags.writeable = False
    return OptimResult(down_hat, up_hat, tuple(trace), converged_at)


def _converged(trace: list, config: OptimConfig) -> bool:
    """Whether the trace's last loss passes the `tol` test against the one `window` back."""
    t = len(trace) - 1
    if t < config.window:
        return False
    prev = trace[t - config.window][1]
    return abs(trace[t][1] - prev) / max(abs(prev), 1e-300) < config.tol


def _repeat(trace: list, period: int, config: OptimConfig) -> int | None:
    """Extend the trace of an iterate that repeats every `period` iterations; its converged_at.

    The losses repeat with the iterate, so iteration u records the loss of
    u - period, up to the first u whose `tol` test passes or to the last
    iteration.
    """
    for u in range(len(trace), config.iterations + 1):
        trace.append((u, trace[u - period][1]))
        if _converged(trace, config):
            return u
    return None


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays of one shape hold the same bits."""
    return bool((a.view(np.int64) == b.view(np.int64)).all())


def run(layer: AdapterLayer, config: OptimConfig) -> OptimResult:
    """Exact block-coordinate descent, recording the combined loss.

    Starts from the layer's own matrices (zero distance, only the sparsity
    pressure moves anything).  Iteration t sets `down` to its exact
    minimiser with `up` fixed (_down_block), then `up` to its exact
    minimiser with that `down` fixed (_up_block), and records the loss;
    iteration 0 records the starting loss.  Ties go two ways: a `down` row
    whose `up` column parts are all 0 keeps its value, and an `up` column
    whose `down` row is all zero is set to 0.  The fit stops at the first
    iteration whose `tol` test passes, or after `iterations`.

    The (down, up) bits fix every later iterate and loss, so the first exact
    repeat ends the computation too.  Brent's test finds it: each iterate is
    compared with a checkpoint, retaken whenever the iterations since it
    reach a power of two, which then doubles.  A match at iteration t with
    period lam fills the rest of the trace from the losses lam back, and the
    result is read at iteration t + ((end - t) mod lam), where end is the
    last iteration or the one whose `tol` test passes.

    Raises:
        NumericError: at the first iteration, 0 included, whose loss is not
            finite; the whole fit runs with numpy's floating-point warnings
            silenced, so that error is the only report.
    """
    l1 = np.array([config.l1_pos, config.l1_neg])
    trace: list[tuple[int, float]] = []
    # once the trace is complete: the iteration to read the result at, and its converged_at
    read = converged_at = None
    with np.errstate(all="ignore"):
        fixed = _Layers.of(layer.down, layer.up, config.l1_pos, config.l1_neg)
        down_hat, up_hat, part_hat = fixed.down, layer.up, fixed.parts
        hat_l1 = np.abs(down_hat).sum(axis=-1)
        # the checkpoint: the iterate at iteration `mark` (never written in place)
        mark, mark_down, mark_up, span = 0, down_hat, up_hat, 1
        for t in range(config.iterations + 1):
            if t:
                down_hat = _down_block(fixed, l1, down_hat, part_hat)
                hat_l1 = np.abs(down_hat).sum(axis=-1)
                up_hat = _up_block(fixed, down_hat, hat_l1)
                part_hat = _parts(up_hat)
            if read is None:
                loss = float(_loss(fixed, l1, down_hat, part_hat, hat_l1))
                if not math.isfinite(loss):
                    raise NumericError(f"surrogate loss is not finite at iteration {t}: {loss!r}")
                trace.append((t, loss))
                if _converged(trace, config):
                    read = converged_at = t
                elif t and _same_bits(down_hat, mark_down) and _same_bits(up_hat, mark_up):
                    converged_at = _repeat(trace, t - mark, config)
                    end = config.iterations if converged_at is None else converged_at
                    read = t + (end - t) % (t - mark)
            if t == read:
                break
            if t - mark == span:
                mark, mark_down, mark_up, span = t, down_hat, up_hat, 2 * span
    return _result(down_hat, up_hat, trace, converged_at)
