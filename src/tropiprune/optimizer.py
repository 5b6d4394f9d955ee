"""Sparse surrogate fitting for adapter layers by alternating subgradient descent.

The objective keeps each node's generator pair close to the original layer's
in squared Frobenius distance while an entrywise L1 penalty pushes the
surrogate generators toward sparsity:

    sum_i  0.5*||Gp_i(hat) - Gp_i||_F^2 + 0.5*||Gn_i(hat) - Gn_i||_F^2
         + l1_pos*||Gp_i(hat)||_1      + l1_neg*||Gn_i(hat)||_1

where Gp_i / Gn_i are the positive- and negative-part generators of node i.
Descent alternates between the two branches: even iterations step every
node's positive branch, odd iterations the negative one.  ReLU and absolute
value contribute their minimal-norm subgradient (zero at the kink), which
keeps exact zeros stable once reached.

The objective never forms the (d, r, d+1) generator stacks.  Every node
scales the same down-projection rows, so both terms reduce to per-row sums
over the nodes' signed parts (see objective_value): a call on a (d, r)
adapter takes O(d*r) time and memory, a few (d, r) and (r, d+1) arrays at a
time.  A node step works on one (r, d+1) array and the node's own up-row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapter import AdapterLayer
from .errors import NumericError

POS, NEG = "pos", "neg"


@dataclass(frozen=True)
class OptimConfig:
    """Hyperparameters for the descent loop.

    tol is a relative-change threshold on the combined loss measured across
    `window` iterations; tol=0 disables early stopping.
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
        if not self.lr > 0:  # written so that NaN fails the checks too
            raise ValueError("lr must be positive")
        if not (self.l1_pos >= 0 and self.l1_neg >= 0):
            raise ValueError("sparsity weights must be >= 0")
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


def _check_shapes(layer: AdapterLayer, down_hat: np.ndarray, up_hat: np.ndarray) -> None:
    if down_hat.shape != layer.down.shape or up_hat.shape != layer.up.shape:
        raise ValueError(
            f"surrogate shapes {down_hat.shape}/{up_hat.shape} do not match "
            f"layer shapes {layer.down.shape}/{layer.up.shape}")


def _branch_sign(branch: str) -> float:
    if branch == POS:
        return 1.0
    if branch == NEG:
        return -1.0
    raise ValueError(f"branch must be {POS!r} or {NEG!r}, got {branch!r}")


def _branch_parts(layer: AdapterLayer, up_hat: np.ndarray, node: int,
                  branch: str) -> tuple[float, np.ndarray, np.ndarray]:
    """The branch's sign and the node's up-row parts of the surrogate and the layer."""
    if not 0 <= node < layer.width:
        raise ValueError(f"node {node} out of range for width {layer.width}")
    sign = _branch_sign(branch)
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
    down_hat = np.asarray(down_hat, dtype=np.float64)
    up_hat = np.asarray(up_hat, dtype=np.float64)
    _check_shapes(layer, down_hat, up_hat)
    # row sums are taken with .sum(): at toy shapes the per-call overhead of
    # np.sum is a visible share of the fit
    delta = down_hat - layer.down
    delta_sq = (delta * delta).sum(axis=1)
    cross = (delta * layer.down).sum(axis=1)
    ref_sq = (layer.down * layer.down).sum(axis=1)
    hat_l1 = np.abs(down_hat).sum(axis=1)
    value = 0.0
    for sign, l1 in ((1.0, l1_pos), (-1.0, l1_neg)):
        part_hat = np.maximum(sign * up_hat, 0.0)
        part_delta = part_hat - np.maximum(sign * layer.up, 0.0)
        value += 0.5 * ((part_hat * part_hat).sum(axis=0) @ delta_sq
                        + 2.0 * ((part_hat * part_delta).sum(axis=0) @ cross)
                        + (part_delta * part_delta).sum(axis=0) @ ref_sq)
        value += l1 * (part_hat.sum(axis=0) @ hat_l1)
    return float(value)


def branch_loss(layer: AdapterLayer, down_hat: np.ndarray, up_hat: np.ndarray,
                node: int, branch: str, l1: float) -> float:
    """One node's single-branch loss: 0.5 distance squared plus L1 penalty."""
    down_hat = np.asarray(down_hat, dtype=np.float64)
    up_hat = np.asarray(up_hat, dtype=np.float64)
    _check_shapes(layer, down_hat, up_hat)
    _, part_hat, part_ref = _branch_parts(layer, up_hat, node, branch)
    g_hat = part_hat[:, None] * down_hat
    g_ref = part_ref[:, None] * layer.down
    return float(0.5 * np.sum((g_hat - g_ref) ** 2) + l1 * np.sum(np.abs(g_hat)))


def _node_step(down_hat: np.ndarray, ref_down: np.ndarray, part_hat: np.ndarray,
               part_ref: np.ndarray, sign: float, l1: float) -> tuple[np.ndarray, np.ndarray]:
    """One node's branch subgradient as (d_down, d_row), from its signed parts.

    part_hat / part_ref are the node's up-row parts max(sign * row, 0) of the
    surrogate and of the layer; d_row is the gradient of the node's up-row.
    """
    scale = part_hat[:, None]
    g_hat = scale * down_hat
    pull = g_hat - part_ref[:, None] * ref_down + l1 * np.sign(g_hat)
    d_row = sign * np.where(part_hat > 0.0, (pull * down_hat).sum(axis=1), 0.0)
    return scale * pull, d_row


def subgradient(layer: AdapterLayer, down_hat: np.ndarray, up_hat: np.ndarray,
                node: int, branch: str, l1: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-norm subgradient of branch_loss w.r.t. the surrogate matrices.

    The rectifier inside the signed part contributes an indicator (1 only
    where the row weight is strictly on the branch's side of zero) and the L1
    term contributes sign(), with sign(0) = 0.
    """
    down_hat = np.asarray(down_hat, dtype=np.float64)
    up_hat = np.asarray(up_hat, dtype=np.float64)
    _check_shapes(layer, down_hat, up_hat)
    sign, part_hat, part_ref = _branch_parts(layer, up_hat, node, branch)
    d_down, d_row = _node_step(down_hat, layer.down, part_hat, part_ref, sign, l1)
    d_up = np.zeros_like(up_hat)
    d_up[node] = d_row
    return d_down, d_up


def run(layer: AdapterLayer, config: OptimConfig) -> OptimResult:
    """Alternating per-node subgradient descent, recording the combined loss.

    Starts from the layer's own matrices (zero distance, only the sparsity
    pressure moves anything).  Iteration t steps every node once on the
    positive branch when t is even, on the negative branch when t is odd.
    Node i's step changes only its own up-row, so the iteration's surrogate
    parts can be taken once, before the first node steps.

    Raises:
        NumericError: at the first iteration whose loss is not finite, with
            numpy's overflow and invalid-value warnings silenced.
    """
    down_hat = layer.down.copy()
    up_hat = layer.up.copy()
    parts_ref = {POS: np.maximum(layer.up, 0.0), NEG: np.maximum(-layer.up, 0.0)}
    # a diverging fit overflows before its loss turns non-finite; the
    # NumericError below reports it, so numpy's own warnings stay quiet
    with np.errstate(over="ignore", invalid="ignore"):
        trace: list[tuple[int, float]] = [
            (0, objective_value(layer, down_hat, up_hat, config.l1_pos, config.l1_neg))]
        converged_at: int | None = None
        lr = config.lr
        for t in range(1, config.iterations + 1):
            branch = POS if t % 2 == 0 else NEG
            l1 = config.l1_pos if branch == POS else config.l1_neg
            sign = _branch_sign(branch)
            parts_hat = np.maximum(sign * up_hat, 0.0)
            part_ref = parts_ref[branch]
            for node in range(layer.width):
                d_down, d_row = _node_step(down_hat, layer.down, parts_hat[node],
                                           part_ref[node], sign, l1)
                down_hat -= lr * d_down
                up_hat[node] -= lr * d_row
            loss = objective_value(layer, down_hat, up_hat, config.l1_pos, config.l1_neg)
            if not math.isfinite(loss):
                raise NumericError(f"surrogate loss diverged at iteration {t} "
                                   f"on the {branch} branch: {loss!r}")
            trace.append((t, loss))
            if t >= config.window:
                prev = trace[t - config.window][1]
                if abs(loss - prev) / max(abs(prev), 1e-300) < config.tol:
                    converged_at = t
                    break
    down_hat.flags.writeable = False
    up_hat.flags.writeable = False
    return OptimResult(down_hat, up_hat, tuple(trace), converged_at)
