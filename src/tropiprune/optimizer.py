"""Sparse surrogate fitting for adapter layers by alternating subgradient descent.

The objective keeps each node's generator pair close to the original layer's
in squared Frobenius distance while an entrywise L1 penalty pushes the
surrogate generators toward sparsity:

    sum_i  0.5*||Gp_i(hat) - Gp_i||_F^2 + 0.5*||Gn_i(hat) - Gn_i||_F^2
         + l1_pos*||Gp_i(hat)||_1      + l1_neg*||Gn_i(hat)||_1

where Gp_i / Gn_i are the positive- and negative-part generators of node i.
Descent alternates between the two branches: even iterations step every
node's positive branch, odd iterations the negative one, node by node in
index order.  ReLU and absolute value contribute their minimal-norm
subgradient (zero at the kink).  That does not hold a surrogate entry at
zero once it gets there: a `down` entry at 0 whose layer value is non-zero
is pulled off it again by the distance term.  What does hold is that an
entry that is 0 in the layer itself stays exactly 0, in `down` and in `up`:
in `down` its distance pull and its L1 subgradient are both 0, and in `up`
the rectifier's indicator is 0 on both branches.

Neither the objective nor an iteration forms the (d, r, d+1) generator
stacks.  Every node scales the same down-projection rows, so the objective
reduces to per-row sums over the nodes' signed parts (see objective_value),
and the d node steps of an iteration compose per row in closed form (see
_iteration).  Both take O(d*r) time and memory, a few (d, r) and (r, d+1)
arrays at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapter import AdapterLayer
from .errors import NumericError

POS, NEG = "pos", "neg"

#: The positive and the negative branch's sign, shaped to broadcast over (d, r).
_BRANCH_SIGNS = np.array([1.0, -1.0])[:, None, None]


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
    # row sums are taken with .sum() and both branches in one array: at toy
    # shapes the per-call overhead of numpy is a visible share of the fit
    delta = down_hat - layer.down
    delta_sq = (delta * delta).sum(axis=1)
    cross = (delta * layer.down).sum(axis=1)
    ref_sq = (layer.down * layer.down).sum(axis=1)
    hat_l1 = np.abs(down_hat).sum(axis=1)
    part_hat = np.maximum(_BRANCH_SIGNS * up_hat, 0.0)
    part_delta = part_hat - np.maximum(_BRANCH_SIGNS * layer.up, 0.0)
    per_branch = (0.5 * ((part_hat * part_hat).sum(axis=1) @ delta_sq
                         + 2.0 * ((part_hat * part_delta).sum(axis=1) @ cross)
                         + (part_delta * part_delta).sum(axis=1) @ ref_sq)
                  + (l1_pos, l1_neg) * (part_hat.sum(axis=1) @ hat_l1))
    return float(per_branch.sum())


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
    scale = part_hat[:, None]
    g_hat = scale * down_hat
    pull = g_hat - part_ref[:, None] * layer.down + l1 * np.sign(g_hat)
    d_up = np.zeros_like(up_hat)
    d_up[node] = sign * np.where(part_hat > 0.0, (pull * down_hat).sum(axis=1), 0.0)
    return scale * pull, d_up


#: An entry keeps to the closed form only if its lower bound on sign * value
#: clears zero by this share of the bound's terms, far above rounding.
_SIGN_MARGIN = 1e-9

#: Rows whose product of the step scales g falls to this take the exact
#: steps: the closed form divides the shifts by that product.
_SCALE_FLOOR = 1e-150

#: The exact entries' path is kept for at most this many values at a time.
_PATH_ENTRIES = 1 << 16


def _node_maps(ph: np.ndarray, part_ref: np.ndarray, lr: float, l1: float) -> np.ndarray:
    """Every node's step on every row of down as (g, k, e), shape (3, d, r)."""
    step = lr * ph
    maps = np.empty((3, *ph.shape))
    np.subtract(1.0, step * ph, out=maps[0])
    np.multiply(step, ph - part_ref, out=maps[1])
    np.multiply(step, l1, out=maps[2])
    return maps


def _compose(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B, C) of every row before each node and after the last, shape (3, d+1, r).

    A_i = g_0*...*g_(i-1) and (B, C)_i = A_i * sum_{m<i} (-k_m, -e_m) / A_(m+1).
    Rows with some g <= 0, or a product of g at or below _SCALE_FLOOR where
    the division by A would overflow, are returned as exact rows and get the
    identity.
    """
    d, r = maps.shape[1:]
    coef = np.zeros((3, d + 1, r))
    coef[0, 0] = 1.0
    np.cumprod(maps[0], axis=0, out=coef[0, 1:])
    np.negative(maps[1:], out=coef[1:, 1:])
    exact_rows = ~(coef[0].min(axis=0) > _SCALE_FLOOR)  # a first g <= 0 makes A <= 0
    if exact_rows.any():
        coef[:, :, exact_rows] = coef[:, :1, exact_rows]
    shifts = coef[1:, 1:]
    shifts /= coef[0, 1:]
    np.cumsum(shifts, axis=1, out=shifts)
    shifts *= coef[0, 1:]
    return coef, exact_rows


def _keeps_sign(down_hat: np.ndarray, ref_down: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Entries of down whose sign no node step of the iteration can change.

    An entry x0 with sign s takes the values s*x = A*|x0| + (1 - A + B)*s*D + C,
    where A > 0, 1 - A + B >= 0 and C <= 0; when s*D >= 0 the first two terms
    are also at least min(|x0|, |D|)*(1 + B).  The lower bound over the
    iteration has to clear 0 by _SIGN_MARGIN of its terms.  Entries at 0
    never qualify.
    """
    a_min, b_min, c_min = coef.min(axis=1)[:, :, None]
    drift = 1.0 - a_min + coef[1].max(axis=0)[:, None]  # bounds 1 - A + B
    size = np.abs(down_hat)
    aligned = np.sign(down_hat) * ref_down
    keep = np.maximum(a_min * size + drift * np.minimum(aligned, 0.0),
                      (1.0 + b_min) * np.minimum(size, aligned))
    return keep + c_min > _SIGN_MARGIN * (size + drift * np.abs(ref_down) - c_min)


def _closed_form(down_hat: np.ndarray, ref_down: np.ndarray, coef: np.ndarray,
                 closed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums before each node over the closed entries, and down after the last node.

    The sums are |dD|^2, <dD, D> and |Dh|_1, shape (3, d, r): quadratic and
    linear forms of (A, B, C) over each row's 3x3 Gram matrix of (dD, D, s).
    """
    state = np.empty((len(down_hat), 3, down_hat.shape[1]))  # per row: (dD, D, s)
    np.subtract(down_hat, ref_down, out=state[:, 0])
    state[:, 1] = ref_down
    np.sign(down_hat, out=state[:, 2])
    down_new = ref_down + (coef[:, -1].T[:, None] @ state)[:, 0]
    np.copyto(state, 0.0, where=~closed[:, None])
    gram = state @ state.transpose(0, 2, 1)
    before = coef[:, :-1]
    sums = (before.T @ gram).T  # <row before node i, (dD, D, s)>
    sums[0] = before[0] * sums[0] + before[1] * sums[1] + before[2] * sums[2]
    sums[2] += gram[:, 1, 2]
    return sums, down_new


def _exact_steps(ref_down: np.ndarray, down_hat: np.ndarray, down_new: np.ndarray,
                 maps: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 sums: np.ndarray) -> None:
    """Steps the given entries node by node, into down_new; their terms join sums.

    The entries come row by row, as np.nonzero gives them.  Their dD and
    value before each node are kept for a block of nodes at a time, at most
    _PATH_ENTRIES of each; the steps write into preallocated arrays.
    """
    d = maps.shape[1]
    ref = ref_down[rows, cols]
    counts = np.bincount(rows, minlength=maps.shape[2])
    hit = np.flatnonzero(counts)
    counts = counts[hit]
    starts = np.searchsorted(rows, hit)
    block = max(1, min(d, _PATH_ENTRIES // len(rows)))
    offs = np.empty((block + 1, len(rows)))  # dD before each node of the block, and after
    values = np.empty((block, len(rows)))
    pushed = np.empty(len(rows))
    np.subtract(down_hat[rows, cols], ref, offs[0])
    for first in range(0, d, block):
        # the block's maps per entry; they then hold the entries' terms
        terms = np.repeat(maps[:, first:first + block, hit], counts, axis=2)
        gamma, shift, push = terms
        shift *= ref
        for off_i, off_next, x_i, g_i, k_i, e_i in zip(offs, offs[1:], values, gamma, shift,
                                                       push):
            np.add(ref, off_i, x_i)
            np.multiply(e_i, np.sign(x_i, pushed), pushed)
            np.multiply(g_i, off_i, off_next)
            off_next -= k_i
            off_next -= pushed
        walked = offs[:len(gamma)]
        np.multiply(walked, walked, gamma)
        np.multiply(walked, ref, shift)
        np.abs(values[:len(gamma)], push)
        sums[:, first:first + len(gamma), hit] += np.add.reduceat(terms, starts, axis=2)
        offs[0] = offs[len(gamma)]
    down_new[rows, cols] = ref + offs[0]


def _iteration(ref_down: np.ndarray, ref_sq: np.ndarray, down_hat: np.ndarray,
               up_hat: np.ndarray, part_ref: np.ndarray, sign: float, l1: float,
               lr: float) -> np.ndarray:
    """Every node's branch step in node order; returns the new down, steps up in place.

    With dD = Dh - D on a row of down and the node's parts ph, p on that row,
    node i's step (ph > 0; ph = 0 is the identity) is the affine map

        dD <- g*dD - k*D - e*s,   g = 1 - lr*ph^2,  k = lr*ph*(ph - p),  e = lr*l1*ph,

    the same for the row's d+1 entries as long as none of their signs s
    changes.  So row j before node i's step is (A, B, C)_ij . (dD, D, s) of
    the start state, with (A, B, C) the prefix compositions of the maps
    (_compose), and node i's up-row gradient

        ph*|dD|^2 + (2*ph - p)*<dD, D> + (ph - p)*|D|^2 + l1*|Dh|_1

    needs only per-row sums that are forms in (A, B, C) (_closed_form).
    Every term carries a difference, so a penalty-free fit at the layer
    stays there bit for bit.  An entry whose sign a bound cannot keep over
    the iteration (_keeps_sign), and every entry of an exact row, takes the
    exact per-node steps instead (_exact_steps).  Time is O(d*r) plus O(d)
    per exact entry; memory is O(d*r).
    """
    ph = np.maximum(sign * up_hat, 0.0)  # node i changes only its own up-row
    maps = _node_maps(ph, part_ref, lr, l1)
    coef, exact_rows = _compose(maps)
    closed = _keeps_sign(down_hat, ref_down, coef)
    closed[exact_rows] = False
    sums, down_new = _closed_form(down_hat, ref_down, coef, closed)
    rows, cols = np.nonzero(~closed)
    if len(rows):
        _exact_steps(ref_down, down_hat, down_new, maps, rows, cols, sums)
    sq, cross, hat_l1 = sums
    gap = ph - part_ref
    grad = ph * (sq + cross) + gap * (cross + ref_sq) + l1 * hat_l1
    up_hat -= (lr * sign) * np.where(ph > 0.0, grad, 0.0)
    return down_new


def run(layer: AdapterLayer, config: OptimConfig) -> OptimResult:
    """Alternating per-node subgradient descent, recording the combined loss.

    Starts from the layer's own matrices (zero distance, only the sparsity
    pressure moves anything).  Iteration t steps every node once, in node
    order, on the positive branch when t is even and on the negative branch
    when t is odd; the steps of one iteration are composed in closed form
    (see _iteration).

    Raises:
        NumericError: at the first iteration whose loss is not finite, with
            numpy's overflow and invalid-value warnings silenced.
    """
    down_hat = layer.down.copy()
    up_hat = layer.up.copy()
    parts_ref = {POS: np.maximum(layer.up, 0.0), NEG: np.maximum(-layer.up, 0.0)}
    ref_sq = (layer.down * layer.down).sum(axis=1)
    # a diverging fit overflows before its loss turns non-finite; the
    # NumericError below reports it, so numpy's own warnings stay quiet
    with np.errstate(over="ignore", invalid="ignore"):
        trace: list[tuple[int, float]] = [
            (0, objective_value(layer, down_hat, up_hat, config.l1_pos, config.l1_neg))]
        converged_at: int | None = None
        for t in range(1, config.iterations + 1):
            branch = POS if t % 2 == 0 else NEG
            l1 = config.l1_pos if branch == POS else config.l1_neg
            down_hat = _iteration(layer.down, ref_sq, down_hat, up_hat, parts_ref[branch],
                                  _branch_sign(branch), l1, config.lr)
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
