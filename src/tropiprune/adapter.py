"""Bottleneck adapter: forward pass, convex-part split, node generators.

The adapter maps x to up @ relu(down @ [x; 1]), optionally added back onto x
as a residual.  The down-projection carries its bias as a trailing column, so
inputs are augmented with a constant 1.  The same map can be written as a
difference of two convex piecewise-linear functions, whose per-node geometry
is captured by a pair of generator matrices built from the signed parts of
the up-projection rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class AdapterLayer:
    """Frozen pair of projections: down is (r, d+1) with merged bias, up is (d, r).

    An optional up-projection bias is carried through the forward pass but
    plays no part in the generator construction or pruning.
    """

    down: np.ndarray
    up: np.ndarray
    up_bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        down = _as_matrix(self.down, "down")
        up = _as_matrix(self.up, "up")
        if down.shape[0] != up.shape[1]:
            raise ValueError(
                f"bottleneck mismatch: down has {down.shape[0]} rows, up has {up.shape[1]} columns")
        if down.shape[1] != up.shape[0] + 1:
            raise ValueError(
                f"width mismatch: down has {down.shape[1]} columns, expected {up.shape[0] + 1} "
                "(bias column included)")
        bias = self.up_bias
        if bias is not None:
            bias = np.array(bias, dtype=np.float64).reshape(-1)
            if bias.shape[0] != up.shape[0] or not np.all(np.isfinite(bias)):
                raise ValueError("up_bias must be a finite vector of the output width")
            bias.flags.writeable = False
        down.flags.writeable = False
        up.flags.writeable = False
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "up_bias", bias)

    @property
    def width(self) -> int:
        """Input/output dimension d."""
        return self.up.shape[0]

    @property
    def bottleneck(self) -> int:
        """Hidden dimension r."""
        return self.down.shape[0]

    @property
    def param_count(self) -> int:
        return self.down.size + self.up.size


def merge_bias(weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Append the bias vector as a last column so inputs gain a trailing 1."""
    w = _as_matrix(weights, "weights")
    b = np.asarray(bias, dtype=np.float64).reshape(-1)
    if b.shape[0] != w.shape[0]:
        raise ValueError(f"bias length {b.shape[0]} does not match {w.shape[0]} rows")
    return np.hstack([w, b[:, None]])


def _augment(layer: AdapterLayer, x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    batch = arr[None, :] if single else arr
    if batch.ndim != 2 or batch.shape[1] != layer.width:
        raise ValueError(f"input width {arr.shape[-1]} does not match layer width {layer.width}")
    aug = np.hstack([batch, np.ones((batch.shape[0], 1))])
    return aug, single


def forward(layer: AdapterLayer, x, residual: bool = False) -> np.ndarray:
    """Apply the adapter to a vector or a batch of row vectors."""
    aug, single = _augment(layer, x)
    hidden = np.maximum(aug @ layer.down.T, 0.0)
    out = hidden @ layer.up.T
    if layer.up_bias is not None:
        out = out + layer.up_bias
    if residual:
        out = out + aug[:, :-1]
    return out[0] if single else out


def split_pos_neg(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise positive and negative parts, so m = pos - neg."""
    arr = np.asarray(m, dtype=np.float64)
    return np.maximum(arr, 0.0), np.maximum(-arr, 0.0)


def tropical_parts(layer: AdapterLayer, x) -> tuple[np.ndarray, np.ndarray]:
    """Split the adapter map into a difference of two convex max-affine maps.

    Returns (pos, neg) with pos - neg equal to forward(layer, x).  Each part
    is a max of affine functions of x, which is what makes the per-node dual
    geometry well defined.
    """
    aug, single = _augment(layer, x)
    down_pos, down_neg = split_pos_neg(layer.down)
    up_pos, up_neg = split_pos_neg(layer.up)
    crest = np.maximum(aug @ down_pos.T, aug @ down_neg.T)
    floor = aug @ down_neg.T
    pos = crest @ up_pos.T + floor @ up_neg.T
    neg = crest @ up_neg.T + floor @ up_pos.T
    if layer.up_bias is not None:
        pos = pos + np.maximum(layer.up_bias, 0.0)
        neg = neg + np.maximum(-layer.up_bias, 0.0)
    return (pos[0], neg[0]) if single else (pos, neg)


def node_generators(layer: AdapterLayer, node: int) -> tuple[np.ndarray, np.ndarray]:
    """Generator matrices for one output node.

    Row j of the first matrix is the j-th down-projection row scaled by the
    positive part of the node's up-projection weight; the second matrix uses
    the negative part.  The two never share a nonzero row.
    """
    if not 0 <= node < layer.width:
        raise ValueError(f"node {node} out of range for width {layer.width}")
    weights = layer.up[node]
    pos = np.maximum(weights, 0.0)[:, None] * layer.down
    neg = np.maximum(-weights, 0.0)[:, None] * layer.down
    return pos, neg

