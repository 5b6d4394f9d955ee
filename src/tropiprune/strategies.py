"""Magnitude ranking, mask construction, and pruning scopes.

Three scopes control how the smallest-magnitude fraction is counted: pooled
over every layer, per layer, or per node group (one group per matrix row, so
a hidden node groups its incoming weights plus merged bias and an output node
groups its up-projection row).  The geometry-aware mask prunes only where the
original ranking and the optimized surrogate's ranking agree, so its achieved
fraction never exceeds the requested one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .adapter import AdapterLayer

DOWN, UP = "down", "up"


class PruneScope(Enum):
    CLASS_BLIND = "CB"
    CLASS_UNIFORM = "CU"
    NODE_WISE = "CN"

    @classmethod
    def from_token(cls, token: str) -> "PruneScope":
        try:
            return cls(token.upper())
        except ValueError:
            raise ValueError(f"unknown scope {token!r}; expected CB, CU, or CN") from None


class ParamIndex(NamedTuple):
    layer: int
    matrix: str
    row: int
    col: int


@dataclass(frozen=True)
class PruneMask:
    """Boolean matrices matching each layer's shapes; True marks a pruned entry."""

    entries: tuple[tuple[np.ndarray, np.ndarray], ...]

    def count(self) -> int:
        return sum(int(d.sum()) + int(u.sum()) for d, u in self.entries)

    def size(self) -> int:
        return sum(d.size + u.size for d, u in self.entries)

    def fraction(self) -> float:
        return self.count() / self.size()

    def indices(self) -> set[ParamIndex]:
        found = set()
        for li, (down_mask, up_mask) in enumerate(self.entries):
            for tag, mask in ((DOWN, down_mask), (UP, up_mask)):
                for r, c in zip(*np.nonzero(mask)):
                    found.add(ParamIndex(li, tag, int(r), int(c)))
        return found


def _frozen(masks: Sequence[tuple[np.ndarray, np.ndarray]]) -> PruneMask:
    for down_mask, up_mask in masks:
        down_mask.flags.writeable = False
        up_mask.flags.writeable = False
    return PruneMask(tuple(masks))


def _take(fraction: float, size: int) -> int:
    # floor of the intended rational product; the epsilon undoes float dust
    return int(math.floor(fraction * size + 1e-9))


def _pooled_smallest(mats: Sequence[np.ndarray], fraction: float) -> list[np.ndarray]:
    """Masks of the bottom fraction of the matrices' magnitudes, ranked as one group.

    The stable sort breaks ties by position in the concatenated flatten order.
    """
    mags = np.concatenate([np.abs(m).ravel() for m in mats])
    flat = np.zeros(mags.size, dtype=bool)
    flat[np.argsort(mags, kind="stable")[:_take(fraction, mags.size)]] = True
    pieces = np.split(flat, np.cumsum([m.size for m in mats])[:-1])
    return [piece.reshape(m.shape) for piece, m in zip(pieces, mats)]


def _row_smallest(mat: np.ndarray, fraction: float) -> np.ndarray:
    """Mask of the bottom fraction of each row's magnitudes, ties to the lower column."""
    order = np.argsort(np.abs(mat), axis=1, kind="stable")[:, :_take(fraction, mat.shape[1])]
    mask = np.zeros(mat.shape, dtype=bool)
    np.put_along_axis(mask, order, True, axis=1)
    return mask


def _smallest(layers: Sequence[AdapterLayer], fraction: float,
              scope: PruneScope) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (down, up) masks of the bottom fraction within each scope group.

    A group's entries tie-break in flatten order (layer, then down before
    up, then row-major), so of two equal magnitudes the earlier one goes.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    if not layers:
        raise ValueError("no layers to rank")
    if scope is PruneScope.CLASS_BLIND:
        flat = _pooled_smallest([m for l in layers for m in (l.down, l.up)], fraction)
        return list(zip(flat[::2], flat[1::2]))
    if scope is PruneScope.CLASS_UNIFORM:
        return [tuple(_pooled_smallest([l.down, l.up], fraction)) for l in layers]
    return [(_row_smallest(l.down, fraction), _row_smallest(l.up, fraction)) for l in layers]


def select_smallest(layers: Sequence[AdapterLayer], fraction: float,
                    scope: PruneScope) -> set[ParamIndex]:
    """Indices of the bottom fraction by magnitude within each scope group.

    Equal magnitudes break ties by index order, so the selection is a pure
    function of the values.
    """
    return standard_mask(layers, fraction, scope).indices()


def _check_matching(originals: Sequence[AdapterLayer], optimized: Sequence) -> None:
    if len(originals) != len(optimized):
        raise ValueError("layer lists differ in length")
    for orig, opt in zip(originals, optimized):
        if orig.down.shape != opt.down.shape or orig.up.shape != opt.up.shape:
            raise ValueError("optimized matrices do not match the original shapes")


def tropical_mask(originals: Sequence[AdapterLayer], optimized: Sequence,
                  fraction: float, scope: PruneScope) -> tuple[PruneMask, float]:
    """Prune where the original and surrogate magnitude rankings agree.

    `optimized` is any sequence of objects with .down/.up matrices, e.g. the
    optimizer results.  Returns the mask and the achieved fraction, which is
    at most `fraction`.
    """
    _check_matching(originals, optimized)
    surrogates = [AdapterLayer(o.down, o.up) for o in optimized]
    mask = _frozen([(od & sd, ou & su) for (od, ou), (sd, su) in
                    zip(_smallest(originals, fraction, scope),
                        _smallest(surrogates, fraction, scope))])
    return mask, mask.fraction()


def standard_mask(layers: Sequence[AdapterLayer], fraction: float,
                  scope: PruneScope) -> PruneMask:
    """Plain smallest-magnitude mask at the given (usually achieved) fraction."""
    return _frozen(_smallest(layers, fraction, scope))


def apply_mask(layers: Sequence[AdapterLayer], mask: PruneMask) -> list[AdapterLayer]:
    """Zero the masked entries, leaving everything else bit-identical."""
    if len(mask.entries) != len(layers):
        raise ValueError("mask does not cover the layer list")
    pruned = []
    for layer, (down_mask, up_mask) in zip(layers, mask.entries):
        if down_mask.shape != layer.down.shape or up_mask.shape != layer.up.shape:
            raise ValueError("mask shapes do not match layer shapes")
        pruned.append(AdapterLayer(
            np.where(down_mask, 0.0, layer.down),
            np.where(up_mask, 0.0, layer.up),
            layer.up_bias))
    return pruned


def combined_select(dev_metric_standard: float, dev_metric_tropical: float) -> str:
    """Pick the better method on the development metric; ties go tropical."""
    return "standard" if dev_metric_standard > dev_metric_tropical else "tropical"
