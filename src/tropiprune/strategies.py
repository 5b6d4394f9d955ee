"""Magnitude ranking, mask construction, and pruning scopes.

Three scopes control how the smallest-magnitude fraction is counted: pooled
over every layer, per layer, or per node group (one group per matrix row, so
a hidden node groups its incoming weights plus merged bias and an output node
groups its up-projection row).  The geometry-aware mask prunes only where the
original ranking and the optimized surrogate's ranking agree, so its achieved
fraction never exceeds the requested one.

Every mask is a threshold of rank arrays: an entry's rank is its place in its
group's stable magnitude order, ties going to the earlier entry in flatten
order, and the bottom fraction p of n entries is every rank below floor(p*n).
Ranks do not depend on p, so `prune_grid` ranks once per scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Sequence

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


def _take(fraction: float, size: int) -> int:
    # floor of the intended rational product; the epsilon undoes float dust
    return int(math.floor(fraction * size + 1e-9))


def _ranks(layers: Sequence, scope: PruneScope) -> list[tuple[np.ndarray, int]]:
    """(ranks, group size) of each matrix, in (down, up) order per layer.

    Each group is one row: CB pools every layer into one row, CU each layer,
    and CN keeps the matrix rows.  `layers` need only .down/.up matrices.
    """
    if not layers:
        raise ValueError("no layers to rank")
    mats = [m for l in layers for m in (l.down, l.up)]
    if scope is PruneScope.NODE_WISE:
        groups = [(m, [m]) for m in mats]
    else:
        pools = [mats] if scope is PruneScope.CLASS_BLIND else list(zip(mats[::2], mats[1::2]))
        groups = [(np.concatenate([m.ravel() for m in pool])[None], pool) for pool in pools]
    ranked = []
    for rows, members in groups:
        ranks = np.empty(rows.shape, dtype=np.intp)
        np.put_along_axis(ranks, np.argsort(np.abs(rows), axis=1, kind="stable"),
                          np.arange(rows.shape[1]), axis=1)
        pieces = np.split(ranks.ravel(), np.cumsum([m.size for m in members])[:-1])
        ranked += [(piece.reshape(m.shape), rows.shape[1]) for piece, m in zip(pieces, members)]
    return ranked


def _mask(fraction: float, *rankings) -> PruneMask:
    """Read-only mask of the entries in the bottom fraction of every ranking."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    masks = [np.logical_and.reduce([ranks < _take(fraction, size) for ranks, size in matrix])
             for matrix in zip(*rankings)]
    for mask in masks:
        mask.flags.writeable = False
    return PruneMask(tuple(zip(masks[::2], masks[1::2])))


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
        if not (np.all(np.isfinite(opt.down)) and np.all(np.isfinite(opt.up))):
            raise ValueError("optimized matrices contain non-finite entries")


def tropical_mask(originals: Sequence[AdapterLayer], optimized: Sequence,
                  fraction: float, scope: PruneScope) -> tuple[PruneMask, float]:
    """Prune where the original and surrogate magnitude rankings agree.

    `optimized` is any sequence of objects with .down/.up matrices, e.g. the
    optimizer results.  Returns the mask and the achieved fraction, which is
    at most `fraction`.
    """
    _check_matching(originals, optimized)
    mask = _mask(fraction, _ranks(originals, scope), _ranks(optimized, scope))
    return mask, mask.fraction()


def standard_mask(layers: Sequence[AdapterLayer], fraction: float,
                  scope: PruneScope) -> PruneMask:
    """Plain smallest-magnitude mask at the given (usually achieved) fraction."""
    return _mask(fraction, _ranks(layers, scope))


def prune_grid(originals: Sequence[AdapterLayer], optimized: Sequence,
               fractions: Sequence[float], scopes: Sequence[PruneScope]
               ) -> Iterator[tuple[float, PruneScope, dict]]:
    """Both methods' masks for every cell, in (fraction, scope) order.

    Yields (p, scope, {"tropical": (mask, p_hat), "standard": (mask, achieved)}).
    The standard mask is taken at the tropical mask's achieved fraction
    p_hat, so the two methods prune about as many parameters.
    """
    _check_matching(originals, optimized)
    ranked = [(scope, _ranks(originals, scope), _ranks(optimized, scope)) for scope in scopes]
    for p in fractions:
        for scope, ranked_orig, ranked_surr in ranked:
            trop_mask = _mask(p, ranked_orig, ranked_surr)
            p_hat = trop_mask.fraction()
            std_mask = _mask(p_hat, ranked_orig)
            yield p, scope, {"tropical": (trop_mask, p_hat),
                             "standard": (std_mask, std_mask.fraction())}


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
