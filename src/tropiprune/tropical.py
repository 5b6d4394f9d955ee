"""Max-plus semiring arithmetic: scalars, monomials, and polynomials.

Scalars live in the reals extended with a bottom element (the stand-in for
minus infinity).  Addition is max, multiplication is ordinary addition, so a
polynomial evaluates to the max of finitely many affine functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class _Bottom:
    """Additive identity of the semiring; absorbing under multiplication."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"


#: Singleton bottom element.  Kept as a sentinel rather than -inf so that
#: ordinary float arithmetic can never turn it into a NaN.
BOTTOM = _Bottom()

TropicalScalar = float | _Bottom


def is_bottom(value: TropicalScalar) -> bool:
    return isinstance(value, _Bottom)


def trop_add(a: TropicalScalar, b: TropicalScalar) -> TropicalScalar:
    """Semiring sum: max of the operands, with bottom as identity."""
    if is_bottom(a):
        return b
    if is_bottom(b):
        return a
    return a if a >= b else b


def trop_mul(a: TropicalScalar, b: TropicalScalar) -> TropicalScalar:
    """Semiring product: ordinary addition, with bottom absorbing."""
    if is_bottom(a) or is_bottom(b):
        return BOTTOM
    return a + b


@dataclass(frozen=True)
class TropicalMonomial:
    """One term c + a1*x1 + ... + ad*xd with non-negative integer powers."""

    coeff: TropicalScalar
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(int(e) for e in self.exponents)
        if len(exps) < 1:
            raise ValueError("monomial needs at least one variable")
        if any(e < 0 for e in exps):
            raise ValueError(f"exponents must be non-negative, got {exps}")
        if any(float(e) != o for e, o in zip(exps, self.exponents)):
            raise ValueError("exponents must be integers")
        object.__setattr__(self, "exponents", exps)
        if not is_bottom(self.coeff):
            coeff = float(self.coeff)
            if math.isnan(coeff) or math.isinf(coeff):
                raise ValueError("coefficient must be finite or BOTTOM")
            object.__setattr__(self, "coeff", coeff)

    @property
    def dim(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class TropicalPolynomial:
    """Finite collection of monomials with pairwise distinct exponents."""

    monomials: tuple[TropicalMonomial, ...]

    def __post_init__(self) -> None:
        monos = tuple(self.monomials)
        if not monos:
            raise ValueError("polynomial needs at least one monomial")
        dims = {m.dim for m in monos}
        if len(dims) != 1:
            raise ValueError(f"mixed monomial dimensions: {sorted(dims)}")
        exps = [m.exponents for m in monos]
        if len(set(exps)) != len(exps):
            raise ValueError("duplicate exponent vectors")
        object.__setattr__(self, "monomials", monos)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[TropicalScalar, Sequence[int]]]
                   ) -> "TropicalPolynomial":
        return cls(tuple(TropicalMonomial(c, tuple(e)) for c, e in terms))

    @property
    def dim(self) -> int:
        return self.monomials[0].dim


def _check_point(dim: int, x: Sequence[float]) -> tuple[float, ...]:
    pt = tuple(float(v) for v in x)
    if len(pt) != dim:
        raise ValueError(f"dimension mismatch: point has {len(pt)}, expected {dim}")
    return pt


def monomial_eval(m: TropicalMonomial, x: Sequence[float]) -> TropicalScalar:
    """Value c + sum(a_i * x_i); bottom coefficient stays bottom."""
    pt = _check_point(m.dim, x)
    if is_bottom(m.coeff):
        return BOTTOM
    return m.coeff + sum(a * v for a, v in zip(m.exponents, pt))


def poly_eval(p: TropicalPolynomial, x: Sequence[float]) -> TropicalScalar:
    """Max over the values of all monomials at x."""
    pt = _check_point(p.dim, x)
    best: TropicalScalar = BOTTOM
    for m in p.monomials:
        best = trop_add(best, monomial_eval(m, pt))
    return best


def dominant_monomials(p: TropicalPolynomial, x: Sequence[float], tol: float = 1e-9) -> set[int]:
    """Indices of monomials within tol of the max at x.

    Two or more dominant monomials mean x sits on the locus where the
    polynomial is non-linear.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    pt = _check_point(p.dim, x)
    values = [monomial_eval(m, pt) for m in p.monomials]
    best: TropicalScalar = BOTTOM
    for v in values:
        best = trop_add(best, v)
    if is_bottom(best):
        return set(range(len(values)))
    return {i for i, v in enumerate(values) if not is_bottom(v) and best - v <= tol}


def newton_points(p: TropicalPolynomial) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials with a finite coefficient."""
    return [m.exponents for m in p.monomials if not is_bottom(m.coeff)]


def trop_poly_mul(p1: TropicalPolynomial, p2: TropicalPolynomial) -> TropicalPolynomial:
    """Product polynomial: all pairwise term products, duplicates merged by max."""
    if p1.dim != p2.dim:
        raise ValueError(f"dimension mismatch: {p1.dim} vs {p2.dim}")
    merged: dict[tuple[int, ...], TropicalScalar] = {}
    for a in p1.monomials:
        for b in p2.monomials:
            exp = tuple(u + v for u, v in zip(a.exponents, b.exponents))
            coeff = trop_mul(a.coeff, b.coeff)
            merged[exp] = trop_add(merged[exp], coeff) if exp in merged else coeff
    terms = sorted(merged.items())
    return TropicalPolynomial(tuple(TropicalMonomial(c, e) for e, c in terms))
