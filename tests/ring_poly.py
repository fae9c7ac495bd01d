"""Dense univariate polynomials over any ring, for the tests.

``UniPoly`` keeps its coefficients (ints, Fractions, Laurent series, ...)
lowest degree first, the trailing one nonzero; ``phicong.divpoly`` works
on int tuples instead.  Next to it: Horner evaluation at an element of
any ring, a map of the coefficients (the tests lift integer polynomials
to Fraction ones), and the substitution X -> sX that ``divpoly_oracle``
rescales by."""

from __future__ import annotations

from typing import Sequence

from phicong.polynomials import mul_trunc
from phicong.rationals import power


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self or not other:
                return UniPoly()
            a, b = self.coeffs, other.coeffs
            return UniPoly(mul_trunc(a, b, len(a) + len(b) - 1))
        return UniPoly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UniPoly":
        return power(self, e, UniPoly([1]))

    def __repr__(self):
        return f"UniPoly({self.coeffs})"


def evaluate(poly: UniPoly, x):
    """Horner evaluation; works for any argument ring."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def map_coeffs(poly: UniPoly, f) -> UniPoly:
    return UniPoly([f(c) for c in poly.coeffs])


def scale_arg(poly: UniPoly, s) -> UniPoly:
    """p(s*X): multiply coefficient i by s^i."""
    out, f = [], 1
    for c in poly.coeffs:
        out.append(c * f)
        f = f * s
    return UniPoly(out)
