"""Dense univariate polynomials, coefficients lowest degree first.

Coefficients can be any ring elements supporting +, -, * (ints, Fractions,
Laurent series, ...).  The trailing coefficient is kept nonzero.
"""

from __future__ import annotations

from typing import Sequence


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
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in terms:
                        out[i + j] = out[i + j] + a * b
            return UniPoly(out)
        return UniPoly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UniPoly":
        acc = UniPoly([1])
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def scale_arg(self, s) -> "UniPoly":
        """p(s*X): multiply coefficient i by s^i."""
        out, f = [], 1
        for c in self.coeffs:
            out.append(c * f)
            f = f * s
        return UniPoly(out)

    def evaluate(self, x):
        """Horner evaluation; works for any argument ring."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, f) -> "UniPoly":
        return UniPoly([f(c) for c in self.coeffs])

    def __repr__(self):
        return f"UniPoly({self.coeffs})"
