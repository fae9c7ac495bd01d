"""Dense univariate polynomials, coefficients lowest degree first.

Coefficients can be any ring elements supporting +, -, * (ints, Fractions,
Laurent series, ...).  The trailing coefficient is kept nonzero.
``mul_trunc`` is the one dense product: of two polynomials here, of two
elements of Q(zeta_12) before reduction, and of two integer power series
in ``qexp``.
"""

from __future__ import annotations

from typing import List, Sequence

from .rationals import power


def mul_trunc(a: Sequence, b: Sequence, n: int) -> List:
    """Coefficients of a*b below X^n, for dense coefficient lists a and b
    (lowest degree first); schoolbook, skipping zero coefficients of both."""
    out = [0] * n
    terms = [(j, y) for j, y in enumerate(b[:n]) if y]
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in terms:
                k = i + j
                if k >= n:
                    break
                out[k] += x * y
    return out


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
