"""Exact Laurent series in one variable.

``LaurentSeries`` is a Laurent series in q with ``Fraction`` coefficients,
stored sparsely (exponent -> coefficient) with a precision bound:
coefficients at exponents < prec are known, the rest are O(q^prec), and
``prec=None`` means an exact Laurent polynomial.  ``qexp`` computes on
dense integer lists (``polynomials.mul_trunc``) and returns its series in
this type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional

from .errors import DomainError, PrecisionError
from .rationals import power

_INF = math.inf


def _cap(prec: Optional[int]):
    return _INF if prec is None else prec


class LaurentSeries:
    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs: Optional[Dict[int, Fraction]] = None,
                 prec: Optional[int] = None):
        cap = _cap(prec)
        cs: Dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c and e < cap:
                    cs[e] = c
        self.coeffs = cs
        self.prec = prec

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(prec: Optional[int] = None) -> "LaurentSeries":
        return LaurentSeries({}, prec)

    @staticmethod
    def one(prec: Optional[int] = None) -> "LaurentSeries":
        return LaurentSeries({0: Fraction(1)}, prec)

    @staticmethod
    def monomial(coeff, exp: int = 0,
                 prec: Optional[int] = None) -> "LaurentSeries":
        return LaurentSeries({exp: Fraction(coeff)}, prec)

    # -- basic queries ------------------------------------------------------

    @property
    def valuation(self):
        """Smallest exponent with nonzero (known) coefficient.

        For a series with no known nonzero terms this is the precision
        bound (or +infinity for the exact zero series).
        """
        if self.coeffs:
            return min(self.coeffs)
        return _cap(self.prec)

    def coeff(self, e: int) -> Fraction:
        if e >= _cap(self.prec):
            raise PrecisionError(
                f"coefficient of q^{e} requested but series known only to O(q^{self.prec})")
        return self.coeffs.get(e, Fraction(0))

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items())

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentSeries.monomial(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        cap = min(_cap(self.prec), _cap(o.prec))
        out = dict(self.coeffs)
        for e, c in o.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentSeries(out, None if cap == _INF else int(cap))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return LaurentSeries({e: -c for e, c in self.coeffs.items()}, self.prec)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not self.coeffs or not o.coeffs:
            cap = min(_cap(self.prec) + o.valuation, _cap(o.prec) + self.valuation)
            return LaurentSeries({}, None if cap == _INF else int(cap))
        cap = min(_cap(self.prec) + o.valuation, _cap(o.prec) + self.valuation)
        out: Dict[int, Fraction] = {}
        a, b = self.coeffs, o.coeffs
        if len(a) > len(b):
            a, b = b, a
        bitems = list(b.items())
        for e1, c1 in a.items():
            for e2, c2 in bitems:
                e = e1 + e2
                if e < cap:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentSeries(out, None if cap == _INF else int(cap))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "LaurentSeries":
        return power(self.inverse() if e < 0 else self, abs(e),
                     LaurentSeries.one(self.prec if e == 0 else None))

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by q^k."""
        return LaurentSeries({e + k: c for e, c in self.coeffs.items()},
                             None if self.prec is None else self.prec + k)

    def truncate(self, prec: int) -> "LaurentSeries":
        """Forget terms at exponents >= prec and set the precision there."""
        if _cap(self.prec) < prec:
            raise PrecisionError(
                f"cannot truncate O(q^{self.prec}) series at higher precision {prec}")
        return LaurentSeries(self.coeffs, prec)

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse.

        The result of inverting a series of valuation v known to O(q^p)
        is known to O(q^(p - 2v)).
        """
        if not self.coeffs:
            raise DomainError("cannot invert a series with no nonzero terms")
        v = self.valuation
        lead = self.coeffs[v]
        if self.prec is None and len(self.coeffs) == 1:
            return LaurentSeries({-v: 1 / lead})
        if self.prec is None:
            raise PrecisionError("inverse of an exact non-monomial series is "
                                 "not a Laurent polynomial; truncate first")
        nterms = self.prec - v          # relative coefficients a_0..a_{nterms-1}
        a = {e - v: c for e, c in self.coeffs.items()}
        akeys = sorted(a)
        r: Dict[int, Fraction] = {0: 1 / lead}
        for k in range(1, nterms):
            s = Fraction(0)
            for j in akeys:
                if j == 0:
                    continue
                if j > k:
                    break
                rc = r.get(k - j)
                if rc:
                    s += a[j] * rc
            if s:
                r[k] = -s / lead
        out = {k - v: c for k, c in r.items() if c}
        return LaurentSeries(out, self.prec - 2 * v)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs and self.prec == o.prec

    def __repr__(self):
        terms = ", ".join(f"{c}*q^{e}" for e, c in self.items()[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"LaurentSeries({terms}{tail}; O(q^{self.prec}))"
