"""The field Q(zeta_12), used by the tests' phi oracle.

zeta is a primitive twelfth root of unity with minimal polynomial
x^4 - x^2 + 1, so every element of Q(zeta_12) is stored on the basis
(1, zeta, zeta^2, zeta^3) with rational coordinates.  The library reads
phi off integer coordinates (words.PhiImage) and never calls this module.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .polynomials import mul_trunc
from .rationals import power


class Cyc12:
    """Element a + b*zeta + c*zeta^2 + d*zeta^3 of Q(zeta_12)."""

    __slots__ = ("c",)

    def __init__(self, a=0, b=0, c=0, d=0):
        self.c = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @staticmethod
    def zeta() -> "Cyc12":
        return Cyc12(0, 1, 0, 0)

    @staticmethod
    def zeta_pow(k: int) -> "Cyc12":
        return _ZETA_POWERS[k % 12]

    def _coerce(self, other):
        if isinstance(other, Cyc12):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc12(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Cyc12(*(x + y for x, y in zip(self.c, o.c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Cyc12(*(x - y for x, y in zip(self.c, o.c)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Cyc12(*(-x for x in self.c))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        conv = mul_trunc(self.c, o.c, 7)
        # reduce with zeta^4 = zeta^2 - 1, zeta^5 = zeta^3 - zeta, zeta^6 = -1
        r0 = conv[0] - conv[4] - conv[6]
        r1 = conv[1] - conv[5]
        r2 = conv[2] + conv[4]
        r3 = conv[3] + conv[5]
        return Cyc12(r0, r1, r2, r3)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc12":
        """Multiplicative inverse: the product of the other three Galois
        conjugates (zeta -> zeta^5, zeta^7, zeta^11) over the norm."""
        if self == 0:
            raise DomainError("zero is not invertible in Q(zeta_12)")
        rest = Cyc12(1)
        for k in (5, 7, 11):
            rest = rest * sum((x * Cyc12.zeta_pow(k * i) for i, x in enumerate(self.c)),
                              Cyc12(0))
        norm = (self * rest).c[0]
        return Cyc12(*(x / norm for x in rest.c))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int):
        return power(self.inverse() if e < 0 else self, abs(e), Cyc12(1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.c == o.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"Cyc12{self.c}"


_ZETA_POWERS = []
_z = Cyc12(1)
for _ in range(12):
    _ZETA_POWERS.append(_z)
    _z = _z * Cyc12.zeta()
del _z
