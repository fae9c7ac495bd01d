"""Residues mod m and the field Q(zeta_12).

zeta is a primitive twelfth root of unity with minimal polynomial
x^4 - x^2 + 1, so every element of Q(zeta_12) is stored on the basis
(1, zeta, zeta^2, zeta^3) with rational coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


class ModInt:
    """Residue class modulo a fixed integer m (m prime, or p^2 for lifting)."""

    __slots__ = ("v", "m")

    def __init__(self, v: int, m: int):
        self.v = v % m
        self.m = m

    def _coerce(self, other) -> "ModInt":
        if isinstance(other, ModInt):
            if other.m != self.m:
                raise DomainError("mixed moduli")
            return other
        if isinstance(other, int):
            return ModInt(other, self.m)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ModInt(self.v + o.v, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ModInt(self.v - o.v, self.m)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ModInt(self.v * o.v, self.m)

    __rmul__ = __mul__

    def __neg__(self):
        return ModInt(-self.v, self.m)

    def inverse(self) -> "ModInt":
        return ModInt(pow(self.v, -1, self.m), self.m)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return ModInt(pow(pow(self.v, -1, self.m), -e, self.m), self.m)
        return ModInt(pow(self.v, e, self.m), self.m)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.m
        return isinstance(other, ModInt) and self.m == other.m and self.v == other.v

    def __hash__(self):
        return hash((self.v, self.m))

    def __repr__(self):
        return f"ModInt({self.v}, {self.m})"


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
        a, b = self.c, o.c
        conv = [Fraction(0)] * 7
        for i in range(4):
            if a[i]:
                for j in range(4):
                    conv[i + j] += a[i] * b[j]
        # reduce with zeta^4 = zeta^2 - 1, zeta^5 = zeta^3 - zeta, zeta^6 = -1
        r0 = conv[0] - conv[4] - conv[6]
        r1 = conv[1] - conv[5]
        r2 = conv[2] + conv[4]
        r3 = conv[3] + conv[5]
        return Cyc12(r0, r1, r2, r3)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc12":
        """Multiplicative inverse, by solving the 4x4 system z*w = 1."""
        if self == 0:
            raise DomainError("zero is not invertible in Q(zeta_12)")
        cols = [(self * Cyc12.zeta_pow(j)).c for j in range(4)]
        # rows of the multiplication-by-z matrix; solve M x = e0
        aug = [[cols[j][i] for j in range(4)] + [Fraction(1 if i == 0 else 0)]
               for i in range(4)]
        n = 4
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return Cyc12(*(aug[i][4] for i in range(4)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int):
        base = self.inverse() if e < 0 else self
        e = abs(e)
        acc = Cyc12(1)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

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
