"""Test oracle: phi evaluated as 2x2 matrices over Q(zeta_12), and G_p
membership by reduction into F_p^2.

The library keeps phi only in (u, v) coordinates and reads every
membership test off them.  This module recomputes the same answers the
long way round, with none of that coordinate arithmetic: it multiplies
the generator matrices out, decomposes the product, and for G_p reduces
the entries of Z[zeta] modulo a prime above p.
"""

from functools import lru_cache
from typing import Tuple

from phicong.cyclotomic import Cyc12
from phicong.errors import DomainError, UnsupportedPrimeError
from phicong.words import PhiImage, SubgroupSpec, Word
from ring_matrix import Matrix, eval_word

PHI_S = Matrix([[Cyc12(0, 0, 0, -1), Cyc12(1)],
                [Cyc12(0), Cyc12(0, 0, 0, 1)]])
PHI_T = Matrix([[Cyc12(0, 1), Cyc12(0)],
                [Cyc12(0), Cyc12(0, 1).inverse()]])


def phi_matrix(w: Word) -> Matrix:
    return eval_word(w, PHI_S, PHI_T)


def image_matrix(img: PhiImage) -> Matrix:
    """The matrix (u, u*v; 0, 1/u) that img stands for."""
    u = Cyc12.zeta_pow(img.u_exp)
    v = Cyc12(0, img.v[0], 0, img.v[1])
    return Matrix([[u, u * v], [Cyc12(0), 1 / u]])


def _v_coords(v: Cyc12) -> Tuple[int, int]:
    a, b, c, d = v.c
    assert a == 0 and c == 0 and b.denominator == 1 and d.denominator == 1, v
    return int(b), int(d)


def phi_by_matrices(w: Word) -> PhiImage:
    """Decompose the matrix product as (u, u*v; 0, 1/u)."""
    m = phi_matrix(w)
    a, b = m.rows[0]
    c, d = m.rows[1]
    assert c == 0 and a * d == 1
    u_exp = next(k for k in range(12) if Cyc12.zeta_pow(k) == a)
    return PhiImage(u_exp, _v_coords(d * b))


def member_by_matrices(m: Matrix, spec: SubgroupSpec) -> bool:
    """Membership of the word whose phi-matrix is m, read off its entries;
    G_p through F_p^2."""
    u, uv = m.rows[0]
    v = u.inverse() * uv
    n = spec.n
    if spec.kind == "Gp":
        return reduce_cyc(u, n) ** 4 == 1 and reduce_cyc(v, n).in_prime_field()
    unimodular = u ** 2 == 1
    v_div = v == 0 if n is None else all(x.numerator % n == 0 for x in v.c)
    if spec.kind == "GammaPrime":
        return unimodular
    if spec.kind in ("GammaDoublePrime", "GammaPrimeN"):
        return unimodular and v_div
    if spec.kind == "PhiCong":
        return v_div and all(x.numerator % n == 0 for x in (u - 1).c)
    raise DomainError(spec.kind)


@lru_cache(maxsize=None)
def quadratic_factor(p: int) -> Tuple[int, int]:
    """Lexicographically smallest irreducible quadratic factor of
    x^4 - x^2 + 1 over F_p, as coefficients (g0, g1) of x^2 + g1*x + g0.

    Requires p = 5 (mod 12), which forces a factorization into two
    irreducible quadratics.
    """
    if p % 12 != 5:
        raise UnsupportedPrimeError(f"p = {p} is not 5 mod 12")
    for g0 in range(p):
        for g1 in range(p):
            # remainder of x^4 - x^2 + 1 modulo x^2 + g1 x + g0,
            # by long division with coefficients highest-first
            c = [1, 0, -1, 0, 1]
            for i in range(3):
                lead = c[i] % p
                if lead:
                    c[i + 1] = (c[i + 1] - lead * g1) % p
                    c[i + 2] = (c[i + 2] - lead * g0) % p
                c[i] = 0
            if c[3] % p == 0 and c[4] % p == 0:
                return g0, g1
    raise UnsupportedPrimeError(f"x^4 - x^2 + 1 has no quadratic factor mod {p}")


class Fp2Elem:
    """Element a + b*u of F_p[u]/(u^2 + g1*u + g0)."""

    __slots__ = ("a", "b", "p", "g0", "g1")

    def __init__(self, a: int, b: int, p: int, g0: int, g1: int):
        self.a = a % p
        self.b = b % p
        self.p = p
        self.g0 = g0
        self.g1 = g1

    def _like(self, a, b):
        return Fp2Elem(a, b, self.p, self.g0, self.g1)

    def _coerce(self, other):
        if isinstance(other, Fp2Elem):
            return other
        if isinstance(other, int):
            return self._like(other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._like(self.a + o.a, self.b + o.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._like(self.a - o.a, self.b - o.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # (a1 + b1 u)(a2 + b2 u) with u^2 = -g1 u - g0
        bb = self.b * o.b
        return self._like(
            self.a * o.a - bb * self.g0,
            self.a * o.b + self.b * o.a - bb * self.g1,
        )

    def inverse(self) -> "Fp2Elem":
        if self.a == 0 and self.b == 0:
            raise DomainError("zero is not invertible")
        return self ** (self.p ** 2 - 2)            # the field has p^2 elements

    def __pow__(self, e: int):
        base = self.inverse() if e < 0 else self
        e = abs(e)
        acc = self._like(1, 0)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def in_prime_field(self) -> bool:
        return self.b == 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._like(other, 0)
        return (
            isinstance(other, Fp2Elem)
            and self.p == other.p
            and self.a == other.a
            and self.b == other.b
        )

    def __repr__(self):
        return f"Fp2Elem({self.a} + {self.b}u mod {self.p})"


def reduce_cyc(z: Cyc12, p: int) -> Fp2Elem:
    """Ring homomorphism Z[zeta] -> F_p^2 for p = 5 (mod 12).

    zeta maps to the root u of the chosen quadratic factor of x^4 - x^2 + 1.
    Coefficients must be p-integral.
    """
    g0, g1 = quadratic_factor(p)
    out = Fp2Elem(0, 0, p, g0, g1)
    u = Fp2Elem(0, 1, p, g0, g1)
    upow = Fp2Elem(1, 0, p, g0, g1)
    for coeff in z.c:
        if coeff.denominator % p == 0:
            raise DomainError(f"coefficient {coeff} is not {p}-integral")
        c = coeff.numerator * pow(coeff.denominator, -1, p)
        out = out + upow * (c % p)
        upow = upow * u
    return out
