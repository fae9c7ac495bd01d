"""Division polynomials for the curve y^2 = x^3 - 1728.

psi_N, phi_N, omega_N give the multiplication-by-N map
[N](x, y) = (phi_N / psi_N^2, omega_N / psi_N^3).  Elements of the
coordinate ring are stored as pairs f(x) + g(x)*y with y^2 eliminated
via y^2 = x^3 - 1728.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .errors import DomainError, InternalConsistencyError
from .polynomials import UniPoly
from .rationals import padic_val, require_prime, split_power

B = -1728
CURVE = UniPoly([B, 0, 0, 1])          # x^3 - 1728  (= y^2)


def _div_exact(f: UniPoly, g: UniPoly) -> UniPoly:
    """Exact division of integer polynomials; errors if not exact."""
    q = f.map_coeffs(Fraction)
    out: List[Fraction] = [Fraction(0)] * max(0, q.degree - g.degree + 1)
    r = list(q.coeffs)
    lead = Fraction(g.coeffs[-1])
    dg = g.degree
    while len(r) - 1 >= dg:
        while r and not r[-1]:
            r.pop()
        if len(r) - 1 < dg:
            break
        c = r[-1] / lead
        shift = len(r) - 1 - dg
        out[shift] = c
        for i, gc in enumerate(g.coeffs):
            r[shift + i] -= c * gc
        r.pop()
    if any(r) or any(c.denominator != 1 for c in out):
        raise InternalConsistencyError("polynomial division expected to be exact")
    return UniPoly([int(c) for c in out])


def _scalar_div(f: UniPoly, d: int) -> UniPoly:
    if any(c % d for c in f.coeffs):
        raise InternalConsistencyError(f"coefficients not divisible by {d}")
    return UniPoly([c // d for c in f.coeffs])


class CurveElem:
    """f(x) + g(x)*y in Z[x,y]/(y^2 - x^3 + 1728)."""

    __slots__ = ("f", "g")

    def __init__(self, f: UniPoly = UniPoly(), g: UniPoly = UniPoly()):
        self.f = f
        self.g = g

    def __add__(self, o: "CurveElem") -> "CurveElem":
        return CurveElem(self.f + o.f, self.g + o.g)

    def __sub__(self, o: "CurveElem") -> "CurveElem":
        return CurveElem(self.f - o.f, self.g - o.g)

    def __mul__(self, o: "CurveElem") -> "CurveElem":
        return CurveElem(self.f * o.f + self.g * o.g * CURVE,
                         self.f * o.g + self.g * o.f)

    def square(self) -> "CurveElem":
        return self * self

    def div_y(self) -> "CurveElem":
        """Exact division by y: (f + g y)/y = g + (f/(x^3-1728)) y."""
        return CurveElem(self.g, _div_exact(self.f, CURVE))

    def div_int(self, d: int) -> "CurveElem":
        return CurveElem(_scalar_div(self.f, d), _scalar_div(self.g, d))

    def pure_x(self) -> UniPoly:
        if self.g:
            raise InternalConsistencyError("expected a pure x-polynomial")
        return self.f

    def __repr__(self):
        return f"CurveElem({self.f!r} + ({self.g!r})*y)"


_X = UniPoly([0, 1])
_Y = CurveElem(UniPoly(), UniPoly([1]))


@lru_cache(maxsize=None)
def _psi(n: int) -> CurveElem:
    """The n-th division polynomial as a curve element (n may be negative)."""
    if n < 0:
        p = _psi(-n)
        return CurveElem(-p.f, -p.g)
    if n == 0:
        return CurveElem()
    if n == 1:
        return CurveElem(UniPoly([1]))
    if n == 2:
        return CurveElem(UniPoly(), UniPoly([2]))                  # 2y
    if n == 3:
        return CurveElem(UniPoly([0, 12 * B, 0, 0, 3]))            # 3x^4 + 12bx
    if n == 4:
        # 4y(x^6 + 20bx^3 - 8b^2)
        return CurveElem(UniPoly(), UniPoly([-32 * B * B, 0, 0, 80 * B, 0, 0, 4]))
    m, rem = divmod(n, 2)
    if rem:
        return _psi(m + 2) * _psi(m).square() * _psi(m) \
            - _psi(m - 1) * _psi(m + 1).square() * _psi(m + 1)
    inner = _psi(m + 2) * _psi(m - 1).square() - _psi(m - 2) * _psi(m + 1).square()
    return (_psi(m) * inner).div_y().div_int(2)


@dataclass(frozen=True)
class DivisionTriple:
    """psi_N^2, phi_N (pure x), and omega_N = omega * y^y_parity."""

    N: int
    psiSq: UniPoly
    phiPol: UniPoly
    omega: Tuple[UniPoly, int]


def division_polynomials(N: int) -> DivisionTriple:
    if N < 1:
        raise DomainError(f"N must be a positive integer, got {N}")
    psi_sq = _psi(N).square().pure_x()
    phi_pol = (_X * psi_sq) - (_psi(N + 1) * _psi(N - 1)).pure_x()
    om = (_psi(N + 2) * _psi(N - 1).square()
          - _psi(N - 2) * _psi(N + 1).square()).div_y().div_int(4)
    parity = N % 2
    omega_poly = om.g.map_coeffs(int) if parity else om.f
    if (om.f if parity else om.g):
        raise InternalConsistencyError("omega has unexpected y-structure")
    if psi_sq.degree != N * N - 1 or psi_sq.coeffs[-1] != N * N:
        raise InternalConsistencyError("psi_N^2 degree/leading-term check failed")
    if phi_pol.degree != N * N or phi_pol.coeffs[-1] != 1:
        raise InternalConsistencyError("phi_N degree/leading-term check failed")
    return DivisionTriple(N, psi_sq, phi_pol, (omega_poly, parity))


def rescaled(N: int) -> Tuple[UniPoly, UniPoly]:
    """(psiHat, phiHat): psi_N^2(12X)/12^(N^2-1) and phi_N(12X)/12^(N^2).

    Both have integer coefficients.
    """
    if N < 2:
        raise DomainError(f"rescaled needs N >= 2, got {N}")
    triple = division_polynomials(N)
    n2 = N * N
    psi_hat = triple.psiSq.map_coeffs(Fraction).scale_arg(Fraction(12)) \
        * Fraction(1, 12 ** (n2 - 1))
    phi_hat = triple.phiPol.map_coeffs(Fraction).scale_arg(Fraction(12)) \
        * Fraction(1, 12 ** n2)
    for poly in (psi_hat, phi_hat):
        if any(c.denominator != 1 for c in poly.coeffs):
            raise InternalConsistencyError("rescaled polynomial is not integral")
    return psi_hat.map_coeffs(int), phi_hat.map_coeffs(int)


@dataclass(frozen=True)
class ReductionProfile:
    """p-adic valuation report for psi_N^2 (and psi_N itself)."""

    N: int
    p: int
    r: int                               # v_p(N)
    psi_sq_valuations: List              # v_p of coefficient of x^i, ascending
    psi_valuations: List                 # same for the x-part of psi_N
    supersingular: bool                  # p = 2 (mod 3), i.e. j = 0 supersingular
    supersingular_const: Optional[bool]  # N == p: psi_p constant mod p
    ordinary_tail: Optional[bool]        # N == p: p | a_i for i > (p^2-p)/2
    top_valuations_2r: bool              # v_p(b_{N^2-1-i}) = 2r for i < (p-1)/2


def reduction_profile(N: int, p: int) -> ReductionProfile:
    # the recurrences do not give division polynomials mod 2 or 3
    require_prime(p, 3)
    if N < 1:
        raise DomainError(f"N must be a positive integer, got {N}")
    triple = division_polynomials(N)
    b = triple.psiSq
    psi_part = _psi(N)
    psi_poly = psi_part.g if N % 2 == 0 else psi_part.f
    sq_vals = [padic_val(b[i], p) for i in range(b.degree + 1)]
    psi_vals = [padic_val(psi_poly[i], p) for i in range(psi_poly.degree + 1)]
    r = split_power(N, p)[0]
    supersingular = p % 3 == 2
    ss_const = ord_tail = None
    if N == p:
        if supersingular:
            ss_const = all(v >= 1 for v in psi_vals[1:])
        else:
            ord_tail = all(v >= 1 for i, v in enumerate(psi_vals)
                           if i > (p * p - p) // 2)
    # the leading coefficient N^2 has valuation exactly 2r; coefficients just
    # below can vanish on this curve (CM sparsity), so they are only bounded
    top_ok = sq_vals[N * N - 1] == 2 * r and all(
        sq_vals[N * N - 1 - i] >= 2 * r
        for i in range(1, (p - 1) // 2) if N * N - 1 - i >= 0)
    return ReductionProfile(N, p, r, sq_vals, psi_vals, supersingular,
                            ss_const, ord_tail, top_ok)
