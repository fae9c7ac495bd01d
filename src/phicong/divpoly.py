"""Division polynomials for the curve y^2 = x^3 - 1728, in Z[x].

psi_N, phi_N, omega_N give the multiplication-by-N map
[N](x, y) = (phi_N / psi_N^2, omega_N / psi_N^3) (Washington, *Elliptic
Curves*, section 3.2).  psi_n is a polynomial in x for odd n and 2y times
one for even n, so one integer sequence f_n (psi_n, or psi_n / 2y) carries
them all.  The 2y factors pair up into F = (2y)^2 = 4(x^3 + B), so the
recursion never divides.

The recursion runs on the twist E': Y^2 = X^3 - 1 (B = -1), whose
coefficients are about 4.5 times shorter.  (x, y) = (u^2 X, u^3 Y) with
u^2 = 12 maps E' to the curve, and an output f of degree d (psi_N^2,
phi_N, or omega_N over y^(N mod 2)) has f(12X) = 12^d f'(X), f' the same
output on E' (Washington, section 3.2).  So ``rescaled`` is f' as it is,
``_untwist`` multiplies coefficient i of f' by 12^(d - i), and for p > 3,
where 12 is a unit, f and f' have the same p-adic valuations.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import zip_longest
from typing import List, NamedTuple, Optional, Tuple

from .errors import InternalConsistencyError
from .polynomials import mul_trunc
from .rationals import padic_val, require_int, require_prime, split_power

#: Integer coefficients, lowest degree first: tuples, as ``_f`` shares them.
Poly = Tuple[int, ...]

B = -1


def _mul(*fs: Poly) -> Poly:
    """The product of fs; () is the zero polynomial."""
    return reduce(lambda a, b: tuple(mul_trunc(a, b, len(a) + len(b) - 1))
                  if a and b else (), fs)


def _sub(a: Poly, b: Poly) -> Poly:
    """a - b, its zero leading coefficients dropped."""
    d = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while d and not d[-1]:
        d.pop()
    return tuple(d)


_F = (4 * B, 0, 0, 4)                  # (2Y)^2 = 4(X^3 - 1)
_F2 = _mul(_F, _F)
_BASE = ((), (1,), (1,),                                   # f_0 .. f_4
         (0, 12 * B, 0, 0, 3),                             # 3X^4 + 12BX
         (-16 * B * B, 0, 0, 40 * B, 0, 0, 2))             # 2(X^6 + 20BX^3 - 8B^2)


def _untwist(f: Poly) -> Poly:
    """f' on E' to f on y^2 = x^3 - 1728: coefficient i times 12^(deg - i)."""
    return tuple(c * 12 ** (len(f) - 1 - i) for i, c in enumerate(f))


@lru_cache(maxsize=None)
def _f(n: int) -> Poly:
    """psi_n for odd n and psi_n / 2y for even n (n may be negative).

    The elliptic divisibility recursion, with each psi of even index
    written 2y f: the odd step carries F^2 on its even-index product, and
    in the even step the (2y)^2 cancels.
    """
    if n < 0:
        return tuple(-c for c in _f(-n))
    if n < len(_BASE):
        return _BASE[n]
    m, odd = divmod(n, 2)
    if odd:
        a = _mul(_f(m + 2), _f(m), _f(m), _f(m))
        b = _mul(_f(m - 1), _f(m + 1), _f(m + 1), _f(m + 1))
        return _sub(_mul(a, _F2), b) if m % 2 == 0 else _sub(a, _mul(b, _F2))
    return _mul(_f(m), _g(m))


def _g(m: int) -> Poly:
    """f_{m+2} f_{m-1}^2 - f_{m-2} f_{m+1}^2, which is f_2m / f_m."""
    return _sub(_mul(_f(m + 2), _f(m - 1), _f(m - 1)),
                _mul(_f(m - 2), _f(m + 1), _f(m + 1)))


class DivisionTriple(NamedTuple):
    """psi_N^2, phi_N (pure x), and omega_N = omega * y^y_parity."""

    psiSq: Poly
    phiPol: Poly
    omega: Tuple[Poly, int]


@lru_cache(maxsize=1)
def _psi_sq(N: int) -> Poly:
    """psi_N^2 = f_N^2, times F = (2y)^2 for even N.  The last one is kept:
    ``reduction_profile`` reads the one its verb call just built."""
    sq = _mul(_f(N), _f(N), _F) if N % 2 == 0 else _mul(_f(N), _f(N))
    if len(sq) != N * N or sq[-1] != N * N:
        raise InternalConsistencyError("psi_N^2 degree/leading-term check failed")
    return sq


def _phi_pol(N: int, psi_sq: Poly) -> Poly:
    """phi_N = x psi_N^2 - psi_{N+1} psi_{N-1}, given psi_sq = psi_N^2."""
    # psi_{N+1} psi_{N-1}: f_{N+1} f_{N-1}, times F for odd N
    cross = _mul(_f(N + 1), _f(N - 1), _F) if N % 2 else _mul(_f(N + 1), _f(N - 1))
    phi_pol = _sub((0,) + psi_sq, cross)
    if len(phi_pol) != N * N + 1 or phi_pol[-1] != 1:
        raise InternalConsistencyError("phi_N degree/leading-term check failed")
    return phi_pol


def division_polynomials(N: int) -> DivisionTriple:
    require_int(N, "N", 1)
    psi_sq = _psi_sq(N)
    phi_pol = _phi_pol(N, psi_sq)
    # (psi_{N+2} psi_{N-1}^2 - psi_{N-2} psi_{N+1}^2) / 4y is y times this
    # for odd N and half of it for even N
    omega = _g(N)
    if N % 2 == 0:
        if any(c % 2 for c in omega):
            raise InternalConsistencyError("omega_N has an odd coefficient")
        omega = tuple(c // 2 for c in omega)
    return DivisionTriple(_untwist(psi_sq), _untwist(phi_pol),
                          (_untwist(omega), N % 2))


def rescaled(N: int) -> Tuple[Poly, Poly]:
    """(psiHat, phiHat): psi_N^2(12X)/12^(N^2-1) and phi_N(12X)/12^(N^2),
    which are psi'_N^2 and phi'_N of E'."""
    require_int(N, "N", 2)
    psi_sq = _psi_sq(N)
    return psi_sq, _phi_pol(N, psi_sq)


class ReductionProfile(NamedTuple):
    """p-adic valuation report for psi_N^2 (and psi_N itself)."""

    r: int                               # v_p(N)
    psi_sq_valuations: List              # v_p of the coefficients, x^0 up; None for 0
    supersingular: bool                  # p = 2 (mod 3), i.e. j = 0 supersingular
    supersingular_const: Optional[bool]  # N == p: psi_p constant mod p
    ordinary_tail: Optional[bool]        # N == p: p | a_i for i > (p^2-p)/2
    top_valuations_2r: bool              # v_p(b_{N^2-1-i}) = 2r for i < (p-1)/2


def reduction_profile(N: int, p: int) -> ReductionProfile:
    # the recurrences do not give division polynomials mod 2 or 3
    require_prime(p, 3)
    require_int(N, "N", 1)
    # psi_N is 2y f_N for even N, and 2 f_N has f_N's valuations at p > 3
    sq, psi = _psi_sq(N), _f(N)
    sq_vals = [padic_val(c, p) for c in sq]
    r = split_power(N, p)[0]
    supersingular = p % 3 == 2
    ss_const = ord_tail = None
    if N == p:
        if supersingular:
            ss_const = all(c % p == 0 for c in psi[1:])
        else:
            ord_tail = all(c % p == 0 for c in psi[(p * p - p) // 2 + 1:])
    # the leading coefficient N^2 has valuation exactly 2r; coefficients just
    # below can vanish on this curve (CM sparsity), so they are only bounded;
    # i stops at the N^2 coefficients there are, so no step grows with p
    top_ok = sq_vals[N * N - 1] == 2 * r and all(
        sq[N * N - 1 - i] % p ** (2 * r) == 0
        for i in range(1, min((p - 1) // 2, N * N)))
    return ReductionProfile(r, sq_vals, supersingular, ss_const, ord_tail, top_ok)
