"""Test oracle: division polynomials computed on y^2 = x^3 - 1728 itself.

``phicong.divpoly`` runs the elliptic divisibility recursion on the twist
Y^2 = X^3 - 1 and maps the result back to this curve.  This is the
recursion as it stood before, with B = -1728 throughout, so its
coefficients are about 4.5 times longer; ``rescaled`` takes psi_N^2 and
phi_N at x = 12X apart again by exact divisions by powers of 12.  The
code is kept as it was, apart from ``UniPoly`` and ``scale_arg``, which
now live in ``ring_poly``; ``phicong.divpoly`` returns int tuples, the
coefficients of these.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Tuple

from phicong.errors import DomainError, InternalConsistencyError

from ring_poly import UniPoly, scale_arg

B = -1728
#: Largest N, the same as phicong.divpoly's.
MAX_LEVEL = 42
_F = UniPoly([4 * B, 0, 0, 4])         # (2y)^2 = 4(x^3 - 1728)
_F2 = _F * _F
_BASE = (UniPoly(), UniPoly([1]), UniPoly([1]),                   # f_0 .. f_4
         UniPoly([0, 12 * B, 0, 0, 3]),                   # 3x^4 + 12Bx
         UniPoly([-16 * B * B, 0, 0, 40 * B, 0, 0, 2]))   # 2(x^6 + 20Bx^3 - 8B^2)


def _scalar_div(f: UniPoly, d: int) -> UniPoly:
    if any(c % d for c in f.coeffs):
        raise InternalConsistencyError(f"coefficients not divisible by {d}")
    return UniPoly([c // d for c in f.coeffs])


@lru_cache(maxsize=None)
def _f(n: int) -> UniPoly:
    """psi_n for odd n and psi_n / 2y for even n (n may be negative).

    The elliptic divisibility recursion, with each psi of even index
    written 2y f: the odd step carries F^2 on its even-index product, and
    in the even step the (2y)^2 cancels.
    """
    if n < 0:
        return -_f(-n)
    if n < len(_BASE):
        return _BASE[n]
    m, odd = divmod(n, 2)
    if odd:
        a = _f(m + 2) * _f(m) * _f(m) * _f(m)
        b = _f(m - 1) * _f(m + 1) * _f(m + 1) * _f(m + 1)
        return a * _F2 - b if m % 2 == 0 else a - b * _F2
    return _f(m) * (_f(m + 2) * _f(m - 1) * _f(m - 1)
                    - _f(m - 2) * _f(m + 1) * _f(m + 1))


class DivisionTriple(NamedTuple):
    """psi_N^2, phi_N (pure x), and omega_N = omega * y^y_parity."""

    N: int
    psiSq: UniPoly
    phiPol: UniPoly
    omega: Tuple[UniPoly, int]


def _psi_sq(N: int) -> UniPoly:
    """psi_N^2 = f_N^2, times F = (2y)^2 for even N."""
    if N > MAX_LEVEL:
        raise DomainError(f"N must be at most {MAX_LEVEL}, got {N}")
    sq = _f(N) * _f(N)
    if N % 2 == 0:
        sq = sq * _F
    if sq.degree != N * N - 1 or sq.coeffs[-1] != N * N:
        raise InternalConsistencyError("psi_N^2 degree/leading-term check failed")
    return sq


def _phi_pol(N: int, psi_sq: UniPoly) -> UniPoly:
    """phi_N = x psi_N^2 - psi_{N+1} psi_{N-1}, given psi_sq = psi_N^2."""
    cross = _f(N + 1) * _f(N - 1)               # psi_{N+1} psi_{N-1}, up to F
    if N % 2:
        cross = cross * _F
    phi_pol = UniPoly([0] + psi_sq.coeffs) - cross
    if phi_pol.degree != N * N or phi_pol.coeffs[-1] != 1:
        raise InternalConsistencyError("phi_N degree/leading-term check failed")
    return phi_pol


def division_polynomials(N: int) -> DivisionTriple:
    if N < 1:
        raise DomainError(f"N must be a positive integer, got {N}")
    psi_sq = _psi_sq(N)
    phi_pol = _phi_pol(N, psi_sq)
    # (psi_{N+2} psi_{N-1}^2 - psi_{N-2} psi_{N+1}^2) / 4y is y times this
    # for odd N and half of it for even N
    omega = (_f(N + 2) * _f(N - 1) * _f(N - 1)
             - _f(N - 2) * _f(N + 1) * _f(N + 1))
    if N % 2 == 0:
        omega = _scalar_div(omega, 2)
    return DivisionTriple(N, psi_sq, phi_pol, (omega, N % 2))


def rescaled(N: int) -> Tuple[UniPoly, UniPoly]:
    """(psiHat, phiHat): psi_N^2(12X)/12^(N^2-1) and phi_N(12X)/12^(N^2).

    Both have integer coefficients.
    """
    if N < 2:
        raise DomainError(f"rescaled needs N >= 2, got {N}")
    psi_sq = _psi_sq(N)
    n2 = N * N
    return (_scalar_div(scale_arg(psi_sq, 12), 12 ** (n2 - 1)),
            _scalar_div(scale_arg(_phi_pol(N, psi_sq), 12), 12 ** n2))
