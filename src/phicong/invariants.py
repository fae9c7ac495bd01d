"""Elliptic-point counts, cusp data, genus, surjectivity, and dimension
formulas.

Covers both families.  For the symplectic point stabilizers each number
is one closed form: chi(rho(T)^d), in x^2 mod p at any x with y = 1/x;
the cusp widths, the cycle type of rho(T), as a table in m = ord(x^2)
(_cusp_data), whose proof is the Moebius inversion of chi; epsilon_2 and
epsilon_3 (from rationals, at every x); the genus by Riemann-Hurwitz
from them; and the lifting witness.  README proves each ("How fixed
Lagrangians are counted"); the tests hold them against the inversion and
the matrix computations they replaced (tests/geometry_oracle.py).  The
order of <rho(S), rho(T)> is a table in x^2 mod p (surjectivity_verdict,
README "How surjectivity is certified"), held against the routes and the
certificate it replaced (tests/routes_oracle.py, certificate_oracle.py).
For the quasi-unipotent family: the dimension formulas for M_2k / S_2k.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from .errors import DomainError
from .rationals import (elliptic_counts, grassmannian_size, legendre, multiplicative_order,
                        require_gp_prime, require_int, require_prime, sp4_order)


def chi_power(params, d: int) -> int:
    """chi(rho(T)^d), the number of Lagrangians fixed by rho(T)^d, at the
    SpParams params with y = 1/x (DomainError for any other y); d must
    divide p(p-1).

    rho(T)^d is semisimple when p | d or x^2 = -1.  Then it fixes all of
    X(F_p) when x^(2d) = 1, and p+3 planes otherwise.  Else it fixes 1 at
    x^2 = 1, 2p+1 for any other x with x^(2d) = 1, and 3 otherwise
    (README, "How fixed Lagrangians are counted").
    """
    params.require_y_inverse("the fixed planes are counted")
    p = params.p
    n = p * (p - 1)
    if not isinstance(d, int) or d < 1 or n % d != 0:
        raise DomainError(f"d = {d} does not divide p(p-1) = {n}")
    sq = params.x * params.x % p
    semisimple = d % p == 0 or sq == p - 1
    if pow(sq, d, p) == 1:
        return grassmannian_size(p) if semisimple else 1 if sq == 1 else 2 * p + 1
    return p + 3 if semisimple else 3


class CuspData(NamedTuple):
    total: int
    widths: Dict[int, int]

    def width_sum(self) -> int:
        return sum(w * m for w, m in self.widths.items())


def _cusp_data(p: int, m: int) -> CuspData:
    """The cusp widths at m = ord(x^2) mod p, with n = |X(F_p)| and
    k = (p-1)/2m: 1 of width 1 and (n-1)/p of width p for m = 1; p+3 of
    width 1 and (n-p-3)/2 of width 2 for m = 2; else 3 of width 1, 4k of
    width m, 1 of width p and (2p+4)k of width pm."""
    n = grassmannian_size(p)
    if m == 1:
        widths = {1: 1, p: (n - 1) // p}
    elif m == 2:
        widths = {1: p + 3, 2: (n - p - 3) // 2}
    else:
        k = (p - 1) // (2 * m)
        widths = {1: 3, m: 4 * k, p: 1, p * m: (2 * p + 4) * k}
    return CuspData(sum(widths.values()), widths)


def cusp_data_cycles(params) -> CuspData:
    """The cusp data of the point stabilizer at any SpParams with y = 1/x:
    the table at m = ord(x^2) (DomainError for any other y)."""
    params.require_y_inverse("the fixed planes are counted")
    p = params.p
    return _cusp_data(p, multiplicative_order(params.x * params.x % p, p))


def cusp_data_character(p: int) -> CuspData:
    """The cusp data of the point stabilizer when x is a primitive root,
    m = (p-1)/2: 3 cusps of width 1, 4 of (p-1)/2, 1 of p and 2p+4 of
    p(p-1)/2."""
    require_prime(p, 7)
    return _cusp_data(p, (p - 1) // 2)


def genus_pointstab(p: int) -> int:
    """Genus of the point-stabilizer curve by Riemann-Hurwitz:
    12g = 12 + |X(F_p)| - 3 eps2 - 4 eps3 - 6c, c the number of cusps."""
    eps2, eps3 = elliptic_counts(p)
    c = cusp_data_character(p).total
    return (12 + grassmannian_size(p) - 3 * eps2 - 4 * eps3 - 6 * c) // 12


def lift_witness_mod_p2(params) -> bool:
    """Whether rho(T)^(p(p-1)) over Z/p^2 is trivial mod p but not mod p^2,
    at the SpParams params with y = 1/x mod p (DomainError for any other
    y): exactly when x^2 != -1 (mod p), README proves."""
    params.require_y_inverse("the lifting witness is decided")
    return (params.x * params.x + 1) % params.p != 0


class SurjectivityVerdict(NamedTuple):
    order_T: int                 # matrix order of rho(T) in Sp4(F_p)
    perm_group_order: int        # order of <rho(S), rho(T)> acting on X(F_p)
    surjective_psp4: bool        # perm_group_order == |Sp4(F_p)| / 2


def surjectivity_verdict(params) -> SurjectivityVerdict:
    """The verdict at the SpParams params with y = 1/x, read off x^2 mod p
    by the table that README proves ("How surjectivity is certified"): on
    X(F_p), where -I = rho(S)^2 acts trivially, the order is p(p^2 - 1)/2
    for x^2 = 1, 6 for x^2 = -1, 3p^4(p^2 - 1)/2 for x^4 + x^2 + 1 = 0, and
    |Sp4(F_p)|/2 for any other x.  rho(T) has order 4 for x^2 = -1 and
    p ord(x) otherwise.  An explicit y with x y != 1 (mod p) is refused
    (DomainError)."""
    params.require_y_inverse("surjectivity is decided")
    p = params.p
    x = params.x % p
    sq = x * x % p
    sl2 = p * (p * p - 1)               # |SL2(F_p)|
    psp4 = sp4_order(p) // 2
    order_T = 4 if sq == p - 1 else p * multiplicative_order(x, p)
    if sq == 1:
        order = sl2 // 2
    elif sq == p - 1:
        order = 6
    elif (sq * sq + sq + 1) % p == 0:
        order = 3 * p ** 3 * sl2 // 2
    else:
        order = psp4
    return SurjectivityVerdict(order_T, order, order == psp4)


class DimsUnipotent(NamedTuple):
    dim_M: int           # dim M_2k(G) = k * index
    dim_M_char: int      # per-character: k
    dim_S_char: int      # per-character cusp forms
    dim_eis_char: int    # per-character Eisenstein complement


def dims_unipotent(k: int, index_in_gamma_prime: int,
                   character_trivial: bool) -> DimsUnipotent:
    require_int(k, "k", 1)
    require_int(index_in_gamma_prime, "index", 1)
    dim_s_char = k - 1 if k > 1 else 1 if character_trivial else 0
    return DimsUnipotent(k * index_in_gamma_prime, k, dim_s_char, k - dim_s_char)


class DimsGp(NamedTuple):
    dim_M: int             # kp/2 + 1 - (3/2 if k odd)
    genus: int             # 0
    cusps: int             # (p+1)/2
    elliptic2: int         # 3 elliptic points of order 2


def dims_Gp(k: int, p: int) -> DimsGp:
    require_gp_prime(p)
    require_int(k, "k", 1)
    return DimsGp((k * p + 2 - (3 if k % 2 else 0)) // 2, 0, (p + 1) // 2, 3)
