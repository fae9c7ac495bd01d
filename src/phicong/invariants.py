"""Elliptic-point counts, cusp data, genus, and dimension formulas.

Covers both families.  For the symplectic point stabilizers each number
is one closed form in p: chi(T^d), the cusp widths when x is a primitive
root, epsilon_2 and epsilon_3 (from rationals, at every x), and the genus
by Riemann-Hurwitz from them.  The one computation is cusp_data_cycles,
the Moebius inversion (cusp_data_fixed) of the counted fixed points of
rho(T)'s powers at any x, which the tests hold the closed forms against.
For the quasi-unipotent family: the dimension formulas for M_2k / S_2k.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

from .errors import DomainError, InternalConsistencyError
from .rationals import (elliptic_counts, factorize, grassmannian_size, legendre,
                        require_gp_prime, require_int, require_prime)


def _divisors_moebius(factors: Dict[int, int]) -> List[Tuple[int, int]]:
    """(d, mu(d)) for every divisor d of the n factorized as {prime: exponent}."""
    pairs = [(1, 1)]
    for q, e in factors.items():
        pairs = [(d * q ** k, mu * (1, -1, 0)[min(k, 2)])
                 for d, mu in pairs for k in range(e + 1)]
    return pairs


def chi_power(p: int, d: int) -> int:
    """chi(T^d), the number of Lagrangians fixed by rho(T)^d.

    d must divide p(p-1).  The value depends only on the conjugacy class
    of T^d: 3 for 1 <= d < (p-1)/2 prime to p; 2p+1 at d = (p-1)/2 and
    d = p-1; p+3 for p | d below p(p-1)/2; |X(F_p)| at the identity.
    """
    require_prime(p, 7)
    n = p * (p - 1)
    if not isinstance(d, int) or d < 1 or n % d != 0:
        raise DomainError(f"d = {d} does not divide p(p-1) = {n}")
    if d in (n, n // 2):
        return grassmannian_size(p)
    if d in ((p - 1) // 2, p - 1):
        return 2 * p + 1
    if d % p == 0:
        return p + 3
    return 3


class CuspData(NamedTuple):
    total: int
    widths: Dict[int, int]

    def width_sum(self) -> int:
        return sum(w * m for w, m in self.widths.items())


def cusp_data_fixed(p: int, fix: Callable[[int], int]) -> CuspData:
    """Cusp widths of the point stabilizer, the cycle type of rho(T) on
    X(F_p), from fix(d), the number of Lagrangians that rho(T)^d fixes, by
    Moebius inversion: c_n = (1/n) sum_{d | n} mu(d) fix(n/d), over
    n | p(p-1), since rho(T)^(p(p-1)) = I."""
    require_prime(p, 7)
    pairs = _divisors_moebius({p: 1, **factorize(p - 1)})
    fixes = {d: fix(d) for d, _ in pairs}
    squarefree = [(d, mu) for d, mu in pairs if mu]
    widths: Dict[int, int] = {}
    for n in sorted(fixes):
        s = sum(mu * fixes[n // d] for d, mu in squarefree if n % d == 0)
        if s % n != 0 or s < 0:
            raise InternalConsistencyError(f"c_{n} is not a non-negative integer")
        if s:
            widths[n] = s // n
    data = CuspData(sum(widths.values()), widths)
    if data.width_sum() != grassmannian_size(p):
        raise InternalConsistencyError("cusp widths do not partition X(F_p)")
    return data


def cusp_data_cycles(params) -> CuspData:
    """The cusp data of the point stabilizer at any SpParams: cusp_data_fixed
    of the Lagrangians that each power of rho(T) fixes."""
    from .geometry import fixed_lagrangians
    from .symplectic import rho_matrices
    T4 = rho_matrices(params)[1]
    return cusp_data_fixed(params.p, lambda d: fixed_lagrangians(T4 ** d))


def cusp_data_character(p: int) -> CuspData:
    """The cusp data of the point stabilizer when x is a primitive root:
    3 cusps of width 1, 4 of (p-1)/2, 1 of p and 2p+4 of p(p-1)/2."""
    require_prime(p, 7)
    return CuspData(2 * p + 12,
                    {1: 3, (p - 1) // 2: 4, p: 1, p * (p - 1) // 2: 2 * p + 4})


def genus_pointstab(p: int) -> int:
    """Genus of the point-stabilizer curve by Riemann-Hurwitz:
    12g = 12 + |X(F_p)| - 3 eps2 - 4 eps3 - 6c, c the number of cusps."""
    eps2, eps3 = elliptic_counts(p)
    c = cusp_data_character(p).total
    return (12 + grassmannian_size(p) - 3 * eps2 - 4 * eps3 - 6 * c) // 12


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
