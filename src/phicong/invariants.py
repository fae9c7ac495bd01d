"""Elliptic-point counts, cusp data, genus, and dimension formulas.

Covers both families: the symplectic point stabilizers (cusps via the
permutation character chi of the X(F_p) action, and as a dual route the
same Moebius inversion of the counted fixed points of rho(T)'s powers)
and the quasi-unipotent family (dimension formulas for M_2k / S_2k).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

from .errors import DomainError, InternalConsistencyError
from .rationals import (factorize, grassmannian_size, legendre, require_gp_prime,
                        require_int, require_prime)


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
    return _chi(p, d)


def _chi(p: int, d: int) -> int:
    """The closed form of chi_power, without its checks of p and d."""
    n = p * (p - 1)
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


def cusp_data_character(p: int) -> CuspData:
    """cusp_data_fixed with the closed form chi, which holds when x is a
    primitive root, checked against the widths it gives."""
    data = cusp_data_fixed(p, lambda d: _chi(p, d))
    expected = {1: 3, (p - 1) // 2: 4, p: 1, p * (p - 1) // 2: 2 * p + 4}
    if data.total != 2 * p + 12 or data.widths != expected:
        raise InternalConsistencyError(f"cusp data mismatch for p={p}: {data.widths}")
    return data


def elliptic_counts(p: int) -> Tuple[int, int]:
    """(epsilon_2, epsilon_3) = (p+2+(-1/p), p+1+(p+1)(-3/p))."""
    require_prime(p, 7)
    return p + 2 + legendre(-1, p), p + 1 + (p + 1) * legendre(-3, p)


def genus_pointstab(p: int) -> int:
    """Genus of the point-stabilizer curve, by two independent routes.

    Route 1: 12g = 12 + index - 3 eps2 - 4 eps3 - 6c with
    index = |X(F_p)| = (p^2+1)(p+1) and c = 2p+12.  Route 2: the closed
    forms for 12g by p mod 12.  The routes must agree.
    """
    require_prime(p, 7)
    eps2, eps3 = elliptic_counts(p)
    index = grassmannian_size(p)
    c = 2 * p + 12
    twelve_g = 12 + index - 3 * eps2 - 4 * eps3 - 6 * c
    cubic = p ** 3 + p ** 2
    closed = {
        1: cubic - 22 * p - 76,
        5: cubic - 14 * p - 68,
        7: cubic - 22 * p - 70,
        11: cubic - 14 * p - 62,
    }[p % 12]
    if closed % 12 != 0:
        raise InternalConsistencyError(f"closed-form genus not integral for p={p}")
    if twelve_g != closed:
        raise InternalConsistencyError(
            f"genus routes disagree for p={p}: 12g = {twelve_g} vs {closed}")
    return closed // 12


class DimsUnipotent(NamedTuple):
    k: int
    index: int
    character_trivial: bool
    dim_M: int           # dim M_2k(G) = k * index
    dim_M_char: int      # per-character: k
    dim_S_char: int      # per-character cusp forms
    dim_eis_char: int    # per-character Eisenstein complement


def dims_unipotent(k: int, index_in_gamma_prime: int,
                   character_trivial: bool) -> DimsUnipotent:
    require_int(k, "k", 1)
    require_int(index_in_gamma_prime, "index", 1)
    dim_m_char = k
    if k > 1:
        dim_s_char = k - 1
    else:
        dim_s_char = 1 if character_trivial else 0
    return DimsUnipotent(k, index_in_gamma_prime, character_trivial,
                         k * index_in_gamma_prime, dim_m_char, dim_s_char,
                         dim_m_char - dim_s_char)


class DimsGp(NamedTuple):
    k: int
    p: int
    dim_M: int             # kp/2 + 1 - (3/2 if k odd)
    genus: int             # 0
    cusps: int             # (p+1)/2
    elliptic2: int         # 3 elliptic points of order 2


def dims_Gp(k: int, p: int) -> DimsGp:
    require_gp_prime(p)
    require_int(k, "k", 1)
    twice = k * p + 2 - (3 if k % 2 else 0)
    if twice % 2:
        raise InternalConsistencyError("dimension formula gave a non-integer")
    return DimsGp(k, p, twice // 2, 0, (p + 1) // 2, 3)
