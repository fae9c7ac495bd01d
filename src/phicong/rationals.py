"""Exact integer helpers: valuations, factorization and the multiplicative
order mod p on it, repeated squaring in any ring, rho's SpParams, the
counts |X(F_p)|, |Sp4(F_p)|, epsilon_2 and epsilon_3, and (a/p).

require_int is the one integer check of the library: a non-int, or an
int below its bound, is refused with DomainError where it comes in.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import DomainError, UnsupportedPrimeError

def require_int(value, name: str, least: Optional[int] = None) -> None:
    """Refuse anything but an int, and an int below least if it is given."""
    if not isinstance(value, int) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an int{bound}, got {value!r}")


def padic_val(n: int, p: int) -> Optional[int]:
    """Normalized p-adic valuation of an int, with v_p(p) = 1, and None
    for zero, whose valuation is infinite."""
    require_int(n, "n")
    return None if n == 0 else split_power(n, p)[0]


def split_power(m: int, p: int) -> Tuple[int, int]:
    """(v, m / p^v) for a nonzero integer m, with p^v the largest power of
    p dividing m.  It divides by p, p^2, p^4, ... while they divide, then
    by the same powers in reverse where they still do: O(log v) divisions,
    not v, for the long valuations of qexp's denominators."""
    require_int(m, "m")
    require_int(p, "p", 2)
    if m == 0:                             # every power of p divides it
        raise DomainError("m must be a nonzero int, got 0")
    v, powers = 0, []
    while m % p == 0:
        m //= p
        v += 1 << len(powers)
        powers.append(p)
        p *= p
    for k in range(len(powers) - 1, -1, -1):
        q, r = divmod(m, powers[k])
        if r == 0:
            m, v = q, v + (1 << k)
    return v, m


def factorize(n: int) -> Dict[int, int]:
    """{prime: exponent} of a positive integer, by trial division."""
    require_int(n, "n", 1)
    out = {}
    d = 2
    while d * d <= n:
        if n % d == 0:
            out[d], n = split_power(n, d)
        d += 1
    if n > 1:
        out[n] = 1
    return out


def multiplicative_order(x: int, p: int) -> int:
    """The order of the unit x mod p, each prime q of p - 1 divided out of
    p - 1 while x^(order/q) = 1."""
    order = p - 1
    for q in factorize(p - 1):
        while order % q == 0 and pow(x, order // q, p) == 1:
            order //= q
    return order


#: The prime bases 2 to 41, and psi_13, the least n that is a strong
#: pseudoprime to all of them: below it they decide primality (Sorenson
#: and Webster, Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


@lru_cache(maxsize=64, typed=True)
def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin on _BASES, which is a proof for
    n < PSI_13; DomainError from PSI_13 on, with no probable-prime answer."""
    require_int(n, "n")
    if n >= PSI_13:
        raise DomainError(f"primality is decided only below {PSI_13}, got {n}")
    if n < 2 or n in _BASES:
        return n in _BASES
    s, d = split_power(n - 1, 2)            # n - 1 = 2^s d, d odd
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):             # a prime has a^(2^j d) = -1 for a j < s
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def require_prime(p: int, above: int) -> None:
    """Reject anything but an int p that is a prime > above."""
    if not isinstance(p, int) or p <= above or not is_prime(p):
        raise UnsupportedPrimeError(f"p must be a prime > {above}, got {p}")


def require_gp_prime(p: int) -> None:
    """Reject anything but an int p that is a prime = 5 (mod 12), the
    primes of the family G_p."""
    if not isinstance(p, int) or p % 12 != 5 or not is_prime(p):
        raise UnsupportedPrimeError(f"G_p needs a prime p = 5 (mod 12), got {p!r}")


class _SpFields(NamedTuple):
    p: int
    x: int
    y: Optional[int] = None


class SpParams(_SpFields):
    """The prime p > 7 and the units x, y mod p that choose rho; y
    defaults to the inverse of x.  The surjectivity verdict, the fixed
    planes of rho(T)'s powers and the lifting witness are proved only for
    that default, and refuse any y with x y != 1 (mod p) (DomainError);
    rho itself and epsilon_2, epsilon_3 take every y."""

    __slots__ = ()

    def __new__(cls, p: int, x: int, y: Optional[int] = None):
        require_prime(p, 7)
        for name, v in (("x", x), ("y", 1 if y is None else y)):
            if not isinstance(v, int) or v % p == 0:
                raise DomainError(f"{name} must be an int invertible mod p, got {v!r}")
        return super().__new__(cls, p, x, y)

    def require_y_inverse(self, what: str) -> None:
        """Refuse any y with x y != 1 (mod p), the case that README proves
        nothing of: DomainError("{what} only for y = 1/x mod p, ...")."""
        if self.y is not None and self.x * self.y % self.p != 1:
            raise DomainError(f"{what} only for y = 1/x mod p, got {self}")


def grassmannian_size(p: int) -> int:
    """|X(F_p)| = (p^2+1)(p+1)."""
    return (p * p + 1) * (p + 1)


def sp4_order(p: int) -> int:
    """|Sp_4(F_p)| = p^4 (p^4-1)(p^2-1)."""
    return p ** 4 * (p ** 4 - 1) * (p ** 2 - 1)


def elliptic_counts(p: int) -> Tuple[int, int]:
    """(epsilon_2, epsilon_3) = (p+2+(-1/p), p+1+(p+1)(-3/p)), the Lagrangians
    that rho(S) and rho(S)rho(T) fix at every x and y: each is in one
    conjugacy class of Sp4(F_p) for all x and y (README, fixed Lagrangians)."""
    require_prime(p, 7)
    return p + 2 + legendre(-1, p), p + 1 + (p + 1) * legendre(-3, p)


def legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p, by Euler's criterion."""
    require_int(a, "a")
    require_int(p, "p", 3)
    return (pow(a, (p - 1) // 2, p) + 1) % p - 1


def power(base, e: int, one):
    """base^e by repeated squaring, for e >= 0, in any ring whose unit
    is one; a ring with inverses inverts base before calling this."""
    require_int(e, "exponent", 0)
    acc = one
    while e:
        if e & 1:
            acc = acc * base
        e >>= 1
        if e:
            base = base * base
    return acc

