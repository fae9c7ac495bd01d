"""Exact integer helpers: valuations, factorization, repeated squaring
in any ring, the counts |X(F_p)|, |Sp4(F_p)| and (a/p), and the roots of
a polynomial and the kernel of a matrix mod p.

require_int is the one integer check of the library: a non-int, or an
int below its bound, is refused with DomainError where it comes in.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Dict, List, Optional, Tuple

from .errors import DomainError, UnsupportedPrimeError

#: Sentinel returned by :func:`padic_val` for zero (v_p(0) = +infinity).
INF = math.inf


def require_int(value, name: str, least: Optional[int] = None) -> None:
    """Refuse anything but an int, and an int below least if it is given."""
    if not isinstance(value, int) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an int{bound}, got {value!r}")


def padic_val(n: int, p: int):
    """Normalized p-adic valuation of an int, with v_p(p) = 1.

    Returns ``INF`` for zero.
    """
    require_int(n, "n")
    return INF if n == 0 else split_power(n, p)[0]


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


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    require_int(n, "n")
    return n > 1 and factorize(n) == {n: 1}


def require_prime(p: int, above: int) -> None:
    """Reject anything but an int p that is a prime > above."""
    if not isinstance(p, int) or p <= above or not is_prime(p):
        raise UnsupportedPrimeError(f"p must be a prime > {above}, got {p}")


def require_gp_prime(p: int) -> None:
    """Reject anything but an int p that is a prime = 5 (mod 12), the
    primes of the family G_p."""
    if not isinstance(p, int) or p % 12 != 5 or not is_prime(p):
        raise UnsupportedPrimeError(f"G_p needs a prime p = 5 (mod 12), got {p!r}")


def grassmannian_size(p: int) -> int:
    """|X(F_p)| = (p^2+1)(p+1)."""
    return (p * p + 1) * (p + 1)


def sp4_order(p: int) -> int:
    """|Sp_4(F_p)| = p^4 (p^4-1)(p^2-1)."""
    return p ** 4 * (p ** 4 - 1) * (p ** 2 - 1)


def legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p, by Euler's criterion."""
    require_int(a, "a")
    require_int(p, "p", 3)
    return (pow(a, (p - 1) // 2, p) + 1) % p - 1


def roots_mod_p(coeffs: List[int], p: int) -> List[int]:
    """The roots in F_p* of a polynomial mod p, coefficients lowest degree
    first, by a scan of F_p*, O(p)."""
    return [mu for mu in range(1, p)
            if not reduce(lambda acc, c: (acc * mu + c) % p, reversed(coeffs), 0)]


def row_reduce(rows, p: int) -> Tuple[List[List[int]], List[int], int]:
    """The one Gauss-Jordan elimination mod p: (the reduced rows, their
    pivot columns, det), det the product of the pivots as they are found,
    negated at each row swap and 0 once a column has none; for a square
    matrix that is its determinant mod p."""
    rows, pivots, det = [[v % p for v in r] for r in rows], [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            det = 0
            continue
        if hit != r:
            rows[r], rows[hit], det = rows[hit], rows[r], -det
        det = det * rows[r][c] % p
        inv = pow(rows[r][c], -1, p)
        top = rows[r] = [v * inv % p for v in rows[r]]
        rows = [[(u - row[c] * v) % p for u, v in zip(row, top)] if i != r and row[c]
                else row for i, row in enumerate(rows)]
        pivots.append(c)
    return rows, pivots, det


def kernel_mod_p(rows, p: int, mu: int = 0, extra=()) -> List[List[int]]:
    """A basis of the v with M v = mu v mod p, M the matrix of rows, and
    r . v = 0 for the extra rows r: a free coordinate f set to 1, the
    other free ones to 0, and each pivot coordinate of row_reduce solved for."""
    rows, pivots, _ = row_reduce([[v - mu * (i == j) for j, v in enumerate(r)]
                                  for i, r in enumerate(rows)] + list(extra), p)
    width = len(rows[0])
    return [[-rows[pivots.index(c)][f] % p if c in pivots else int(c == f)
             for c in range(width)] for f in range(width) if f not in pivots]


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

