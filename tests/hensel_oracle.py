"""Test oracles: xtilde as the Newton/Hensel root of its degree-N^2
relation over Fraction-valued Laurent series, and the square root of a
Laurent series.

The library computes xtilde and ytilde from the invariant differential:
one integer recurrence on Q = q^6, rescaled by N^12.  This module
computes xtilde with none of that, from the relation
psi_N(X)^2 E4 = phi_N(X) eta^8 that defines it: sparse Fraction series in
q, Horner evaluation of P and P' at full precision, and Newton steps
through ``LaurentSeries.inverse``.  Its E4 and eta^8 are built here too,
from the Euler product and divisor sums, not taken from ``phicong.qexp``.
``series_sqrt`` gives ytilde as the square root of xtilde^3 - 1728 by
term-by-term long recursion.
"""

import math
from fractions import Fraction
from typing import Dict, List

from phicong.divpoly import division_polynomials
from phicong.errors import (DomainError, InternalConsistencyError,
                            PhicongError, PrecisionError)
from phicong.series import LaurentSeries


class HenselError(PhicongError):
    """Newton/Hensel iteration cannot start (non-simple root mod q)."""


def _cap(prec):
    return math.inf if prec is None else prec


def euler_product(prec: int) -> LaurentSeries:
    """prod_{n>=1} (1 - q^(6n)) via the pentagonal number theorem."""
    coeffs: Dict[int, Fraction] = {}
    k = 1
    coeffs[0] = Fraction(1)
    while True:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            e = 6 * g
            if e < prec:
                coeffs[e] = Fraction(-1 if k % 2 else 1)
        if 6 * k * (3 * k - 1) // 2 >= prec:
            break
        k += 1
    return LaurentSeries(coeffs, prec)


def sigma_series(power: int, constant: int, prec: int) -> LaurentSeries:
    """1 + constant * sum_n sigma_power(n) q^(6n)."""
    coeffs: Dict[int, Fraction] = {0: Fraction(1)}
    n = 1
    while 6 * n < prec:
        sigma = sum(d ** power for d in range(1, n + 1) if n % d == 0)
        coeffs[6 * n] = Fraction(constant * sigma)
        n += 1
    return LaurentSeries(coeffs, prec)


def hensel_root(poly_coeffs, x0, prec: int) -> LaurentSeries:
    """Newton/Hensel lift of a simple root of P(X) = sum_i poly_coeffs[i] X^i.

    ``poly_coeffs`` are Laurent series in q with non-negative valuation,
    ``x0`` a rational seed with P(x0) = 0 (mod q) and P'(x0) a unit mod q.
    Returns the unique root congruent to x0 mod q, to O(q^prec).
    """
    cs = list(poly_coeffs)
    if len(cs) < 2:
        raise DomainError("polynomial must have degree at least 1")
    for c in cs:
        if _cap(c.prec) < prec:
            raise PrecisionError(
                f"polynomial coefficient known only to O(q^{c.prec}), need {prec}")
        if c.coeffs and c.valuation < 0:
            raise DomainError("polynomial coefficients must have valuation >= 0")

    def eval_at(x: LaurentSeries, k: int):
        """P(x) and P'(x), both truncated to O(q^k)."""
        val = LaurentSeries.zero(k)
        der = LaurentSeries.zero(k)
        for c in reversed(cs):
            der = der * x + val
            val = val * x + c.truncate(k)
        return val, der

    x0 = Fraction(x0)
    x = LaurentSeries.monomial(x0, 0, 1)
    p0, d0 = eval_at(x, 1)
    if not p0.is_zero():
        raise DomainError(f"seed {x0} is not a root mod q")
    if d0.is_zero() or d0.valuation != 0:
        raise HenselError(f"seed {x0} is not a simple root mod q")
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        # a root correct mod q^(k/2) is corrected to mod q^k by one step
        x = LaurentSeries(x.coeffs, k)
        val, der = eval_at(x, k)
        x = (x - val * der.inverse()).truncate(k)
    return x


def xtilde_by_fractions(N: int, prec: int) -> LaurentSeries:
    """The Hensel root of psi_N^2(X) E4 - phi_N(X) eta^8, shifted to q^-2.

    Returns xtilde with coefficients known for exponents < prec.
    """
    if N < 2:
        raise DomainError(f"xtilde needs N >= 2, got {N}")
    if prec < 17:
        raise DomainError("prec too small to contain three nonzero terms")
    triple = division_polynomials(N)
    n2 = N * N
    target = prec + 2                      # precision of xhat = q^2 * xtilde
    pad = target + 4
    f2 = euler_product(pad) * euler_product(pad)
    e4 = sigma_series(3, 240, pad)
    eta8 = (f2 * f2 * f2 * f2).shift(2).truncate(pad)
    # Mhat(X) = q^(2N^2-2) M(X/q^2): coefficient of X^i is
    # (psiSq_i E4 - phiPol_i eta^8) q^(2N^2-2-2i), valuation >= 0
    coeffs: List[LaurentSeries] = []
    for i, (a, b) in enumerate(zip(triple.psiSq + (0,), triple.phiPol)):
        ci = LaurentSeries.zero(target + 4)
        if a:
            ci = ci + e4 * Fraction(a)
        if b:
            ci = ci - eta8 * Fraction(b)
        coeffs.append(ci.shift(2 * n2 - 2 - 2 * i).truncate(target))
    try:
        xhat = hensel_root(coeffs, n2, target)
    except Exception as exc:               # cannot happen for valid N
        raise InternalConsistencyError(f"Hensel lifting failed for N={N}") from exc
    return xhat.shift(-2)


def _rational_sqrt(r: Fraction):
    """Exact square root of a rational, or None if it is not a square."""
    if r < 0:
        return None
    n, d = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if n * n != r.numerator or d * d != r.denominator:
        return None
    return Fraction(n, d)


def series_sqrt(s: LaurentSeries, branch_sign: int = 1) -> LaurentSeries:
    """Square root of a Laurent series with rational coefficients.

    Requires even valuation and a leading coefficient that is a rational
    square; ``branch_sign`` (+1 or -1) picks the sign of the leading term.
    """
    if branch_sign not in (1, -1):
        raise DomainError("branch_sign must be +1 or -1")
    if not s.coeffs:
        raise DomainError("square root of a series with no known terms")
    v = s.valuation
    if v % 2 != 0:
        raise DomainError(f"square root needs even valuation, got {v}")
    lead = _rational_sqrt(s.coeffs[v])
    if lead is None:
        raise DomainError(f"leading coefficient {s.coeffs[v]} is not a rational square")
    lead = branch_sign * lead
    if s.prec is None:
        raise PrecisionError("square root needs a finite precision bound")
    nterms = s.prec - v
    a = {e - v: c for e, c in s.coeffs.items()}
    r: Dict[int, Fraction] = {0: lead}
    rkeys = [0]
    two_lead = 2 * lead
    for k in range(1, nterms):
        s_k = a.get(k, Fraction(0))
        conv = Fraction(0)
        for j in rkeys:
            if j == 0 or 2 * j > k:
                continue
            rc = r.get(k - j)
            if rc:
                conv += r[j] * rc * (2 if 2 * j < k else 1)
        c = (s_k - conv) / two_lead
        if c:
            r[k] = c
            rkeys.append(k)
    out = {k + v // 2: c for k, c in r.items() if c}
    return LaurentSeries(out, s.prec - v // 2)
