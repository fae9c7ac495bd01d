"""q-expansions (q = e^(2*pi*i*tau/6)) on the genus-zero curve X(Gamma')
and the noncongruence functions xtilde, ytilde on X(Gamma'(N)).

The graded ring of forms is C[eta^4, E4, E6]; the hauptmodul-like
coordinates are x = E4/eta^8 (valuation -2) and y = E6/eta^12
(valuation -3), with y^2 = x^3 - 1728.  (xtilde, ytilde) is the point
whose image under [N] is (x, y), the root near N^2 q^-2 of
psi_N(x)^2 E4 = phi_N(x) eta^8.  It is not found from that degree-N^2
relation: [N] scales the invariant differential dx/2y by N, so
D xtilde = -2 ytilde eta^4 / N with D = q d/dq, and that relation with
ytilde^2 = xtilde^3 - 1728 determines both series term by term
(``_tower``); at N = 1 it gives x and y.  Everything lives on the
lattice Q = q^6 as dense lists and is returned as a ``LaurentSeries``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import List, NamedTuple, Tuple

from .errors import DomainError, InternalConsistencyError
from .polynomials import mul_trunc
from .rationals import padic_val, split_power
from .series import LaurentSeries

PRIMES_37 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class BasisSeries(NamedTuple):
    eta4: LaurentSeries
    E4: LaurentSeries
    E6: LaurentSeries
    x: LaurentSeries
    y: LaurentSeries
    prec: int


def _euler_q(n: int) -> List[int]:
    """prod_{m>=1} (1 - Q^m) below Q^n, by the pentagonal number theorem."""
    out = [0] * n
    out[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < n:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < n:
                out[g] = -1 if k % 2 else 1
        k += 1
    return out


def _sigma_q(power: int, constant: int, n: int) -> List[int]:
    """1 + constant * sum_m sigma_power(m) Q^m below Q^n."""
    return [1] + [constant * sum(d ** power for d in range(1, m + 1) if m % d == 0)
                  for m in range(1, n)]


def _eta_q(n: int) -> List[int]:
    """eta^4 / q below Q^n: the fourth power of the Euler product."""
    f = _euler_q(n)
    f2 = mul_trunc(f, f, n)
    return mul_trunc(f2, f2, n)


def _on_lattice(coeffs: List[int], N: int, shift: int, prec: int) -> LaurentSeries:
    """sum_k coeffs[k] / N^(12k) q^(6k + shift), known to O(q^prec): the
    rescaling of ``_tower`` undone, with N = 1 for a series not rescaled."""
    return LaurentSeries({6 * k + shift: Fraction(c, N ** (12 * k))
                          for k, c in enumerate(coeffs)}, prec)


@lru_cache(maxsize=8)
def basis_series(prec: int) -> BasisSeries:
    if prec < 1:
        raise DomainError(f"prec must be >= 1, got {prec}")
    n = prec // 6 + 2
    x, y = _tower(1, n)
    return BasisSeries(_on_lattice(_eta_q(n), 1, 1, prec),
                       _on_lattice(_sigma_q(3, 240, n), 1, 0, prec),
                       _on_lattice(_sigma_q(5, -504, n), 1, 0, prec),
                       _on_lattice(x, 1, -2, prec), _on_lattice(y, 1, -3, prec), prec)


def _inner_square(c: List[int], m: int) -> int:
    """sum_{0<i<m} c_i c_(m-i): the coefficient of Q^m in c^2 without
    2 c_0 c_m, from the products with i < m - i, each counted twice."""
    t = 2 * sum(map(mul, c[1:(m + 1) // 2], c[m - 1:m // 2:-1]))
    return t + c[m // 2] ** 2 if m % 2 == 0 else t


def _tower(N: int, n: int) -> Tuple[List[int], List[int]]:
    """A_k = a_k N^(12k) and B_k = b_k N^(12k) for k < n, where
    xtilde = sum_k a_k q^(6k-2) and ytilde = sum_k b_k q^(6k-3).

    A_0 = N^2 and B_0 = N^3.  With E_j = e_j N^(12j), eta^4 = q sum e_j Q^j,
    step m >= 1 takes the coefficient of q^(6m-2) in D xtilde =
    -2 ytilde eta^4 / N and that of q^(6m-6) in ytilde^2 = xtilde^3 - 1728;
    after Q -> N^12 Q they read

        N (3m - 1) A_m + B_m = -S_m,      S_m = sum_{k<m} B_k E_{m-k},
        3 N^4 A_m - 2 N^3 B_m = -R_m,

    where R_m is the part of that coefficient of xtilde^3 - ytilde^2 - 1728
    that does not involve A_m or B_m.  So N^4 (6m + 1) A_m = -(R_m + 2 N^3 S_m):
    one exact integer division per step, O(m) products per step and
    nothing that grows with N^2.  The rescaling makes every A_m and B_m
    an integer (the bound ``denominator_report`` checks as ``bound_ok``);
    a remainder raises InternalConsistencyError rather than being assumed
    away.
    """
    n2, n3 = N * N, N ** 3
    e = [c * N ** (12 * j) for j, c in enumerate(_eta_q(n))]
    a, b = [n2], [n3]
    sq = [n2 * n2]                         # xtilde^2, rescaled the same way
    for m in range(1, n):
        s = sum(map(mul, b, e[m:0:-1]))
        sq_known = _inner_square(a, m)
        r = (sum(map(mul, sq[1:], a[m - 1:0:-1])) + sq_known * n2
             - _inner_square(b, m))
        if m == 1:
            r -= 1728 * N ** 12
        am, rem = divmod(-(r + 2 * n3 * s), n2 * n2 * (6 * m + 1))
        if rem:
            raise InternalConsistencyError(
                f"xtilde for N={N} is not integral at Q^{m} after rescaling")
        a.append(am)
        b.append(-s - N * (3 * m - 1) * am)
        sq.append(sq_known + 2 * n2 * am)
    return a, b


@lru_cache(maxsize=64)
def xtilde(N: int, prec: int) -> LaurentSeries:
    """xtilde = N^2 q^-2 + ..., with coefficients known for exponents < prec."""
    if N < 2:
        raise DomainError(f"xtilde needs N >= 2, got {N}")
    if prec < 17:
        raise DomainError("prec too small to contain three nonzero terms")
    a, _ = _tower(N, (prec + 7) // 6)      # exponents 6k - 2 < prec
    return _on_lattice(a, N, -2, prec)


def ytilde(N: int, prec: int) -> LaurentSeries:
    """ytilde = N^3 q^-3 + ..., the square root of xtilde^3 - 1728 with
    D xtilde = -2 ytilde eta^4 / N, known to O(q^prec).  At N = 1 it is y."""
    if N < 1:
        raise DomainError(f"ytilde needs N >= 1, got {N}")
    if prec < 1:
        raise DomainError(f"prec must be >= 1, got {prec}")
    _, b = _tower(N, (prec + 8) // 6)      # exponents 6k - 3 < prec
    return _on_lattice(b, N, -3, prec)


class PrimeReport(NamedTuple):
    p: int
    min_vals: Tuple          # min v_p over first 10/20/30 terms (INF if none)
    integral: bool           # all computed coefficients p-integral
    expected_integral: bool  # the dichotomy's prediction
    unbounded_trend: bool    # minima strictly decrease along the cutoffs
    bound_ok: bool           # v_p(c_n) >= -2 v_p(N) (n+1) for every term


class DenominatorReport(NamedTuple):
    N: int
    prec: int
    cutoffs: Tuple[int, int, int]
    primes: Tuple[PrimeReport, ...]


def denominator_report(N: int, prec: int,
                       cutoffs: Tuple[int, int, int] = (10, 20, 30)) -> DenominatorReport:
    xt = xtilde(N, prec)
    terms = xt.items()
    if len(terms) < cutoffs[-1]:
        raise DomainError(
            f"only {len(terms)} terms available, need {cutoffs[-1]}; raise prec")
    reports = []
    for p in PRIMES_37:
        r = split_power(N, p)[0]
        vals = [padic_val(c, p) for _, c in terms]
        mins = tuple(min(vals[:c]) for c in cutoffs)
        integral = all(v >= 0 for v in vals)
        expected_integral = N % 4 != 0 if p == 2 else r == 0
        trend = mins[0] > mins[1] > mins[2]
        bound_ok = all(v >= -2 * r * (e + 1) for (e, _), v in zip(terms, vals))
        reports.append(PrimeReport(p, mins, integral, expected_integral,
                                   trend, bound_ok))
    return DenominatorReport(N, prec, cutoffs, tuple(reports))
