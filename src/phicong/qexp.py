"""q-expansions (q = e^(2*pi*i*tau/6)) on the genus-zero curve X(Gamma')
and the noncongruence functions xtilde, ytilde on X(Gamma'(N)).

The graded ring of forms is C[eta^4, E4, E6]; the hauptmodul-like
coordinates are x = E4/eta^8 (valuation -2) and y = E6/eta^12
(valuation -3), with y^2 = x^3 - 1728.  xtilde is the Hensel root of
the rescaled polynomial relation psi_N(x)^2 E4 = phi_N(x) eta^8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .divpoly import division_polynomials, _psi
from .errors import DomainError, InternalConsistencyError
from .rationals import padic_val, split_power
from .series import LaurentSeries, hensel_root, mul_trunc, series_sqrt

PRIMES_37 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class BasisSeries:
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


def _on_lattice(coeffs: List[int], shift: int, prec: int) -> LaurentSeries:
    """sum_j coeffs[j] q^(6j + shift), known to O(q^prec)."""
    return LaurentSeries({6 * j + shift: c for j, c in enumerate(coeffs)}, prec)


@lru_cache(maxsize=8)
def basis_series(prec: int) -> BasisSeries:
    if prec < 1:
        raise DomainError(f"prec must be >= 1, got {prec}")
    pad = prec + 10
    n = (pad + 5) // 6
    eta4 = _on_lattice(_eta_q(n), 1, pad)
    e4 = _on_lattice(_sigma_q(3, 240, n), 0, pad)
    e6 = _on_lattice(_sigma_q(5, -504, n), 0, pad)
    eta8 = eta4 * eta4
    eta12 = eta8 * eta4
    x = (e4 * eta8.inverse()).truncate(prec)
    y = (e6 * eta12.inverse()).truncate(prec)
    return BasisSeries(eta4.truncate(prec), e4.truncate(prec),
                       e6.truncate(prec), x, y, prec)


@dataclass(frozen=True)
class XtildeSeries:
    N: int
    series: LaurentSeries
    prec: int


@lru_cache(maxsize=64)
def xtilde(N: int, prec: int) -> XtildeSeries:
    """The Hensel root of psi_N^2(X) E4 - phi_N(X) eta^8, shifted to q^-2.

    Returns xtilde with coefficients known for exponents < prec.

    The lift runs over Z[[Q]], Q = q^6.  xhat = q^2 xtilde = sum_k a_k Q^k
    is a root of Mhat(X) = q^(2N^2-2) M(X/q^2), whose coefficient of X^i,
    (psiSq_i E4 - phiPol_i eta^8) q^(2N^2-2-2i), is a power series in Q.
    Substituting Q -> N^12 Q makes the root integral: X_k = a_k N^(12k),
    since v_l(a_k) >= -2 v_l(N) (6k - 1) by the bound that
    ``denominator_report`` checks as ``bound_ok``.  The lift checks this
    rather than assuming it: a non-integral Newton correction fails, and
    so does any coefficient off the lattice.
    """
    if N < 2:
        raise DomainError(f"xtilde needs N >= 2, got {N}")
    if prec < 17:
        raise DomainError("prec too small to contain three nonzero terms")
    triple = division_polynomials(N)
    n2 = N * N
    n = (prec + 7) // 6                    # xhat is wanted below q^(prec+2)
    e4 = _sigma_q(3, 240, n)
    eta4 = _eta_q(n)
    eta8 = mul_trunc(eta4, eta4, n)        # eta^8 / q^2
    scale = [N ** (12 * j) for j in range(n)]
    coeffs: List[List[int]] = []
    for i in range(n2 + 1):
        c = [0] * n
        for m, series, q_exp in ((triple.psiSq[i], e4, 2 * n2 - 2 - 2 * i),
                                 (-triple.phiPol[i], eta8, 2 * n2 - 2 * i)):
            if m:
                shift, off = divmod(q_exp, 6)
                if off:
                    raise InternalConsistencyError(
                        f"coefficient of X^{i} is off the q^6 lattice for N={N}")
                for j in range(shift, n):
                    c[j] += m * series[j - shift]
        coeffs.append([v * w for v, w in zip(c, scale)])
    try:
        xhat = hensel_root(coeffs, n2, n)
    except Exception as exc:               # cannot happen for valid N
        raise InternalConsistencyError(f"Hensel lifting failed for N={N}") from exc
    return XtildeSeries(N, LaurentSeries(
        {6 * k - 2: Fraction(v, w) for k, (v, w) in enumerate(zip(xhat, scale))},
        prec), prec)


def ytilde(N: int, prec: int) -> LaurentSeries:
    """ytilde = sqrt(xtilde^3 - 1728), branch fixed by the omega relation
    psi_N(xt,yt)^3 E6 = omega_N(xt,yt) eta^12."""
    basis = basis_series(prec)
    if N == 1:
        return basis.y
    xt = xtilde(N, prec).series
    cube = (xt * xt * xt - 1728)
    triple = division_polynomials(N)
    psi_part = _psi(N)
    psi_poly = psi_part.g if N % 2 == 0 else psi_part.f
    psi_parity = (N + 1) % 2
    omega_poly, omega_parity = triple.omega
    psi_sq_at = triple.psiSq.map_coeffs(Fraction).evaluate(xt)
    psi_at = psi_poly.map_coeffs(Fraction).evaluate(xt)
    om_at = omega_poly.map_coeffs(Fraction).evaluate(xt)
    eta8 = basis.eta4 * basis.eta4
    eta12 = eta8 * basis.eta4
    matches = []
    for sign in (1, -1):
        yt = series_sqrt(cube, sign)
        lhs = psi_sq_at * psi_at * basis.E6
        rhs = om_at * eta12
        if psi_parity:
            lhs = lhs * yt
        if omega_parity:
            rhs = rhs * yt
        if (lhs - rhs).is_zero():
            matches.append(yt)
    if len(matches) != 1:
        raise InternalConsistencyError(
            f"omega relation matched {len(matches)} branches for N={N}")
    return matches[0]


@dataclass(frozen=True)
class PrimeReport:
    p: int
    min_vals: Tuple          # min v_p over first 10/20/30 terms (INF if none)
    integral: bool           # all computed coefficients p-integral
    expected_integral: bool  # the dichotomy's prediction
    unbounded_trend: bool    # minima strictly decrease along the cutoffs
    bound_ok: bool           # v_p(c_n) >= -2 v_p(N) (n+1) for every term


@dataclass(frozen=True)
class DenominatorReport:
    N: int
    prec: int
    cutoffs: Tuple[int, int, int]
    primes: Tuple[PrimeReport, ...]


def denominator_report(N: int, prec: int,
                       cutoffs: Tuple[int, int, int] = (10, 20, 30)) -> DenominatorReport:
    xt = xtilde(N, prec).series
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
        if p > 3:
            expected_integral = r == 0
        elif p == 3:
            expected_integral = r == 0
        else:
            expected_integral = N % 4 != 0
        trend = mins[0] > mins[1] > mins[2]
        bound_ok = all(v >= -2 * r * (e + 1) for (e, _), v in zip(terms, vals))
        reports.append(PrimeReport(p, mins, integral, expected_integral,
                                   trend, bound_ok))
    return DenominatorReport(N, prec, cutoffs, tuple(reports))
