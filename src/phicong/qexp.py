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
lattice Q = q^6 as dense integer lists, rescaled Q -> lam Q by the lam
that the denominators need.  ``xtilde_terms`` gives xtilde's coefficients
as reduced integer pairs, which the CLI prints and ``denominator_report``
reads; only ``xtilde``, ``ytilde`` and ``basis_series`` turn them into a
``LaurentSeries`` (``_on_lattice``), so the CLI loads neither fractions
nor phicong.series.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

from .errors import DomainError, InternalConsistencyError
from .polynomials import mul_trunc
from .rationals import require_int, split_power

if TYPE_CHECKING:
    from .series import LaurentSeries

#: (exponent, numerator, denominator) of each nonzero term of a series
Terms = Tuple[Tuple[int, int, int], ...]

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


def _reduced(coeffs: List[int], lam: int, shift: int) -> Terms:
    """(6k + shift, numerator, denominator) of each nonzero coeffs[k] / lam^k,
    in lowest terms: the rescaling of ``_tower`` undone, with lam = 1 for a
    series not rescaled."""
    out, den = [], 1
    for k, c in enumerate(coeffs):
        if c:
            g = gcd(c, den)
            out.append((6 * k + shift, c // g, den // g))
        den *= lam
    return tuple(out)


def _on_lattice(terms: Terms, prec: int) -> LaurentSeries:
    """The series of terms, known to O(q^prec).  The integer path (the
    CLI, ``denominator_report``) never comes here, so only a library call
    loads fractions and phicong.series."""
    from fractions import Fraction

    from .series import LaurentSeries
    return LaurentSeries({e: Fraction(num, den) for e, num, den in terms}, prec)


@lru_cache(maxsize=8)
def basis_series(prec: int) -> BasisSeries:
    require_int(prec, "prec", 1)
    n = prec // 6 + 2
    x, y, _ = _tower(1, n)                 # lam = 1: x and y are integral

    def series(coeffs, shift):
        return _on_lattice(_reduced(coeffs, 1, shift), prec)

    return BasisSeries(series(_eta_q(n), 1), series(_sigma_q(3, 240, n), 0),
                       series(_sigma_q(5, -504, n), 0), series(x, -2),
                       series(y, -3), prec)


def _inner_square(c: List[int], m: int) -> int:
    """sum_{0<i<m} c_i c_(m-i): the coefficient of Q^m in c^2 without
    2 c_0 c_m, from the products with i < m - i, each counted twice."""
    t = 2 * sum(map(mul, c[1:(m + 1) // 2], c[m - 1:m // 2:-1]))
    return t + c[m // 2] ** 2 if m % 2 == 0 else t


def _tower(N: int, n: int) -> Tuple[List[int], List[int], int]:
    """(A, B, lam) with A_k = a_k lam^k and B_k = b_k lam^k integers for
    k < n, where xtilde = sum_k a_k q^(6k-2) and ytilde = sum_k b_k q^(6k-3),
    and lam a divisor of N^12.

    A_0 = N^2 and B_0 = N^3.  Differentiating ytilde^2 = xtilde^3 - 1728
    along D xtilde = -2 ytilde eta^4 / N gives D ytilde = -3 xtilde^2 eta^4 / N.
    With eta^4 = q sum e_j Q^j and X_k = c_k lam^k for the coefficients c_k
    of xtilde^2 = sum c_k q^(6k-4), the coefficients of q^(6m-2) and
    q^(6m-3) in these two relations read, after Q -> lam Q,

        N (3m - 1) A_m + B_m = -S_m,    S_m = sum_{k<m} B_k e_(m-k) lam^(m-k),
        N (2m - 1) B_m + X_m = -T_m,    T_m = sum_{k<m} X_k e_(m-k) lam^(m-k),

    where X_m = P_m + 2 N^2 A_m and P_m = sum_{0<k<m} A_k A_(m-k).  So

        N^2 (6m + 1)(m - 1) A_m = P_m + T_m - N (2m - 1) S_m

    for m >= 2: one exact integer division per step.  S_m and T_m are
    Horner sums in lam of products with the small e_j, so the only
    products of two long integers are the m/2 of P_m, and nothing grows
    with N^2.  At m = 1 the derivative has lost the constant 1728; the
    coefficient of q^0 in ytilde^2 = xtilde^3 - 1728 gives
    7 N^4 A_1 = 1728 lam - 2 N^3 S_1 instead.

    The relations are homogeneous in lam, so lam starts at 1 and grows
    only when a division leaves a remainder: lam is multiplied by
    f = gcd(d, N^12 / lam), d the denominator A_m lacks, the stored prefix
    by f^k, and the step is repeated.  N is never factored.  The bound
    v_l(c_e) >= -2 v_l(N) (e + 1) (``bound_ok`` in ``denominator_report``)
    makes every A_m an integer at lam = N^12, and an integer at a divisor
    of N^12 stays one at N^12; so the remainder left once f = 1 is one that
    lam = N^12 leaves too, and it raises InternalConsistencyError rather
    than being assumed away.
    """
    n2, n3 = N * N, N ** 3
    room = N ** 12                         # N^12 / lam
    lam, e = 1, _eta_q(n)
    a, b = [n2], [n3]
    x2 = [n2 * n2]                         # X_k: xtilde^2, rescaled the same way
    m = 1
    while m < n:
        s = t = 0
        for bk, xk, ej in zip(b, x2, e[m:0:-1]):
            s = (s + bk * ej) * lam
            t = (t + xk * ej) * lam
        p = _inner_square(a, m)
        if m == 1:
            num, den = 1728 * lam - 2 * n3 * s, 7 * n2 * n2
        else:
            num, den = p + t - N * (2 * m - 1) * s, n2 * (6 * m + 1) * (m - 1)
        am, rem = divmod(num, den)
        if rem:
            f = gcd(den // gcd(rem, den), room)
            if f == 1:
                raise InternalConsistencyError(
                    f"xtilde for N={N} is not integral at Q^{m} after rescaling")
            lam, room = lam * f, room // f
            for c in (a, b, x2):
                for k in range(1, m):
                    c[k] *= f ** k
            continue
        a.append(am)
        b.append(-s - N * (3 * m - 1) * am)
        x2.append(p + 2 * n2 * am)
        m += 1
    return a, b, lam


@lru_cache(maxsize=64, typed=True)     # 3.0 never finds the entry of 3
def xtilde_terms(N: int, prec: int) -> Terms:
    """The nonzero terms of xtilde = N^2 q^-2 + ... below q^prec, as
    (exponent, numerator, denominator) in lowest terms: the one cached form
    of xtilde, which the CLI prints and ``denominator_report`` reads."""
    require_int(N, "N", 2)
    require_int(prec, "prec", 17)          # three nonzero terms
    a, _, lam = _tower(N, (prec + 7) // 6)     # exponents 6k - 2 < prec
    return _reduced(a, lam, -2)


def xtilde(N: int, prec: int) -> LaurentSeries:
    """xtilde = N^2 q^-2 + ..., with coefficients known for exponents < prec."""
    return _on_lattice(xtilde_terms(N, prec), prec)


def ytilde(N: int, prec: int) -> LaurentSeries:
    """ytilde = N^3 q^-3 + ..., the square root of xtilde^3 - 1728 with
    D xtilde = -2 ytilde eta^4 / N, known to O(q^prec).  At N = 1 it is y."""
    require_int(N, "N", 1)
    require_int(prec, "prec", 1)
    _, b, lam = _tower(N, (prec + 8) // 6)     # exponents 6k - 3 < prec
    return _on_lattice(_reduced(b, lam, -3), prec)


class PrimeReport(NamedTuple):
    p: int
    min_vals: Tuple          # min v_p over the first 10/20/30 terms, each an int
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
    if not isinstance(cutoffs, tuple) or len(cutoffs) != 3:
        raise DomainError(f"cutoffs must be a tuple of three ints, got {cutoffs!r}")
    for prev, c in zip((0,) + cutoffs, cutoffs):    # 1 <= c1 < c2 < c3
        require_int(c, "cutoff", prev + 1)
    terms = xtilde_terms(N, prec)
    if len(terms) < cutoffs[-1]:
        raise DomainError(
            f"only {len(terms)} terms available, need {cutoffs[-1]}; raise prec")
    reports = []
    for p in PRIMES_37:
        r = split_power(N, p)[0]
        vals = [split_power(num, p)[0] - split_power(den, p)[0]
                for _, num, den in terms]
        mins = tuple(min(vals[:c]) for c in cutoffs)
        integral = all(v >= 0 for v in vals)
        expected_integral = N % 4 != 0 if p == 2 else r == 0
        trend = mins[0] > mins[1] > mins[2]
        bound_ok = all(v >= -2 * r * (e + 1) for (e, _, _), v in zip(terms, vals))
        reports.append(PrimeReport(p, mins, integral, expected_integral,
                                   trend, bound_ok))
    return DenominatorReport(N, prec, cutoffs, tuple(reports))
