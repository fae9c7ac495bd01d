"""Test oracle: xtilde and ytilde rescaled by the fixed lambda = N^12.

``phicong.qexp._tower`` rescales Q -> lam Q by a lam that grows, as the
coefficients' denominators demand, from 1 to a divisor of N^12.  This is
the recurrence as it stood before: lam = N^12 from the start, which the
bound v_l(c_e) >= -2 v_l(N) (e + 1) justifies without looking at the
coefficients.  ``tower_terms`` reduces its output to the library's
(exponent, numerator, denominator) form.
"""

from math import gcd
from operator import mul
from typing import List, Tuple

from phicong.errors import InternalConsistencyError
from phicong.qexp import _eta_q, _inner_square


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


def tower_terms(N: int, n: int, which: int = 0):
    """The nonzero terms of xtilde (which = 0) or ytilde (which = 1) below
    Q^n as reduced (exponent, numerator, denominator) triples."""
    out = []
    for k, c in enumerate(_tower(N, n)[which]):
        if c:
            den = N ** (12 * k)
            g = gcd(c, den)
            out.append((6 * k - 2 - which, c // g, den // g))
    return out
