"""Test oracle: the run-time certificate that rho(S) and rho(T) generate
Sp4(F_p), which decided the row "any other x" of surjectivity_verdict's
table before README proved it, kept unchanged.

generates_sp4 walks product replacement from a fixed seed and looks for
two kinds of element, one whose order has a prime >= 7 dividing p^2 + 1
and one that outside_sp2_p2 puts outside every Sp2(p^2):2; trace_pair,
the two coefficients of a symplectic characteristic polynomial, also
serves geometry_oracle and schreier_oracle, and the walk serves
routes_oracle.  The tests compare the table's fourth row with
generates_sp4 on every pair to p = 113.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from phicong.matrices import Matrix
from phicong.rationals import legendre, split_power


def trace_pair(g: Matrix) -> Tuple[int, int]:
    """(a, b) = (tr g, (a^2 - tr g^2)/2) mod p = g.m, p odd: a symplectic g
    has characteristic polynomial t^4 - a t^3 + b t^2 - a t + 1."""
    p, m = g.m, g.rows
    a = (m[0][0] + m[1][1] + m[2][2] + m[3][3]) % p
    tr_sq = sum(m[i][j] * m[j][i] for i in range(4) for j in range(4))
    return a, (a * a - tr_sq) * pow(2, -1, p) % p


# -- Recognizing Sp4(F_p) from two matrices ----------------------------------

#: Seed of the product-replacement walk, and how many of its elements
#: generates_sp4 looks at before it gives up.
SEED = 2026
TRIES = 64


def random_elements(generators: List[Matrix], rng: random.Random, count: int):
    """count elements by product replacement with an accumulator: ten
    slots filled with the generators, each step multiplies one slot by
    another, and the accumulator by the new slot; the accumulators after
    50 warm-up steps are the elements."""
    slots = [generators[i % len(generators)] for i in range(10)]
    acc = slots[0]
    for step in range(50 + count):
        i, j = rng.sample(range(10), 2)
        slots[i] = slots[i] * slots[j] if rng.random() < 0.5 else slots[j] * slots[i]
        acc = acc * slots[i]
        if step >= 50:
            yield acc


def outside_sp2_p2(g: Matrix) -> bool:
    """Whether g in Sp4(F_p) provably lies in no conjugate of Sp2(p^2):2.
    Its characteristic polynomial is (t^2 - s1 t + 1)(t^2 - s2 t + 1), s1
    and s2 the roots of z^2 - a z + b - 2, (a, b) = trace_pair(g).  On
    Sp2(p^2) they are equal or conjugate over F_p, so distinct roots in F_p
    put g outside it, and a != 0 puts g^2 (roots s_i^2 - 2) outside too."""
    a, b = trace_pair(g)
    return a != 0 and legendre(a * a - 4 * b + 8, g.m) == 1


def generates_sp4(S4: Matrix, T4: Matrix) -> bool:
    """True when random elements of <S4, T4> in Sp4(F_p), p >= 11, prove
    that they generate Sp4(F_p); False proves nothing.

    Every element order divides p(p^4 - 1).  Let r be p^2 + 1 without
    its factors 2 and 5.  An element g with g^(p(p^4-1)/r) != I has an
    order divisible by a prime >= 7 that divides p^2 + 1 (none does when
    r = 1).  Of the maximal subgroups of Sp4(p), p >= 11 (Bray, Holt and
    Roney-Dougal, LMS LN 407, the tables for Sp4(q), q odd), only
    Sp2(p^2):2 has an order divisible by such a prime: the others have
    orders built from p, p - 1, p + 1 and 2, or are 2^(1+4).Omega4-(2)
    (or .O4-(2)), 2.A6 and 2.S6, whose primes are 2, 3 and 5 (2.A7
    occurs only at p = 7).  So such an element and one that
    outside_sp2_p2 accepts generate a subgroup in no maximal one."""
    p = S4.m
    e = p * (p ** 4 - 1) // split_power(split_power(p * p + 1, 2)[1], 5)[1]
    ppd = outside = False
    for g in random_elements([S4, T4], random.Random(SEED), TRIES):
        ppd = ppd or not (g ** e).is_identity()
        outside = outside or outside_sp2_p2(g)
        if ppd and outside:
            return True
    return False
