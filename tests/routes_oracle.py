"""Test oracle: the orders of the groups <rho(S), rho(T)> that
certificate_oracle.generates_sp4 does not certify, proved at run time
from the two matrices: Sym^3(SL2(F_p)) for x = +-1, a closure of at most
24 matrices for x of order 4, and a Siegel parabolic for x of order 3 or
6; and matrix_order, the order of one matrix by trial division of an
exponent.

Each route proves the order of G = <S4, T4> on X(F_p) from checks on the
two matrices, or returns None.  The kernel of the action on X(F_p) is
G n {I, -I}, so for a G that holds -I the order there is |G|/2.  The
tests compare invariants.surjectivity_verdict's table in x^2 mod p with
them, and the matrix chain (schreier_oracle) checks them.
"""

from __future__ import annotations

import random
from typing import List, Optional

from phicong.errors import InternalConsistencyError
from phicong.matrices import Matrix
from phicong.rationals import factorize, require_int
from phicong.symplectic import SYM3

from certificate_oracle import SEED, TRIES, random_elements
from geometry_oracle import LAGRANGIAN_ROW, PAIRS, kernel_mod_p, row_reduce, wedge


def matrix_order(M: Matrix, exponent: int) -> int:
    """Multiplicative order of M, given an exponent >= 1 with
    M^exponent = I: each prime q of the exponent is divided out while
    M^(order/q) = I."""
    require_int(exponent, "exponent", 1)
    if not (M ** exponent).is_identity():
        raise InternalConsistencyError(f"matrix power {exponent} is not the identity")
    order = exponent
    for q in factorize(exponent):
        while order % q == 0 and (M ** (order // q)).is_identity():
            order //= q
    return order


def sym3_order(S4: Matrix, T4: Matrix) -> Optional[int]:
    """p(p^2 - 1)/2 when S4 = +-Sym^3(S) and T4 = +-Sym^3(T), else None.
    S and T generate SL2(F_p), and G holds S4^2 = -I = Sym^3(-I), so
    G = Sym^3(SL2(F_p)), on which Sym^3 is faithful: a scalar c with
    c^3 = 1 and c^2 = 1 is 1."""
    S1, T1 = (Matrix(rows, S4.m) for rows in SYM3)
    minus = S1 * S1                     # Sym^3(-I) = -I
    if all(g in (h, h * minus) for g, h in ((S4, S1), (T4, T1))):
        return S4.m * (S4.m ** 2 - 1) // 2
    return None


def closure_order(S4: Matrix, T4: Matrix) -> Optional[int]:
    """|G|/2, S4^2 = -I, from G listed by right multiplication with the
    generators, or None once it has more than 24 elements.  For x
    of order 4, rho(g) = x Sym^3(g d), d = diag(1, -1), and Sd, Td are
    involutions with a product of order 3: |G| <= 4 * 6."""
    group, todo = set(), [Matrix.identity(S4.m)]
    while todo:
        g = todo.pop()
        if g not in group:
            if len(group) == 24:
                return None
            group.add(g)
            todo += (g * S4, g * T4)
    return len(group) // 2


def _apply(g: Matrix, v: List[int]) -> List[int]:
    """The vector g v mod p = g.m."""
    return [sum(a * b for a, b in zip(row, v)) % g.m for row in g.rows]


def parabolic_order(S4: Matrix, T4: Matrix, det_t: int) -> Optional[int]:
    """3p^4(p^2 - 1)/2 when these checks prove G to be that large a subgroup
    of a Siegel parabolic, else None; for x of order 3 or 6, det_t = x^4.

    - The Plucker vectors q with (wedge T4) q = det_t q, (wedge S4) q = q
      and q on the Lagrangian hyperplane must be one line, on the Plucker
      quadric: the antisymmetric matrix of q has rank 2 (its Pfaffian is
      the quadric).  Its reduced rows b_0, b_1 span a Lagrangian plane L
      that G fixes, and g in G acts on L by gbar, column i of which is
      g b_i read at the pivot columns.
    - det Sbar = 1, det Tbar has order 3, and N = 2 Tbar - tr Tbar is
      nonzero with N^2 = 0 (one eigenvalue, Tbar not scalar), and
      N Sbar N != 0 (Sbar moves the eigenline im N = ker N).  Then
      Gbar n SL2(F_p) holds Sbar and Tbar^6, of order p, in no Borel
      subgroup, so it is SL2(F_p) by Dickson's theorem (Huppert, Endliche
      Gruppen I, II.8.27), and |Gbar| = 3p(p^2 - 1).
    - An element of Sp4 trivial on L is trivial on V/L = L* (J pairs
      them), so it lies in the unipotent radical U, of order p^3, an
      irreducible SL2(F_p)-module for p > 3: G n U is 1 or U.  A walk
      element g with h = g^(p^2-1) != I trivial on L shows G n U = U.
    Then |G| = 3p^4(p^2 - 1), and G holds -I, as it holds U and Gbar
    holds -1."""
    p = S4.m
    fixed_by_s = [[v - (i == j) for j, v in enumerate(row)]
                  for i, row in enumerate(wedge(S4))]
    line = kernel_mod_p(wedge(T4), p, det_t, fixed_by_s + [LAGRANGIAN_ROW])
    if len(line) != 1:
        return None
    q = dict(zip(PAIRS, line[0]))
    rows, cols, _ = row_reduce([[q.get((i, j), 0) - q.get((j, i), 0) for j in range(4)]
                                for i in range(4)], p)
    if len(cols) != 2:
        return None
    basis = rows[:2]

    def bar(g: Matrix) -> List[List[int]]:
        images = [_apply(g, b) for b in basis]
        return [[w[c] for w in images] for c in cols]

    def mul(A, B):
        return [[sum(a * b for a, b in zip(r, c)) % p for c in zip(*B)] for r in A]

    (s00, s01), (s10, s11) = S_bar = bar(S4)
    (t00, t01), (t10, t11) = bar(T4)
    det_T = (t00 * t11 - t01 * t10) % p
    N = [[(t00 - t11) % p, 2 * t01 % p], [2 * t10 % p, (t11 - t00) % p]]
    zero = [[0, 0], [0, 0]]
    if ((s00 * s11 - s01 * s10) % p != 1 or det_T == 1 or pow(det_T, 3, p) != 1
            or N == zero or mul(N, N) != zero or mul(mul(N, S_bar), N) == zero):
        return None
    for g in random_elements([S4, T4], random.Random(SEED), TRIES):
        h = g ** (p * p - 1)
        if not h.is_identity() and all(_apply(h, b) == b for b in basis):
            return 3 * p ** 4 * (p * p - 1) // 2
    return None
