"""The rank-4 symplectic family rho over F_p and the Lagrangian
Grassmannian X(F_p) it acts on.

rho(T) and rho(S) preserve the symplectic form J with (1,4)-entry 1 and
(2,3)-entry -3.  X(F_p) splits into four families of Lagrangian planes
A(a,b,c), B(a,b), C(a), D with |X(F_p)| = (p^2+1)(p+1).

surjectivity_verdict reads the order of <rho(S), rho(T)> off a table in
x^2 mod p, proved once in README: Sym^3(SL2(F_p)) for x^2 = 1, a group of
order 12 for x^2 = -1, and a Siegel parabolic subgroup for x^4 + x^2 + 1
= 0.  For every other x it proves surjectivity at run time from two
matrix facts about random elements (generates_sp4), or refuses.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

from .errors import DomainError, InternalConsistencyError
from .matrices import Matrix
from .rationals import (SpParams, legendre, multiplicative_order, require_prime,
                        sp4_order, split_power)

if TYPE_CHECKING:                       # only the annotations name a Word
    from .words import Word


#: The symplectic form preserved by rho.
J_ROWS = ((0, 0, 0, 1), (0, 0, -3, 0), (0, 3, 0, 0), (-1, 0, 0, 0))


def form_J(p: int) -> Matrix:
    return Matrix(J_ROWS, p)


@lru_cache(maxsize=64)
def _inverse_weights(p: int) -> Tuple[Tuple[int, ...], ...]:
    """w[i][j] = c_j / c_i mod p, c_k = J[k][3 - k]: J is antidiagonal, J^T = -J."""
    require_prime(p, 3)                 # c_1 = -3 must be a unit
    c = [row[3 - k] for k, row in enumerate(J_ROWS)]
    return tuple(tuple(c[j] * pow(c[i], -1, p) % p for j in range(4)) for i in range(4))


def inverse(g: Matrix) -> Matrix:
    """J^-1 g^T J, the inverse of a g that preserves J, without a product: entry
    (i, j) is g[3-j][3-i] w_ij.  UnsupportedPrimeError unless p = g.m is a prime > 3."""
    p, r, w = g.m, g.rows, _inverse_weights(g.m)
    return Matrix._of(tuple([tuple([r[3 - j][3 - i] * w[i][j] % p for j in range(4)])
                             for i in range(4)]), p)


def require_symplectic(gens, error: type = DomainError) -> None:
    """Raise error unless each g of gens preserves J: inverse(g) g = I."""
    if not all((inverse(g) * g).is_identity() for g in gens):
        raise error("matrix is not symplectic for J")


#: (Sym^3(S), Sym^3(T)): S and T acting on binary cubics, in the basis
#: X^3, 3X^2 Y, 3X Y^2, Y^3.
SYM3 = (((0, 0, 0, -1), (0, 0, 1, 0), (0, -1, 0, 0), (1, 0, 0, 0)),
         ((1, 3, 3, 1), (0, 1, 2, 1), (0, 0, 1, 1), (0, 0, 0, 1)))


def rho_matrices(params: SpParams) -> Tuple[Matrix, Matrix]:
    """(rho(S), rho(T)) over F_p, Sym^3(g) D with D = diag(x, y, 1/y, 1/x)
    and y = 1/x when params.y is None; verified symplectic for J with
    S^2 = -I."""
    p, x = params.p, params.x % params.p
    y = pow(x, -1, p) if params.y is None else params.y % p
    d = (x, y, pow(y, -1, p), pow(x, -1, p))
    S4, T4 = (Matrix([[v * d[j] for j, v in enumerate(row)] for row in g], p)
              for g in SYM3)
    require_symplectic((S4, T4), InternalConsistencyError)
    if S4 * S4 != Matrix([[-int(i == j) for j in range(4)] for i in range(4)], p):
        raise InternalConsistencyError("rho(S)^2 != -I")
    return S4, T4


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


class SurjectivityVerdict(NamedTuple):
    order_T: int                 # matrix order of rho(T) in Sp4(F_p)
    perm_group_order: int        # order of <rho(S), rho(T)> acting on X(F_p)
    surjective_psp4: bool        # perm_group_order == |Sp4(F_p)| / 2


def surjectivity_verdict(params: SpParams) -> SurjectivityVerdict:
    """The verdict for y = 1/x, read off x^2 mod p by the table that README
    proves ("How surjectivity is certified"): on X(F_p), where -I = rho(S)^2
    acts trivially, the order is p(p^2 - 1)/2 for x^2 = 1, 6 for x^2 = -1,
    3p^4(p^2 - 1)/2 for x^4 + x^2 + 1 = 0, and |Sp4(F_p)|/2 for any other x
    once generates_sp4 proves it (DomainError when it does not).  rho(T)
    has order 4 for x^2 = -1 and p ord(x) otherwise.  An explicit y with
    x y != 1 (mod p) is refused (DomainError) before any matrix is built."""
    params.require_y_inverse("surjectivity is decided")
    p = params.p
    x = params.x % p
    sq = x * x % p
    sl2 = p * (p * p - 1)               # |SL2(F_p)|
    psp4 = sp4_order(p) // 2
    order_T = 4 if sq == p - 1 else p * multiplicative_order(x, p)
    if sq == 1:
        order = sl2 // 2
    elif sq == p - 1:
        order = 6
    elif (sq * sq + sq + 1) % p == 0:
        order = 3 * p ** 3 * sl2 // 2
    elif generates_sp4(*rho_matrices(params)):
        order = psp4
    else:
        raise DomainError(f"no certificate that rho(S), rho(T) generate Sp4(F_{p}) for {params}")
    return SurjectivityVerdict(order_T, order, order == psp4)


def rho_word(w: Word, params: SpParams) -> Matrix:
    """rho(w) in Sp4(F_p), with no inverse: rho(S) has order 4, as
    rho_matrices checks S^2 = -I, and rho(T) has order dividing p(p-1),
    because rho(T)^(p-1) is unipotent (its diagonal is x, y, 1/y, 1/x)
    and a unipotent 4x4 matrix has order dividing p once p > 3."""
    S4, T4 = rho_matrices(params)
    p = params.p
    acc = Matrix.identity(p)
    for gen, exp in w.syllables:
        acc = acc * (S4 ** (exp % 4) if gen == "S" else T4 ** (exp % (p * (p - 1))))
    return acc


def kernel_test(w: Word, params: SpParams) -> bool:
    """True iff the word maps to the identity in Sp4(F_p)."""
    return rho_word(w, params).is_identity()
