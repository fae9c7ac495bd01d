"""The rank-4 symplectic family rho over F_p and the Lagrangian
Grassmannian X(F_p) it acts on.

rho(T) and rho(S) preserve the symplectic form J with (1,4)-entry 1 and
(2,3)-entry -3.  X(F_p) splits into four families of Lagrangian planes
A(a,b,c), B(a,b), C(a), D with |X(F_p)| = (p^2+1)(p+1).  fixed_lagrangians
counts the planes that a matrix fixes from its 6x6 exterior square, as
the zeros of a quadratic form on each eigenspace, so nothing here grows
with |X(F_p)|.

surjectivity_verdict decides whether rho(S), rho(T) generate Sp4(F_p)
from two matrix facts about random elements (generates_sp4), and only when
that fails measures the group with the exact Schreier-Sims chain of
phicong.schreier, on F_p^4.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from .errors import DomainError, InternalConsistencyError
from .matrices import Matrix
from .rationals import (factorize, kernel_mod_p, legendre, require_int, require_prime,
                        roots_mod_p, row_reduce, sp4_order, split_power)

if TYPE_CHECKING:                       # only the annotations name a Word
    from .words import Word


class _SpFields(NamedTuple):
    p: int
    x: int
    y: Optional[int] = None


class SpParams(_SpFields):
    """The prime p > 7 and the units x, y mod p that choose rho; y
    defaults to the inverse of x."""

    __slots__ = ()

    def __new__(cls, p: int, x: int, y: Optional[int] = None):
        require_prime(p, 7)
        for name, v in (("x", x), ("y", 1 if y is None else y)):
            if not isinstance(v, int) or v % p == 0:
                raise DomainError(f"{name} must be an int invertible mod p, got {v!r}")
        return super().__new__(cls, p, x, y)

    def resolved_y(self, m: int) -> int:
        """y mod m, the inverse of x mod m when y is not given."""
        return pow(self.x, -1, m) if self.y is None else self.y % m


#: The largest p that the Grassmannian verbs admit (DomainError above it,
#: exit 2 on the command line).  No call allocates per point of X(F_p);
#: what grows with p is the trial-division primality test, O(sqrt p), the
#: scan of F_p* in rationals.roots_mod_p, O(p), the factorization of
#: p(p - 1) in matrix_order, and the transversals of about p^2 points in
#: the uncertified Schreier-Sims chain of phicong.schreier.
MAX_P = 113


def require_max_p(p: int) -> None:
    """Refuse p > MAX_P, before anything that grows with p runs."""
    if p > MAX_P:
        raise DomainError(f"the Lagrangian Grassmannian takes a prime "
                          f"p <= {MAX_P}, got {p}")


#: The symplectic form preserved by rho.
_J_ROWS = ((0, 0, 0, 1), (0, 0, -3, 0), (0, 3, 0, 0), (-1, 0, 0, 0))
#: Coordinates of antisymmetric forms and of Plucker vectors: the entries
#: (i, j), i < j, in this order.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
#: J on a plane, u^T J v = sum of J_ij q_ij: zero exactly on the Lagrangian ones.
_LAGRANGIAN_ROW = tuple(_J_ROWS[i][j] for i, j in _PAIRS)


def form_J(p: int) -> Matrix:
    return Matrix(_J_ROWS, p)


@lru_cache(maxsize=64)
def _inverse_weights(p: int) -> Tuple[Tuple[int, ...], ...]:
    """w[i][j] = c_j / c_i mod p, c_k = J[k][3 - k]: J is antidiagonal, J^T = -J."""
    require_prime(p, 3)                 # c_1 = -3 must be a unit
    c = [row[3 - k] for k, row in enumerate(_J_ROWS)]
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


def _t_rows(x: int, y: int, m: int) -> List[List[int]]:
    """Rows of rho(T) over Z/m for x and y invertible mod m."""
    xi, yi = pow(x, -1, m), pow(y, -1, m)
    return [[x, 3 * y, 3 * yi, xi],
            [0, y, 2 * yi, xi],
            [0, 0, yi, xi],
            [0, 0, 0, xi]]


def rho_matrices(params: SpParams) -> Tuple[Matrix, Matrix]:
    """(rho(S), rho(T)) over F_p; verified symplectic for J with S^2 = -I."""
    p = params.p
    x, y = params.x % p, params.resolved_y(p)
    xi, yi = pow(x, -1, p), pow(y, -1, p)
    S4 = Matrix([[0, 0, 0, -xi],
                 [0, 0, yi, 0],
                 [0, -y, 0, 0],
                 [x, 0, 0, 0]], p)
    T4 = Matrix(_t_rows(x, y, p), p)
    require_symplectic((S4, T4), InternalConsistencyError)
    if S4 * S4 != Matrix([[-int(i == j) for j in range(4)] for i in range(4)], p):
        raise InternalConsistencyError("rho(S)^2 != -I")
    return S4, T4


def _wedge(M: Matrix) -> List[List[int]]:
    """The exterior square of M on _PAIRS, reduced mod p = M.m: column
    (k, l) holds the Plucker coordinates of the plane M e_k, M e_l."""
    m, p = M.rows, M.m
    return [[(m[i][k] * m[j][l] - m[i][l] * m[j][k]) % p for k, l in _PAIRS]
            for i, j in _PAIRS]


def trace_pair(g: Matrix) -> Tuple[int, int]:
    """(a, b) = (tr g, (a^2 - tr g^2)/2) mod p = g.m, p odd: a symplectic g
    has characteristic polynomial t^4 - a t^3 + b t^2 - a t + 1."""
    p, m = g.m, g.rows
    a = (m[0][0] + m[1][1] + m[2][2] + m[3][3]) % p
    tr_sq = sum(m[i][j] * m[j][i] for i in range(4) for j in range(4))
    return a, (a * a - tr_sq) * pow(2, -1, p) % p


def _polar(u: List[int], v: List[int]) -> int:
    """Q(u + v) - Q(u) - Q(v) for the Plucker quadric
    Q(q) = q01 q23 - q02 q13 + q03 q12, which vanishes exactly on planes."""
    u01, u02, u03, u12, u13, u23 = u
    v01, v02, v03, v12, v13, v23 = v
    return (u01 * v23 + u23 * v01 - u02 * v13 - u13 * v02
            + u03 * v12 + u12 * v03)


def _quadric_zeros(G: List[List[int]], p: int) -> int:
    """The number of x in F_p^k with x^T G x = 0, for G symmetric k x k,
    p odd: p^(k-r) N_r, where N_0 = 1, N_r = p^(r-1) for odd r and
    N_r = p^(r-1) + (p-1) p^(r/2-1) ((-1)^(r/2) d / p) for even r (Lidl and
    Niederreiter, Finite Fields, Thms 6.26-6.27).  The rank r is the number
    of pivot columns P of G, and d = det G[P, P]: for a symmetric G the
    columns P span the column space, so the rows P span the row space; so
    G[P, P] is nonsingular, and the span of the e_i, i in P, is a
    complement of the radical, on which the form has the Gram matrix G[P, P]."""
    P = row_reduce(G, p)[1]
    rank = len(P)
    if rank == 0:
        n_r = 1
    elif rank % 2:
        n_r = p ** (rank - 1)
    else:
        disc = row_reduce([[G[i][j] for j in P] for i in P], p)[2]
        eta = legendre((-1) ** (rank // 2) * disc, p)
        n_r = p ** (rank - 1) + (p - 1) * p ** (rank // 2 - 1) * eta
    return p ** (len(G) - rank) * n_r


def fixed_lagrangians(g: Matrix) -> int:
    """The number of points of X(F_p) that g fixes, p = g.m > 5, counted
    from g without enumerating X(F_p).

    A plane is fixed iff its Plucker vector q is an eigenvector of the
    exterior square W of g, with an eigenvalue mu in F_p*; the fixed planes
    are then the points of P(V) on the Plucker quadric, V the vectors of
    ker(W - mu) on the Lagrangian hyperplane q03 = 3 q12.  The Gram matrix of
    _polar on a basis of V is twice the quadric's, with the same zeros and,
    at even rank, the same square class of discriminant; its nonzero zeros
    are p - 1 to a point of P(V).  The eigenvalues l, 1/l, m, 1/m of g give
    W the eigenvalues 1, 1, lm, 1/(lm), l/m, m/l, whose two pair sums add up
    to b - 2 and multiply to a^2 - 2b, (a, b) = trace_pair(g): the last four
    are the roots of q = t^4 - (b-2) t^3 + (a^2 - 2b + 2) t^2 - (b-2) t + 1.
    A Lagrangian fixed with mu = 1 gives g eigenvalues c, 1/c twice, so then
    q(1) = 0 too: every mu with a fixed Lagrangian is a root of q."""
    p = g.m
    require_prime(p, 5)
    require_symplectic([g])
    W, (a, b) = _wedge(g), trace_pair(g)
    count = 0
    for mu in roots_mod_p([1, 2 - b, a * a - 2 * b + 2, 2 - b, 1], p):
        basis = kernel_mod_p(W, p, mu, [_LAGRANGIAN_ROW])
        gram = [[_polar(u, v) % p for v in basis] for u in basis]
        count += (_quadric_zeros(gram, p) - 1) // (p - 1)
    return count


# -- Recognizing Sp4(F_p) from two matrices ----------------------------------

#: Seed of the product-replacement walk, and how many of its elements
#: generates_sp4 looks at before it gives up.
_SEED = 2026
_TRIES = 64


def _random_elements(generators: List[Matrix], rng: random.Random, count: int):
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
    for g in _random_elements([S4, T4], random.Random(_SEED), _TRIES):
        ppd = ppd or not (g ** e).is_identity()
        outside = outside or outside_sp2_p2(g)
        if ppd and outside:
            return True
    return False


class SurjectivityVerdict(NamedTuple):
    order_T: int                 # matrix order of rho(T) in Sp4(F_p)
    perm_group_order: int        # order of <rho(S), rho(T)> acting on X(F_p)
    surjective_psp4: bool        # perm_group_order == |Sp4(F_p)| / 2


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


def surjectivity_verdict(params: SpParams) -> SurjectivityVerdict:
    """The group <rho(S), rho(T)> contains -I = rho(S)^2, which acts
    trivially on X(F_p), so it acts there with half its order: generates_sp4
    gives |Sp4(F_p)|/2, and otherwise the Schreier-Sims chain of
    phicong.schreier measures the matrix group."""
    p = params.p
    S4, T4 = rho_matrices(params)
    order_T = matrix_order(T4, p * (p - 1))
    psp4 = sp4_order(p) // 2
    if generates_sp4(S4, T4):
        order = psp4
    else:
        require_max_p(p)
        from .schreier import group_order
        order, odd = divmod(group_order([S4, T4]), 2)
        if odd:
            raise InternalConsistencyError("a group that holds -I has odd order")
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


def lift_witness_mod_p2(params: SpParams) -> bool:
    """rho(T)^(p(p-1)) over Z/p^2 is trivial mod p but not mod p^2."""
    p, m2 = params.p, params.p ** 2
    Mpow = Matrix(_t_rows(params.x, params.resolved_y(m2), m2), m2) ** (p * (p - 1))
    return Matrix(Mpow.rows, p).is_identity() and not Mpow.is_identity()
