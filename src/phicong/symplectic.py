"""The rank-4 symplectic family rho over F_p and the Lagrangian
Grassmannian X(F_p) it acts on.

rho(T) and rho(S) preserve the symplectic form J with (1,4)-entry 1 and
(2,3)-entry -3.  X(F_p) splits into four families of Lagrangian planes
A(a,b,c), B(a,b), C(a), D with |X(F_p)| = (p^2+1)(p+1).  A point is its
index in the canonical order (A by (a,b,c), then B, C, D).  A matrix M
permutes the indices, a permutation being the plain list of images: the
exterior square of M maps each row of points, whose Plucker coordinates
are affine in one coordinate, to a row of images, and each image is
decoded back to an index.

surjectivity_verdict decides whether rho(S), rho(T) generate Sp4(F_p)
from two matrix facts about random elements (generates_sp4), and only when
that fails measures the group with the exact Schreier-Sims chain of
phicong.schreier, the only code here that needs numpy.
"""

from __future__ import annotations

import itertools
import operator
import random
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import DomainError, InternalConsistencyError
from .matrices import Matrix
from .rationals import (factorize, grassmannian_size, legendre, require_prime,
                        sp4_order, split_power)

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


#: Estimated memory, in bytes, above which the Grassmannian work refuses to
#: start (DomainError, exit 2 on the command line).
MEMORY_LIMIT = 1 << 30
# An upper bound on the peak RSS per point of every verb, above that of the
# interpreter with the same modules loaded, measured at p = 23, 47, 97 and
# 113.  A permutation is a list of Python ints, about 36 bytes an entry:
# --epsilons and a certified --surjectivity take 75-83 bytes per point
# (two permutations and the bytearray of the bijection check; the fixed
# points of their composition are counted without building it), --cycles
# 41-71.  An uncertified --surjectivity adds numpy copies and the
# stabilizer chain: 202-361, above the interpreter with numpy.
_BYTES_PER_POINT = 700


def require_memory(n: int) -> None:
    """Refuse to work on n points when the estimate exceeds MEMORY_LIMIT."""
    need = _BYTES_PER_POINT * n
    if need > MEMORY_LIMIT:             # a float, or str, cannot show every n
        about = (f"{n} points needs about {need / 2 ** 30:.1f} GiB" if need < 2 ** 1000
                 else f"2^{n.bit_length() - 1} points or more needs more")
        raise DomainError(f"working on {about}, above the {MEMORY_LIMIT >> 30} GiB limit")


#: The symplectic form preserved by rho.
_J_ROWS = ((0, 0, 0, 1), (0, 0, -3, 0), (0, 3, 0, 0), (-1, 0, 0, 0))
#: Coordinates of antisymmetric forms and of Plucker vectors: the entries
#: (i, j), i < j, in this order.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def form_J(p: int) -> Matrix:
    return Matrix(_J_ROWS, p)


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
    J = form_J(p)
    if S4.transpose() * J * S4 != J or T4.transpose() * J * T4 != J:
        raise InternalConsistencyError("rho matrices do not preserve J")
    if S4 * S4 != Matrix([[-int(i == j) for j in range(4)] for i in range(4)], p):
        raise InternalConsistencyError("rho(S)^2 != -I")
    return S4, T4


def _wedge(M: Matrix) -> List[List[int]]:
    """The exterior square of M on _PAIRS, reduced mod p = M.m: column
    (k, l) holds the Plucker coordinates of the plane M e_k, M e_l."""
    m, p = M.rows, M.m
    return [[(m[i][k] * m[j][l] - m[i][l] * m[j][k]) % p for k, l in _PAIRS]
            for i, j in _PAIRS]


def _image_rows(W: List[List[int]], p: int):
    """The images under W of the points of X(F_p) in canonical order, as
    rows (alpha, beta, count): the points alpha + t beta, t < count.  Each
    family's Plucker coordinates (README, "How the Lagrangian action is
    computed") are affine in its last coordinate, and so are their images."""
    w01, w02, w03, w12, w13, w23 = zip(*W)
    for a in range(p):                  # A(a, b, c): t = c
        lead = [u - 3 * a * v - a * w - 3 * a * a * z
                for u, v, w, z in zip(w01, w03, w12, w23)]
        for b in range(p):
            yield ([u - b * v for u, v in zip(lead, w13)],
                   [u - b * v for u, v in zip(w02, w23)], p)
    for a in range(p):                  # B(a, b): t = b
        yield ([u + 3 * a * v + a * w + 3 * a * a * z
                for u, v, w, z in zip(w02, w03, w12, w13)],
               [-z for z in w23], p)
    yield w13, w23, p                   # C(a): t = a
    yield w23, (0,) * 6, 1              # D


def _decode_off_a(q: List[int], p: int, inv: List[int]) -> int:
    """Index of the Lagrangian plane with Plucker coordinates q (reduced
    mod p, q01 = 0), which is B, C or D."""
    _, q02, _, q12, q13, q23 = q
    p2, p3 = p * p, p ** 3
    if q02:
        d = inv[q02]
        return p3 + (q12 * d % p) * p + (-q23 * d % p)
    if q13:
        return p3 + p2 + q23 * inv[q13] % p
    if not q23:
        raise InternalConsistencyError("image of a plane is not 2-dimensional")
    return p3 + p2 + p


def permutation(M: Matrix) -> List[int]:
    """The permutation induced by M on the canonical index set of X(F_p),
    p = M.m, as the list of images.  A row of images alpha + t beta is
    checked Lagrangian once, on alpha and beta: an affine function of t
    vanishes at every t iff both its coefficients do.  An image with
    q01 != 0 is A(-q12/q01, -q13/q01, q02/q01); _decode_off_a names the
    others."""
    p, n = M.m, grassmannian_size(M.m)
    require_memory(n)
    require_prime(p, 3)
    J = form_J(p)
    if M.transpose() * J * M != J:
        raise DomainError("matrix is not symplectic for J")
    inv = [0] + [pow(v, -1, p) for v in range(1, p)]
    out: List[int] = []
    append = out.append
    for alpha, beta, count in _image_rows(_wedge(M), p):
        # <v, w> = p03 - 3 p12 for J
        if (alpha[2] - 3 * alpha[3]) % p or (beta[2] - 3 * beta[3]) % p:
            raise InternalConsistencyError("image of a plane is not Lagrangian")
        q01, q02, _, q12, q13, _ = alpha
        d01, d02, _, d12, d13, _ = beta
        q12, q13 = -q12, -q13
        for t in range(count):          # q holds alpha + t beta, q12, q13 negated
            d = inv[q01 % p]
            if d:
                append(((q12 * d % p) * p + q13 * d % p) * p + q02 * d % p)
            else:
                append(_decode_off_a([(u + t * v) % p for u, v in zip(alpha, beta)],
                                     p, inv))
            q01, q02, q12, q13 = q01 + d01, q02 + d02, q12 - d12, q13 - d13
    # every index is the image of exactly one point
    seen = bytearray(n)
    for i in out:
        seen[i] = 1
    if 0 in seen:
        raise InternalConsistencyError("action is not a bijection")
    return out


def cycle_type(perm: List[int]) -> Dict[int, int]:
    """{cycle length: number of cycles} of a permutation, walking each
    cycle once from its least point."""
    seen = bytearray(len(perm))
    counts: Dict[int, int] = {}
    start = seen.find(0)
    while start >= 0:
        length, j = 0, start
        while not seen[j]:
            seen[j] = 1
            j = perm[j]
            length += 1
        counts[length] = counts.get(length, 0) + 1
        start = seen.find(0, start + 1)
    return counts


def fixed_points(images: Iterable[int]) -> int:
    """Number of points i with images[i] == i.  images may be a lazy map,
    so a composition of permutations is counted without being built."""
    return sum(map(operator.eq, images, itertools.count()))


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
    Its characteristic polynomial is (t^2 - s1 t + 1)(t^2 - s2 t + 1),
    s1 and s2 the roots of z^2 - a z + e2 - 2, a = tr g, e2 = (a^2 -
    tr g^2)/2.  On Sp2(p^2) they are equal or conjugate over F_p, so
    distinct roots in F_p put g outside it, and a != 0 puts g^2 (roots
    s1^2 - 2 and s2^2 - 2) outside too."""
    p, sq = g.m, g * g
    a = sum(g.rows[i][i] for i in range(4)) % p
    e2 = (a * a - sum(sq.rows[i][i] for i in range(4))) * pow(2, -1, p)
    return a != 0 and legendre(a * a - 4 * e2 + 8, p) == 1


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
    p: int
    x: int
    order_T: int                 # matrix order of rho(T) in Sp4(F_p)
    perm_group_order: int        # order of <rho(S), rho(T)> acting on X(F_p)
    surjective_psp4: bool        # perm_group_order == |Sp4(F_p)| / 2


def matrix_order(M: Matrix, exponent: int) -> int:
    """Multiplicative order of M, given an exponent >= 1 with
    M^exponent = I: each prime q of the exponent is divided out while
    M^(order/q) = I."""
    if exponent < 1:
        raise DomainError(f"exponent must be >= 1, got {exponent}")
    if not (M ** exponent).is_identity():
        raise InternalConsistencyError(f"matrix power {exponent} is not the identity")
    order = exponent
    for q in factorize(exponent):
        while order % q == 0 and (M ** (order // q)).is_identity():
            order //= q
    return order


def surjectivity_verdict(params: SpParams, perm_s: List[int],
                         perm_t: List[int]) -> SurjectivityVerdict:
    """perm_s, perm_t are the permutations of X(F_p) under rho(S), rho(T).
    Sp4(F_p) acts on X(F_p) as PSp4(F_p), since -I acts trivially, so
    generates_sp4 gives the order |Sp4(F_p)|/2; otherwise group_order
    measures it."""
    p = params.p
    S4, T4 = rho_matrices(params)
    order_T = matrix_order(T4, p * (p - 1))
    psp4 = sp4_order(p) // 2
    if generates_sp4(S4, T4):
        order = psp4
    else:
        from .schreier import group_order       # loads numpy: only here
        order = group_order([perm_s, perm_t])
    return SurjectivityVerdict(p, params.x % p, order_T, order, order == psp4)


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
