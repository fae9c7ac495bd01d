"""The rank-4 symplectic family rho over F_p and the Lagrangian
Grassmannian X(F_p) it acts on.

rho(T) and rho(S) preserve the symplectic form J with (1,4)-entry 1 and
(2,3)-entry -3.  X(F_p) splits into four families of Lagrangian planes
A(a,b,c), B(a,b), C(a), D with |X(F_p)| = (p^2+1)(p+1).  A point is its
index in the canonical order (A by (a,b,c), then B, C, D).  A matrix M
permutes the indices in one numpy pass: the exterior square of M acts on
the Plucker coordinates of all points, and each image is decoded back to
an index.

The subgroup generated by rho(S), rho(T) is measured with a Schreier-Sims
stabilizer chain whose levels keep Schreier vectors, O(n) memory each, in
place of n coset representatives.  surjectivity_verdict passes the upper
bound |Sp4(F_p)|/2 on the order (the group lies in the image of Sp4(F_p),
in which -I acts trivially): random elements from a fixed seed build the
chain until the product of its orbit lengths, a lower bound on the order,
equals the bound, which proves that the group is PSp4(F_p).  Without a
bound, or when the random elements stop adding to the chain first, every
Schreier generator is sifted and the order is exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DomainError, InternalConsistencyError, UnsupportedPrimeError
from .invariants import grassmannian_size, sp4_order
from .matrices import Matrix
from .rationals import factorize, require_prime
from .words import Word


@dataclass(frozen=True)
class SpParams:
    p: int
    x: int
    y: Optional[int] = None

    def __post_init__(self):
        require_prime(self.p, 7)
        if self.x % self.p == 0:
            raise DomainError("x must be invertible mod p")
        if self.y is not None and self.y % self.p == 0:
            raise DomainError("y must be invertible mod p")

    def resolved_y(self, m: int) -> int:
        """y mod m, the inverse of x mod m when y is not given."""
        if self.y is not None:
            return self.y % m
        return pow(self.x, -1, m)


#: Estimated memory, in bytes, above which the Grassmannian work refuses to
#: start (DomainError, exit 2 on the command line).
MEMORY_LIMIT = 1 << 30
# Peak RSS of `grassmannian --surjectivity`, the verb that needs the most,
# above that of the interpreter with numpy loaded: 641, 477 and 367 bytes
# per point at p = 23, 29 and 47, and 320-333 at p = 71 and 97; rounded up.
_BYTES_PER_POINT = 700


def require_memory(n: int) -> None:
    """Refuse to work on n points when the estimate exceeds MEMORY_LIMIT."""
    need = _BYTES_PER_POINT * n
    if need > MEMORY_LIMIT:
        raise DomainError(
            f"working on {n} points needs about {need / 2 ** 30:.1f} GiB, "
            f"above the {MEMORY_LIMIT / 2 ** 30:.1f} GiB limit")


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
    x = params.x % p
    y = params.resolved_y(p)
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


def _plucker(p: int) -> np.ndarray:
    """Plucker coordinates, on _PAIRS, of every point of X(F_p): column i
    holds the point with index i, reduced mod p."""
    n, p2, p3 = grassmannian_size(p), p * p, p ** 3
    # entries stay below 6p^2 through the action, and the memory guard
    # keeps p below 160, so int32 holds every intermediate value
    P = np.zeros((6, n), dtype=np.int32)
    i = np.arange(p3, dtype=np.int32)
    a, b, c = i // p2, i // p % p, i % p
    A = P[:, :p3]                               # A(a,b,c), index (ap+b)p+c
    A[0], A[1], A[2], A[3], A[4], A[5] = 1, c, -3 * a, -a, -b, -3 * a * a - b * c
    i = np.arange(p2, dtype=np.int32)
    a, b = i // p, i % p
    B = P[:, p3:p3 + p2]                        # B(a,b), index p^3+ap+b
    B[1], B[2], B[3], B[4], B[5] = 1, 3 * a, a, 3 * a * a, -b
    P[4, p3 + p2:n - 1] = 1                     # C(a), index p^3+p^2+a
    P[5, p3 + p2:n - 1] = np.arange(p)
    P[5, n - 1] = 1                             # D, index p^3+p^2+p
    P %= p
    return P


def _decode(Q: np.ndarray, p: int) -> np.ndarray:
    """Index of the Lagrangian plane with Plucker coordinates Q (6 x n,
    reduced mod p), column by column."""
    q01, q02, q03, q12, q13, q23 = Q
    # <v, w> = p03 - 3 p12 for J
    if ((q03 - 3 * q12) % p).any():
        raise InternalConsistencyError("image of a plane is not Lagrangian")
    inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=Q.dtype)
    p2, p3 = p * p, p ** 3
    out = np.full(Q.shape[1], p3 + p2 + p, dtype=np.int64)
    fam_a = q01 != 0
    d = inv[q01[fam_a]]
    out[fam_a] = (((-q12[fam_a] * d % p) * p + (-q13[fam_a] * d % p)) * p
                  + q02[fam_a] * d % p)
    fam_b = ~fam_a & (q02 != 0)
    d = inv[q02[fam_b]]
    out[fam_b] = p3 + (q12[fam_b] * d % p) * p + (-q23[fam_b] * d % p)
    fam_c = ~(fam_a | fam_b) & (q13 != 0)
    out[fam_c] = p3 + p2 + q23[fam_c] * inv[q13[fam_c]] % p
    fam_d = ~(fam_a | fam_b | fam_c)
    if not q23[fam_d].all():
        raise InternalConsistencyError("image of a plane is not 2-dimensional")
    return out


def permutation(M: Matrix) -> np.ndarray:
    """The permutation induced by M on the canonical index set of X(F_p),
    p = M.m: the exterior square of M acts on the Plucker coordinates of
    every point at once, and _decode names the images."""
    p = M.m
    if p <= 3:
        raise UnsupportedPrimeError(f"p must be > 3, got {p}")
    require_memory(grassmannian_size(p))
    J = form_J(p)
    if M.transpose() * J * M != J:
        raise DomainError("matrix is not symplectic for J")
    m = np.array(M.rows, dtype=np.int64)
    wedge = np.array([[m[i, k] * m[j, l] - m[i, l] * m[j, k] for k, l in _PAIRS]
                      for i, j in _PAIRS]) % p
    Q = wedge.astype(np.int32) @ _plucker(p)
    Q %= p
    out = _decode(Q, p)
    # every index is the image of exactly one point (np.unique, which
    # hashes in numpy 2.4, took 0.7 s of 0.8 s here at p = 97)
    if not (np.bincount(out, minlength=len(out)) == 1).all():
        raise InternalConsistencyError("action is not a bijection")
    return out


def cycle_type(perm: np.ndarray) -> Dict[int, int]:
    """{cycle length: number of cycles} of a permutation, by pointer
    doubling: least[i] is the least of the 2^k points from i on, and jump
    is perm^(2^k).  While a cycle is longer than 2^k, least still changes
    2^k steps before its minimum, so the first round that changes nothing
    has found every cycle's minimum, where the cycle is counted."""
    least, jump = np.minimum(np.arange(len(perm)), perm), perm[perm]
    while ((step := np.minimum(least, least[jump])) != least).any():
        least, jump = step, jump[jump]
    cycles = np.bincount(np.bincount(least))      # cycles[L]: cycles of length L
    return {int(k): int(cycles[k]) for k in np.flatnonzero(cycles[1:]) + 1}


def fixed_points(perm: np.ndarray) -> int:
    """Number of points a permutation fixes."""
    return int(np.count_nonzero(perm == np.arange(len(perm))))


# -- Schreier-Sims on Schreier vectors ----------------------------------------

#: Schreier-vector labels of a point off the orbit and of the base point.
_OUTSIDE, _ROOT = -1, -2
#: Seed of the product-replacement random elements, and how many of them in
#: a row must sift to the identity before the known-order search gives up
#: and verifies every Schreier generator instead.
_SEED = 2026
_TRIVIAL_SIFTS = 40


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix every earlier base point (with their inverses), and the
    Schreier vector of the base point's orbit under them.  labels[y] is the
    index k of a generator that maps the point invs[k][y], nearer the base,
    to y; _ROOT at the base and _OUTSIDE off the orbit."""

    def __init__(self, base: int, n: int):
        self.base = base
        self.gens: List[np.ndarray] = []
        self.invs: List[np.ndarray] = []
        self.labels = np.full(n, _OUTSIDE, dtype=np.int32)
        self.labels[base] = _ROOT
        self.size = 1

    def add(self, g: np.ndarray, g_inv: np.ndarray) -> None:
        """Take g as a generator and close the orbit under it, breadth
        first from the current orbit."""
        self.gens.append(g)
        self.invs.append(g_inv)
        labels = self.labels
        frontier = np.flatnonzero(labels != _OUTSIDE)
        while frontier.size:
            reached = []
            for k, h in enumerate(self.gens):
                img = h[frontier]
                new = img[labels[img] == _OUTSIDE]
                labels[new] = k
                reached.append(new)
            frontier = np.unique(np.concatenate(reached))
            self.size += frontier.size

    def coset_rep(self, x: int, ident: np.ndarray) -> np.ndarray:
        """The element that the labels map the base point to x with."""
        path = []
        k = int(self.labels[x])
        while k != _ROOT:
            path.append(k)
            x = int(self.invs[k][x])
            k = int(self.labels[x])
        u = ident
        for k in reversed(path):
            u = self.gens[k][u]
        return u


def _sift(g: np.ndarray, chain: List[_Level], start: int = 0):
    """Strip g through chain[start:], which g's first base points must fix;
    returns (residue, level it left the chain at, or len(chain))."""
    for lvl in range(start, len(chain)):
        level = chain[lvl]
        y = int(g[level.base])
        k = int(level.labels[y])
        if k == _OUTSIDE:
            return g, lvl
        # g <- u_y^-1 g, one generator of the path to the base at a time
        while k != _ROOT:
            inv = level.invs[k]
            g = inv[g]
            y = int(inv[y])
            k = int(level.labels[y])
    return g, len(chain)


def _add_strong(chain: List[_Level], g: np.ndarray, lvl: int,
                ident: np.ndarray) -> None:
    """Add a sift residue g that left the chain at lvl: it fixes the base
    points of chain[:lvl], so it generates on those levels and on lvl,
    which is new when g got through the whole chain."""
    if lvl == len(chain):
        chain.append(_Level(int(np.flatnonzero(g != ident)[0]), len(g)))
    g_inv = np.empty_like(g)
    g_inv[g] = ident
    for level in chain[:lvl + 1]:
        level.add(g, g_inv)


def _reached(chain: List[_Level], bound: int) -> bool:
    """Whether the chain's order, a lower bound on the group's, equals
    bound.  Exceeding it contradicts the caller's upper bound."""
    lower = math.prod(level.size for level in chain)
    if lower == bound:
        return True
    if lower > bound:
        raise InternalConsistencyError(
            f"group order is at least {lower}, above the bound {bound}")
    return False


def _random_elements(generators: List[np.ndarray], rng: random.Random):
    """Product replacement with an accumulator: ten slots filled with the
    generators, each step multiplies one slot by another, and the
    accumulator by the new slot; the accumulators are the elements."""
    slots = [generators[i % len(generators)] for i in range(10)]
    acc = slots[0]
    step = 0
    while True:
        i, j = rng.sample(range(len(slots)), 2)
        slots[i] = slots[i][slots[j]] if rng.random() < 0.5 else slots[j][slots[i]]
        acc = acc[slots[i]]
        step += 1
        if step > 50:                   # past the warm-up
            yield acc


def _first_failure(chain: List[_Level], lvl: int, gens: List[np.ndarray],
                   ident: np.ndarray) -> Optional[int]:
    """Sift the Schreier generators of chain[lvl] made from gens, which
    generate the group of the level; the first nontrivial residue joins the
    chain, and the level it left the chain at is returned."""
    level = chain[lvl]
    for x in np.flatnonzero(level.labels != _OUTSIDE):
        u = level.coset_rep(int(x), ident)
        for g in gens:
            k = int(level.labels[g[x]])
            if k >= 0 and level.gens[k] is g:   # a tree edge: u_{g(x)} = g u_x
                continue
            res, out = _sift(g[u], chain, lvl)
            if not np.array_equal(res, ident):
                _add_strong(chain, res, out, ident)
                return out
    return None


def _verify(chain: List[_Level], gens: List[np.ndarray],
            ident: np.ndarray) -> None:
    """Verify the chain deepest level first, by Schreier's lemma: the
    stabilizer of the base point in the group a level's generators
    generate is generated by the Schreier generators, so they all sift
    through the levels below it.  The top level's group is the whole
    group, which gens generate with fewer Schreier generators.  A new
    strong generator fixes the base points above the level it joined at,
    so the levels below that one stay verified, and verification resumes
    there."""
    lvl = len(chain) - 1
    while lvl >= 0:
        failed = _first_failure(chain, lvl, gens if lvl == 0 else chain[lvl].gens,
                                ident)
        lvl = lvl - 1 if failed is None else failed


def _stabilizer_chain(generators: List[np.ndarray],
                      bound: Optional[int] = None) -> List[_Level]:
    """The stabilizer chain behind group_order."""
    n = len(generators[0])
    require_memory(n)
    ident = np.arange(n)
    gens = [g for g in generators if not np.array_equal(g, ident)]
    chain: List[_Level] = []
    for g in gens:
        res, lvl = _sift(g, chain)
        if not np.array_equal(res, ident):
            _add_strong(chain, res, lvl, ident)
    if bound is not None and gens:
        if _reached(chain, bound):
            return chain
        trivial = 0
        for g in _random_elements(gens, random.Random(_SEED)):
            res, lvl = _sift(g, chain)
            if np.array_equal(res, ident):
                trivial += 1
                if trivial == _TRIVIAL_SIFTS:
                    break
                continue
            trivial = 0
            _add_strong(chain, res, lvl, ident)
            if _reached(chain, bound):
                return chain
    _verify(chain, gens, ident)
    if bound is not None:
        _reached(chain, bound)
    return chain


def group_order(generators: List[np.ndarray],
                bound: Optional[int] = None) -> int:
    """Order of the permutation group the generators generate, from a
    Schreier-Sims stabilizer chain with Schreier vectors.

    Base points are the smallest point the new strong generator moves.
    Without ``bound`` every Schreier generator is sifted, and the order is
    exact.  ``bound`` must be an upper bound on the order: random elements
    from a fixed seed are sifted first, and the search stops once the
    product of the orbit lengths, a lower bound on the order, reaches it.
    If _TRIVIAL_SIFTS elements in a row sift to the identity first, every
    Schreier generator is sifted after all.  A lower bound above ``bound``
    raises InternalConsistencyError.
    """
    if not generators:
        return 1
    return math.prod(level.size for level in _stabilizer_chain(generators, bound))


@dataclass(frozen=True)
class SurjectivityVerdict:
    p: int
    x: int
    order_T: int                 # matrix order of rho(T) in Sp4(F_p)
    perm_group_order: int        # order of <rho(S), rho(T)> acting on X(F_p)
    surjective_psp4: bool        # perm_group_order == |Sp4(F_p)| / 2


def matrix_order(M: Matrix, exponent: int) -> int:
    """Multiplicative order of M, given an exponent with M^exponent = I:
    each prime q of the exponent is divided out while M^(order/q) = I."""
    if not (M ** exponent).is_identity():
        raise InternalConsistencyError(f"matrix power {exponent} is not the identity")
    order = exponent
    for q in factorize(exponent):
        while order % q == 0 and (M ** (order // q)).is_identity():
            order //= q
    return order


def surjectivity_verdict(params: SpParams, perm_s: np.ndarray,
                         perm_t: np.ndarray) -> SurjectivityVerdict:
    """perm_s, perm_t are the permutations of X(F_p) under rho(S), rho(T)."""
    p = params.p
    _, T4 = rho_matrices(params)
    order_T = matrix_order(T4, p * (p - 1))
    order = group_order([perm_s, perm_t], bound=sp4_order(p) // 2)
    return SurjectivityVerdict(p, params.x % p, order_T, order,
                               order == sp4_order(p) // 2)


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
    p = params.p
    m2 = p * p
    Mpow = Matrix(_t_rows(params.x, params.resolved_y(m2), m2), m2) ** (p * (p - 1))
    return Matrix(Mpow.rows, p).is_identity() and not Mpow.is_identity()
