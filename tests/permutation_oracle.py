"""The permutation of X(F_p) that a matrix induces, and the exact order of
a permutation group by Schreier-Sims, on plain lists.

The exact order that surjectivity_verdict measured on X(F_p)
before the chain now in schreier_oracle.py measured the matrix group on
F_p^4, kept as the oracle of that chain and of the counts of fixed
Lagrangians: it builds a list of the n = (p^2+1)(p+1) points.
A point is its index in the canonical order (A by (a,b,c), then B,
C, D), and a permutation is the plain list of images: the exterior square
of M maps each row of points, whose Plucker coordinates are affine in one
coordinate, to a row of images, and each image is decoded back to an
index.  Each level of the stabilizer chain keeps a Schreier vector, O(n)
memory, in place of n coset representatives, and a product of
permutations g u is list(map(g.__getitem__, u)).  That is 20 times
slower than the numpy arrays it ran on before (18 s on Sp4(13)), so the
tests give it groups it measures in a few seconds at most, and the full
groups to schreier_oracle.py.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from phicong.errors import DomainError, InternalConsistencyError
from phicong.matrices import Matrix
from phicong.rationals import grassmannian_size, require_prime
from phicong.symplectic import form_J

from geometry_oracle import wedge

#: Estimated memory, in bytes, above which the oracles refuse to build
#: permutations of X(F_p) (DomainError).
MEMORY_LIMIT = 1 << 30
# An upper bound on the peak memory per point of the exact order here:
# two permutations and the stabilizer chain, all lists of Python ints.
# Under tracemalloc, permutations included, it peaked at 337, 472 and 594
# bytes per point at (p, x) = (13, 1), (13, 3) and (11, 2).  It admits p
# up to 113.
_BYTES_PER_POINT = 700


def require_memory(n: int) -> None:
    """Refuse to work on n points when the estimate exceeds MEMORY_LIMIT."""
    need = _BYTES_PER_POINT * n
    if need > MEMORY_LIMIT:             # a float, or str, cannot show every n
        about = (f"{n} points needs about {need / 2 ** 30:.1f} GiB" if need < 2 ** 1000
                 else f"2^{n.bit_length() - 1} points or more needs more")
        raise DomainError(f"working on {about}, above the {MEMORY_LIMIT >> 30} GiB limit")


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
    if Matrix(zip(*M.rows), M.m) * J * M != J:
        raise DomainError("matrix is not symplectic for J")
    inv = [0] + [pow(v, -1, p) for v in range(1, p)]
    out: List[int] = []
    append = out.append
    for alpha, beta, count in _image_rows(wedge(M), p):
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



#: Schreier-vector labels of a point off the orbit and of the base point.
_OUTSIDE, _ROOT = -1, -2


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix every earlier base point (with their inverses), and the
    Schreier vector of the base point's orbit under them.  labels[y] is the
    index k of a generator that maps the point invs[k][y], nearer the base,
    to y; _ROOT at the base and _OUTSIDE off the orbit."""

    def __init__(self, base: int, n: int):
        self.base = base
        self.gens: List[List[int]] = []
        self.invs: List[List[int]] = []
        self.labels = [_OUTSIDE] * n
        self.labels[base] = _ROOT
        self.size = 1

    def add(self, g: List[int], g_inv: List[int]) -> None:
        """Take g as a generator and close the orbit under it, breadth
        first from the current orbit."""
        self.gens.append(g)
        self.invs.append(g_inv)
        labels = self.labels
        frontier = [y for y, k in enumerate(labels) if k != _OUTSIDE]
        while frontier:
            reached = []
            for k, h in enumerate(self.gens):
                for y in frontier:
                    z = h[y]
                    if labels[z] == _OUTSIDE:
                        labels[z] = k
                        reached.append(z)
            frontier = reached
            self.size += len(frontier)

    def coset_rep(self, x: int, ident: List[int]) -> List[int]:
        """The element that the labels map the base point to x with."""
        path = []
        k = self.labels[x]
        while k != _ROOT:
            path.append(k)
            x = self.invs[k][x]
            k = self.labels[x]
        u = ident
        for k in reversed(path):
            u = list(map(self.gens[k].__getitem__, u))
        return u


def _sift(g: List[int], chain: List[_Level], start: int = 0):
    """Strip g through chain[start:], which g's first base points must fix;
    returns (residue, level it left the chain at, or len(chain))."""
    for lvl in range(start, len(chain)):
        level = chain[lvl]
        y = g[level.base]
        k = level.labels[y]
        if k == _OUTSIDE:
            return g, lvl
        # g <- u_y^-1 g, one generator of the path to the base at a time
        while k != _ROOT:
            inv = level.invs[k]
            g = list(map(inv.__getitem__, g))
            y = inv[y]
            k = level.labels[y]
    return g, len(chain)


def _add_strong(chain: List[_Level], g: List[int], lvl: int) -> None:
    """Add a sift residue g that left the chain at lvl: it fixes the base
    points of chain[:lvl], so it generates on those levels and on lvl,
    which is new when g got through the whole chain."""
    if lvl == len(chain):
        chain.append(_Level(next(i for i, y in enumerate(g) if y != i), len(g)))
    g_inv = [0] * len(g)
    for i, y in enumerate(g):
        g_inv[y] = i
    for level in chain[:lvl + 1]:
        level.add(g, g_inv)


def _first_failure(chain: List[_Level], lvl: int, gens: List[List[int]],
                   ident: List[int]) -> Optional[int]:
    """Sift the Schreier generators of chain[lvl] made from gens, which
    generate the group of the level; the first nontrivial residue joins the
    chain, and the level it left the chain at is returned."""
    level = chain[lvl]
    for x in [y for y, k in enumerate(level.labels) if k != _OUTSIDE]:
        u = level.coset_rep(x, ident)
        for g in gens:
            k = level.labels[g[x]]
            if k >= 0 and level.gens[k] is g:   # a tree edge: u_{g(x)} = g u_x
                continue
            res, out = _sift(list(map(g.__getitem__, u)), chain, lvl)
            if res != ident:
                _add_strong(chain, res, out)
                return out
    return None


def _stabilizer_chain(generators: List[List[int]]) -> List[_Level]:
    """The stabilizer chain behind group_order: the generators' sift
    residues start it, and it is verified deepest level first, by
    Schreier's lemma: the stabilizer of the base point in the group a
    level's generators generate is generated by the Schreier generators,
    so they all sift through the levels below it.  The top level's group
    is the whole group, which gens generate with fewer Schreier
    generators.  A new strong generator fixes the base points above the
    level it joined at, so the levels below that one stay verified, and
    verification resumes there."""
    ident = list(range(len(generators[0])))
    gens = [g for g in generators if g != ident]
    chain: List[_Level] = []
    for g in gens:
        res, lvl = _sift(g, chain)
        if res != ident:
            _add_strong(chain, res, lvl)
    lvl = len(chain) - 1
    while lvl >= 0:
        failed = _first_failure(chain, lvl, gens if lvl == 0 else chain[lvl].gens,
                                ident)
        lvl = lvl - 1 if failed is None else failed
    return chain


def group_order(generators: Sequence[Sequence[int]]) -> int:
    """Exact order of the permutation group the generators, lists of
    images, generate, from a Schreier-Sims stabilizer chain with Schreier
    vectors.  Base points are the smallest point the new strong generator
    moves, and every Schreier generator is sifted."""
    if not generators:
        return 1
    require_memory(len(generators[0]))
    chain = _stabilizer_chain([list(g) for g in generators])
    return math.prod(level.size for level in chain)
