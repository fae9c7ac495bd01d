"""The exact order of a group of symplectic 4x4 matrices over F_p, the
fallback of symplectic.surjectivity_verdict when generates_sp4 finds no
proof: Schreier-Sims on F_p^4 (Butler, SYMSAC 1976) with an explicit
transversal, so a sift costs one product per level, and eigenvectors with
short orbits as base points (Murray and O'Brien, J. Symbolic Comput. 19,
1995).  A point is a vector v coded as ((v0 p + v1) p + v2) p + v3, and a
Matrix acts on columns.
"""

from __future__ import annotations

import math

from .matrices import Matrix
from .rationals import kernel_mod_p, roots_mod_p
from .symplectic import inverse, require_symplectic, trace_pair


def _image(g: Matrix, v: int) -> int:
    """The point g v, p = g.m."""
    p, out = g.m, 0
    v0, v1, v2, v3 = v // p ** 3, v // (p * p) % p, v // p % p, v % p
    for a, b, c, d in g.rows:
        out = out * p + (a * v0 + b * v1 + c * v2 + d * v3) % p
    return out


class _Level:
    """A base point, the strong generators that fix every earlier one, and
    its orbit under them: points[k] = reps[k] base, inv_reps[k] = reps[k]^-1,
    and edge[k] = (i, g) when reps[k] = g reps[i]."""

    def __init__(self, base: int, p: int):
        self.base, self.index, self.gens = base, {base: 0}, []
        self.points, self.edge = [base], [None]
        self.reps, self.inv_reps = [Matrix.identity(p)], [Matrix.identity(p)]

    def add(self, g: Matrix) -> None:
        """Take g as a generator and close the orbit: g on the old points,
        every generator on the points that join, which the loop reaches."""
        self.gens.append(g)
        old = len(self.points)
        for k, x in enumerate(self.points):
            for h in (g,) if k < old else self.gens:
                y = _image(h, x)
                if y not in self.index:
                    self.index[y] = len(self.points)
                    u = h * self.reps[k]
                    self.points.append(y)
                    self.reps.append(u)
                    self.inv_reps.append(inverse(u))
                    self.edge.append((k, h))


def _sift(g: Matrix, chain: list, start: int):
    """Strip g, which fixes the base points before start, through
    chain[start:]: (residue, the level it left the chain at), with None for
    a residue I, which at the last level means g = u_y."""
    for lvl, level in enumerate(chain[start:], start):
        k = level.index.get(_image(g, level.base))
        if k is None:
            return g, lvl
        if lvl == len(chain) - 1:
            return (None if g == level.reps[k] else level.inv_reps[k] * g), lvl + 1
        g = level.inv_reps[k] * g
    return (None if g.is_identity() else g), len(chain)


def _eigenvectors(g: Matrix) -> list:
    """A basis of each eigenspace of a symplectic g with an eigenvalue in
    F_p, a root of t^4 - a t^3 + b t^2 - a t + 1."""
    (a, b), p = trace_pair(g), g.m
    return [((v0 * p + v1) * p + v2) * p + v3 for mu in roots_mod_p([1, -a, b, -a, 1], p)
            for v0, v1, v2, v3 in kernel_mod_p(g.rows, p, mu)]


def _base_point(g: Matrix, gens: list, candidates: list) -> int:
    """Of the candidates and g's eigenvectors that g, a new level's first
    strong generator, moves, the one with the smallest orbit under gens (a
    group that holds the level's), each orbit counted up to 2p^2 + 2 points
    and up to the best so far; a standard basis vector if g moves none."""
    p = g.m
    best, best_size, counted = None, 2 * p * p + 3, set()
    for v in dict.fromkeys(candidates + _eigenvectors(g)):
        if v in counted or _image(g, v) == v:   # an orbit already counted
            continue
        orbit, todo = {v}, [v]
        while todo and len(orbit) < best_size:
            w = todo.pop()
            for y in (_image(h, w) for h in gens):
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        if len(orbit) < best_size:
            best, best_size = v, len(orbit)
            counted |= orbit
        elif best is None:
            best = v
    return best or next(e for e in (p ** 3, p * p, p, 1) if _image(g, e) != e)


def group_order(generators: list) -> int:
    """Exact order of the group of the generators, 4x4 matrices over F_p,
    p > 3 prime, that preserve J.  Their sift residues start the chain,
    verified deepest level first by Schreier's lemma: the Schreier
    generators u_(s y)^-1 s u_y of a level, s over its strong generators (on
    top, over the generators), must sift through the levels below."""
    gens = [g for g in generators if not g.is_identity()]
    if not gens:
        return 1
    require_symplectic(gens)            # and p = g.m a prime > 3 (inverse)
    chain = []
    # for <rho(S), rho(T)>: eigenvectors of rho(S), rho(T) and rho(S) rho(T)
    candidates = [v for g in (*gens, gens[0] * gens[-1]) for v in _eigenvectors(g)]

    def add_strong(g: Matrix, lvl: int) -> None:
        if lvl == len(chain):
            above = chain[-1].gens if chain else gens
            chain.append(_Level(_base_point(g, above, candidates), g.m))
        for level in chain[:lvl + 1]:
            level.add(g)

    def verify(lvl: int) -> int:
        """Sift the Schreier generators of chain[lvl]; the first that does not
        sift joins the chain at a level below which nothing changed, and
        verification resumes there, else at the level above."""
        level = chain[lvl]
        for s in gens if lvl == 0 else level.gens:
            for k, y in enumerate(level.points):
                j = level.index[_image(s, y)]
                if level.edge[j] == (k, s):     # u_(s y) = s u_y
                    continue
                res, out = _sift(level.inv_reps[j] * s * level.reps[k], chain, lvl + 1)
                if res is not None:
                    add_strong(res, out)
                    return out
        return lvl - 1

    for g in gens:
        res, lvl = _sift(g, chain, 0)
        if res is not None:
            add_strong(res, lvl)
    lvl = len(chain) - 1
    while lvl >= 0:
        lvl = verify(lvl)
    return math.prod(len(level.points) for level in chain)
