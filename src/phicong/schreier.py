"""Exact order of a permutation group by Schreier-Sims, on numpy arrays.

The fallback of symplectic.surjectivity_verdict when generates_sp4 finds
no proof, and the exact order that the tests compare the proof with.  It
is the one module that imports numpy: the Grassmannian verbs load it only
when they get here.  Each level of the stabilizer chain keeps a Schreier
vector, O(n) memory, in place of n coset representatives.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .symplectic import require_memory


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


def _stabilizer_chain(generators: List[np.ndarray]) -> List[_Level]:
    """The stabilizer chain behind group_order: the generators' sift
    residues start it, and it is verified deepest level first, by
    Schreier's lemma: the stabilizer of the base point in the group a
    level's generators generate is generated by the Schreier generators,
    so they all sift through the levels below it.  The top level's group
    is the whole group, which gens generate with fewer Schreier
    generators.  A new strong generator fixes the base points above the
    level it joined at, so the levels below that one stay verified, and
    verification resumes there."""
    ident = np.arange(len(generators[0]))
    gens = [g for g in generators if not np.array_equal(g, ident)]
    chain: List[_Level] = []
    for g in gens:
        res, lvl = _sift(g, chain)
        if not np.array_equal(res, ident):
            _add_strong(chain, res, lvl, ident)
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
    chain = _stabilizer_chain([np.array(g, dtype=np.int64) for g in generators])
    return math.prod(level.size for level in chain)

