"""The rank-4 symplectic family rho over F_p and the Lagrangian
Grassmannian X(F_p) it acts on.

rho(T) and rho(S) preserve the symplectic form J with (1,4)-entry 1 and
(2,3)-entry -3.  X(F_p) splits into four families of Lagrangian planes
A(a,b,c), B(a,b), C(a), D with |X(F_p)| = (p^2+1)(p+1); the permutation
action is materialized on a canonical index set and the subgroup
generated by rho(S), rho(T) is measured with a deterministic
Schreier-Sims stabilizer chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cyclotomic import ModInt
from .errors import DomainError, InternalConsistencyError, UnsupportedPrimeError
from .matrices import Matrix
from .rationals import require_prime
from .words import Word, eval_word


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

    def resolved_y(self) -> int:
        if self.y is not None:
            return self.y % self.p
        return pow(self.x, -1, self.p)


#: Estimated memory, in bytes, above which the Grassmannian work refuses to
#: start (DomainError, exit 2 on the command line).
MEMORY_LIMIT = 1 << 30
# Peak RSS measured on the command line: 230-270 bytes per point to
# enumerate and permute X(F_p) (p = 31, 47), and 12-18 bytes per pair of
# points for Schreier-Sims, whose first transversal alone holds n
# permutations of n int64 entries (p = 11, 13, 17).
_BYTES_PER_POINT = 300
_BYTES_PER_PAIR = 20


def grassmannian_size(p: int) -> int:
    """|X(F_p)| = (p^2+1)(p+1)."""
    return (p * p + 1) * (p + 1)


def require_memory(n: int, schreier_sims: bool = False) -> None:
    """Refuse to permute n points, or with ``schreier_sims`` to run
    group_order on them, when the estimate exceeds MEMORY_LIMIT."""
    need = _BYTES_PER_POINT * n + (_BYTES_PER_PAIR * n * n if schreier_sims else 0)
    if need > MEMORY_LIMIT:
        what = "Schreier-Sims on" if schreier_sims else "permuting"
        raise DomainError(
            f"{what} {n} points needs about {need / 2 ** 30:.1f} GiB, "
            f"above the {MEMORY_LIMIT / 2 ** 30:.1f} GiB limit")


def form_J(p: int) -> Matrix:
    rows = [[0, 0, 0, 1], [0, 0, -3, 0], [0, 3, 0, 0], [-1, 0, 0, 0]]
    return Matrix([[ModInt(v, p) for v in r] for r in rows])


def rho_matrices(params: SpParams) -> Tuple[Matrix, Matrix]:
    """(rho(S), rho(T)) over F_p; verified symplectic for J with S^2 = -I."""
    p = params.p
    x = params.x % p
    y = params.resolved_y()
    xi, yi = pow(x, -1, p), pow(y, -1, p)
    t_rows = [[x, 3 * y, 3 * yi, xi],
              [0, y, 2 * yi, xi],
              [0, 0, yi, xi],
              [0, 0, 0, xi]]
    s_rows = [[0, 0, 0, -xi],
              [0, 0, yi, 0],
              [0, -y, 0, 0],
              [x, 0, 0, 0]]
    S4 = Matrix([[ModInt(v, p) for v in r] for r in s_rows])
    T4 = Matrix([[ModInt(v, p) for v in r] for r in t_rows])
    J = form_J(p)
    if S4.transpose() * J * S4 != J or T4.transpose() * J * T4 != J:
        raise InternalConsistencyError("rho matrices do not preserve J")
    if (S4 * S4) != Matrix([[ModInt(-1 if i == j else 0, p) for j in range(4)]
                            for i in range(4)]):
        raise InternalConsistencyError("rho(S)^2 != -I")
    return S4, T4


def rref_mod_p(rows: List[List[int]], p: int) -> List[int]:
    """Reduce rows to reduced row echelon form over F_p in place; returns
    the pivot columns.  Every row that holds a pivot ends up in range(p)."""
    m = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, m) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def invariant_forms(S4: Matrix, T4: Matrix) -> List[Matrix]:
    """Basis of the antisymmetric G with S4^T G S4 = G and T4^T G T4 = G.

    The 6-dimensional space of antisymmetric 4x4 matrices is coordinatized
    by the entries (1,2),(1,3),(1,4),(2,3),(2,4),(3,4); the returned basis
    is in reduced echelon form of the nullspace.
    """
    p = S4.rows[0][0].m
    positions = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def antisym(vec):
        g = [[0] * 4 for _ in range(4)]
        for (i, j), v in zip(positions, vec):
            g[i][j] = v % p
            g[j][i] = (-v) % p
        return Matrix([[ModInt(v, p) for v in r] for r in g])

    rows = []
    for M in (S4, T4):
        for k in range(6):
            e = [0] * 6
            e[k] = 1
            G = antisym(e)
            R = M.transpose() * G * M
            col = []
            for (i, j) in positions:
                col.append((R.rows[i][j] - G.rows[i][j]).v)
            rows.append(col)
    # nullspace of the stacked 12x6 system over F_p: unknowns are the six
    # coefficients lambda_k, equations run over (matrix, entry position)
    A = [[rows[blk * 6 + k][pos] % p for k in range(6)]
         for blk in range(2) for pos in range(6)]
    pivots = rref_mod_p(A, p)
    basis = []
    for fcol in (c for c in range(6) if c not in pivots):
        vec = [0] * 6
        vec[fcol] = 1
        for i, c in enumerate(pivots):
            vec[c] = (-A[i][fcol]) % p
        basis.append(antisym(vec))
    return basis


def in_span(G: Matrix, basis: List[Matrix]) -> bool:
    """Whether antisymmetric G is an F_p-combination of the basis forms."""
    p = G.rows[0][0].m
    positions = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    A = [[b.rows[i][j].v for b in basis] + [G.rows[i][j].v]
         for (i, j) in positions]
    # G is in the span iff the appended column carries no pivot
    return len(basis) not in rref_mod_p(A, p)


@dataclass(frozen=True)
class Lagrangian:
    """Tagged Lagrangian plane: kind 'A' (a,b,c), 'B' (a,b), 'C' (a,), 'D' ()."""

    kind: str
    coords: Tuple[int, ...]

    def spanning(self) -> Tuple[Tuple[int, int, int, int], Tuple[int, int, int, int]]:
        if self.kind == "A":
            a, b, c = self.coords
            return (1, 0, a, b), (0, 1, c, -3 * a)
        if self.kind == "B":
            a, b = self.coords
            return (1, a, 0, b), (0, 0, 1, 3 * a)
        if self.kind == "C":
            (a,) = self.coords
            return (0, 1, a, 0), (0, 0, 0, 1)
        if self.kind == "D":
            return (0, 0, 1, 0), (0, 0, 0, 1)
        raise DomainError(f"unknown Lagrangian kind {self.kind!r}")

    def index(self, p: int) -> int:
        if self.kind == "A":
            a, b, c = self.coords
            return (a * p + b) * p + c
        if self.kind == "B":
            a, b = self.coords
            return p ** 3 + a * p + b
        if self.kind == "C":
            return p ** 3 + p ** 2 + self.coords[0]
        return p ** 3 + p ** 2 + p


def lagrangian_from_index(idx: int, p: int) -> Lagrangian:
    if idx < p ** 3:
        c = idx % p
        a, b = divmod(idx // p, p)
        return Lagrangian("A", (a, b, c))
    idx -= p ** 3
    if idx < p ** 2:
        return Lagrangian("B", divmod(idx, p))
    idx -= p ** 2
    if idx < p:
        return Lagrangian("C", (idx,))
    if idx == p:
        return Lagrangian("D", ())
    raise DomainError("index out of range")


def _is_isotropic(v: Tuple[int, ...], w: Tuple[int, ...], p: int) -> bool:
    # <v,w> for J: v1w4 - v4w1 - 3(v2w3 - v3w2)
    s = v[0] * w[3] - v[3] * w[0] - 3 * (v[1] * w[2] - v[2] * w[1])
    return s % p == 0


def lagrangians(p: int) -> List[Lagrangian]:
    """All (p^2+1)(p+1) points of X(F_p) in canonical enumeration order."""
    if p <= 3:
        raise UnsupportedPrimeError(f"p must be > 3, got {p}")
    require_memory(grassmannian_size(p))
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                out.append(Lagrangian("A", (a, b, c)))
    for a in range(p):
        for b in range(p):
            out.append(Lagrangian("B", (a, b)))
    for a in range(p):
        out.append(Lagrangian("C", (a,)))
    out.append(Lagrangian("D", ()))
    if len(out) != grassmannian_size(p):
        raise InternalConsistencyError("Grassmannian point count mismatch")
    return out


def _matrix_rows(M: Matrix) -> List[List[int]]:
    return [[e.v for e in row] for row in M.rows]


def _classify(plane: List[List[int]], pivots: List[int], p: int) -> Lagrangian:
    """The Lagrangian spanned by the two rows of plane, which rref_mod_p
    has reduced with the given pivot columns."""
    if len(pivots) != 2:
        raise InternalConsistencyError("image of a plane is not 2-dimensional")
    r0, r1 = plane
    piv = tuple(pivots)
    if piv == (0, 1):
        a, b, c = r0[2], r0[3], r1[2]
        if r1[3] % p != (-3 * a) % p:
            raise InternalConsistencyError("non-Lagrangian image in family A")
        return Lagrangian("A", (a, b, c))
    if piv == (0, 2):
        a, b = r0[1], r0[3]
        if r1[3] % p != (3 * a) % p:
            raise InternalConsistencyError("non-Lagrangian image in family B")
        return Lagrangian("B", (a, b))
    if piv == (1, 3):
        if r0[3] % p:
            raise InternalConsistencyError("non-Lagrangian image in family C")
        return Lagrangian("C", (r0[2],))
    if piv == (2, 3):
        return Lagrangian("D", ())
    raise InternalConsistencyError(f"unclassifiable pivot pattern {piv}")


def act_subspace(M: Matrix, L: Lagrangian) -> Lagrangian:
    """Image of a Lagrangian plane under a symplectic matrix."""
    p = M.rows[0][0].m
    rows = _matrix_rows(M)
    v, w = L.spanning()
    mv = [sum(rows[i][k] * v[k] for k in range(4)) % p for i in range(4)]
    mw = [sum(rows[i][k] * w[k] for k in range(4)) % p for i in range(4)]
    plane = [mv, mw]
    return _classify(plane, rref_mod_p(plane, p), p)


def permutation(M: Matrix, p: int) -> np.ndarray:
    """The permutation induced by M on the canonical index set of X(F_p)."""
    J = form_J(p)
    if M.transpose() * J * M != J:
        raise DomainError("matrix is not symplectic for J")
    rows = _matrix_rows(M)
    points = lagrangians(p)
    n = len(points)
    out = np.empty(n, dtype=np.int64)
    for idx, L in enumerate(points):               # idx == L.index(p)
        v, w = L.spanning()
        mv = [sum(rows[i][k] * v[k] for k in range(4)) % p for i in range(4)]
        mw = [sum(rows[i][k] * w[k] for k in range(4)) % p for i in range(4)]
        plane = [mv, mw]
        out[idx] = _classify(plane, rref_mod_p(plane, p), p).index(p)
    if len(np.unique(out)) != n:
        raise InternalConsistencyError("action is not a bijection")
    return out


def cycle_type(perm: np.ndarray) -> Dict[int, int]:
    """{cycle length: number of cycles} of a permutation."""
    n = len(perm)
    seen = np.zeros(n, dtype=bool)
    counts: Dict[int, int] = {}
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = int(perm[j])
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return counts


def fixed_and_orders(perm: np.ndarray) -> Tuple[int, int]:
    """(number of fixed points, multiplicative order of the permutation)."""
    counts = cycle_type(perm)
    return counts.get(1, 0), lcm(*counts)


# -- deterministic Schreier-Sims --------------------------------------------

def _sift(g: np.ndarray, bases: List[int], transversals: List[dict]):
    """Sift g through the chain; returns (residue, level reached)."""
    for lvl, (b, tr) in enumerate(zip(bases, transversals)):
        img = int(g[b])
        if img not in tr:
            return g, lvl
        u = tr[img]
        # replace g by u^-1 g : (u^-1 g)[i] = index of g[i] in u
        uinv = np.empty_like(u)
        uinv[u] = np.arange(len(u))
        g = uinv[g]
    return g, len(bases)


def group_order(generators: List[np.ndarray]) -> int:
    """Order of the permutation group via a Schreier-Sims stabilizer chain.

    Deterministic: base points are chosen as the smallest moved point in
    enumeration order; verification recomputes every Schreier generator.
    """
    if not generators:
        return 1
    n = len(generators[0])
    require_memory(n, schreier_sims=True)
    ident = np.arange(n)
    bases: List[int] = []
    transversals: List[dict] = []
    strong: List[List[np.ndarray]] = []      # generators attached per level

    def add_generator(g: np.ndarray, level: int):
        g, lvl = _sift(g, bases, transversals)
        if np.array_equal(g, ident):
            return None
        if lvl == len(bases):
            moved = int(np.nonzero(g != ident)[0][0])
            bases.append(moved)
            transversals.append({moved: ident.copy()})
            strong.append([])
        strong[lvl].append(g)
        return lvl

    def rebuild_orbit(level: int):
        b = bases[level]
        gens = [g for l in range(level, len(bases)) for g in strong[l]]
        tr = {b: ident.copy()}
        frontier = [b]
        while frontier:
            nxt = []
            for x in frontier:
                u = tr[x]
                for g in gens:
                    y = int(g[x])
                    if y not in tr:
                        tr[y] = g[u]
                        nxt.append(y)
            frontier = nxt
        transversals[level] = tr

    for g in generators:
        if not np.array_equal(g, ident):
            lvl = add_generator(g.copy(), 0)
            if lvl is not None:
                rebuild_orbit(lvl)

    if not bases:
        return 1

    level = len(bases) - 1
    while level >= 0:
        rebuild_orbit(level)
        b = bases[level]
        tr = transversals[level]
        gens = [g for l in range(level, len(bases)) for g in strong[l]]
        failed = None
        for x, u in list(tr.items()):
            for g in gens:
                y = int(g[x])
                gu = g[u]
                uinv = np.empty_like(gu)
                uy = tr[y]
                uinv[uy] = ident
                schreier = uinv[gu]
                if np.array_equal(schreier, ident):
                    continue
                res, lvl = _sift(schreier, bases, transversals)
                if not np.array_equal(res, ident):
                    failed = add_generator(schreier, 0)
                    break
            if failed is not None:
                break
        if failed is not None:
            # a new strong generator landed at level `failed`; deeper levels
            # are unaffected, so resume verification there
            for l in range(failed, len(bases)):
                rebuild_orbit(l)
            level = max(failed, level)
        else:
            level -= 1

    order = 1
    for tr in transversals:
        order *= len(tr)
    return order


def sp4_order(p: int) -> int:
    return p ** 4 * (p ** 4 - 1) * (p ** 2 - 1)


@dataclass(frozen=True)
class SurjectivityVerdict:
    p: int
    x: int
    order_T: int                 # matrix order of rho(T) in Sp4(F_p)
    perm_group_order: int        # order of <rho(S), rho(T)> acting on X(F_p)
    surjective_psp4: bool        # perm_group_order == |Sp4(F_p)| / 2


def matrix_order(M: Matrix, cap: int) -> int:
    """Multiplicative order of M by iteration, at most cap."""
    acc = M
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc * M
    raise DomainError(f"matrix order exceeds cap {cap}")


def surjectivity_verdict(params: SpParams, perm_s: np.ndarray,
                         perm_t: np.ndarray) -> SurjectivityVerdict:
    """perm_s, perm_t are the permutations of X(F_p) under rho(S), rho(T)."""
    p = params.p
    _, T4 = rho_matrices(params)
    order_T = matrix_order(T4, p * (p - 1))
    order = group_order([perm_s, perm_t])
    return SurjectivityVerdict(p, params.x % p, order_T, order,
                               order == sp4_order(p) // 2)


def kernel_test(w: Word, params: SpParams) -> bool:
    """True iff the word maps to the identity in Sp4(F_p)."""
    S4, T4 = rho_matrices(params)
    return eval_word(w, S4, T4).is_identity()


def lift_witness_mod_p2(params: SpParams) -> bool:
    """rho(T)^(p(p-1)) over Z/p^2 is trivial mod p but not mod p^2."""
    p = params.p
    m2 = p * p
    x = params.x % m2
    if x % p == 0:
        raise DomainError("x must be invertible mod p^2")
    y = params.y % m2 if params.y is not None else pow(x, -1, m2)
    xi, yi = pow(x, -1, m2), pow(y, -1, m2)
    t_rows = [[x, 3 * y, 3 * yi, xi],
              [0, y, 2 * yi, xi],
              [0, 0, yi, xi],
              [0, 0, 0, xi]]
    T4 = Matrix([[ModInt(v, m2) for v in r] for r in t_rows])
    Mpow = T4 ** (p * (p - 1))
    rows = _matrix_rows(Mpow)
    trivial_mod_p = all(rows[i][j] % p == (1 if i == j else 0)
                        for i in range(4) for j in range(4))
    return trivial_mod_p and not Mpow.is_identity()
