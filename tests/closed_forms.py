"""Independent closed-form oracles for the S- and R-actions on the
Lagrangian Grassmannian, transcribed case by case, with the oracle's own
names for the points of X(F_p).  Used to check permutation_oracle.permutation,
which acts on Plucker coordinates instead, at every point.  Also the
antisymmetric forms that rho(S) and rho(T) preserve, by elimination over
F_p: J spans them, so X(F_p) is the Lagrangian Grassmannian for J.  And
two closed forms no command computes: Newman's genus formula and the
group orders that witness noncongruence."""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from phicong.errors import DomainError
from phicong.matrices import Matrix
from phicong.rationals import factorize, grassmannian_size, require_prime, sp4_order
from phicong.symplectic import _PAIRS, SpParams, rho_matrices

from permutation_oracle import permutation


@dataclass(frozen=True)
class Lagrangian:
    """Tagged Lagrangian plane: kind 'A' (a,b,c), 'B' (a,b), 'C' (a,), 'D' ()."""

    kind: str
    coords: Tuple[int, ...]

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


def s_action(L: Lagrangian, p: int, x: int, y: int) -> Lagrangian:
    def inv(v):
        return pow(v % p, -1, p)

    if L.kind == "A":
        a, b, c = L.coords
        den = (3 * a * a + b * c) % p
        if den:
            d = inv(den)
            return Lagrangian("A", ((-a * x * y * d) % p,
                                    (-c * x * x * d) % p,
                                    (-b * y * y * d) % p))
        if b % p:
            return Lagrangian("B", ((-a * x * inv(b * y)) % p,
                                    (-x * x * inv(b)) % p))
        if a % p == 0 and b % p == 0 and c % p:
            return Lagrangian("C", ((-y * y * inv(c)) % p,))
        return Lagrangian("D", ())
    if L.kind == "B":
        a, b = L.coords
        if b % p:
            d = inv(b)
            return Lagrangian("A", ((a * x * y * d) % p,
                                    (-x * x * d) % p,
                                    (3 * a * a * y * y * d) % p))
        if a % p:
            return Lagrangian("B", ((-x * inv(3 * a * y)) % p, 0))
        return Lagrangian("C", (0,))
    if L.kind == "C":
        (a,) = L.coords
        if a % p:
            return Lagrangian("A", (0, 0, (-y * y * inv(a)) % p))
        return Lagrangian("B", (0, 0))
    return Lagrangian("A", (0, 0, 0))


def r_action(L: Lagrangian, p: int, x: int, y: int) -> Lagrangian:
    def inv(v):
        return pow(v % p, -1, p)

    if L.kind == "A":
        a, b, c = L.coords
        den = (3 * a * a + b * c) % p
        if den:
            d = inv(den)
            a2 = (-x * y * (a * x * y + b * y * y + den) * d) % p
            b2 = (x * x * (6 * a * x * y + 3 * b * y * y + 6 * a * a
                           + 2 * b * c - c * x * x) * d) % p
            c2 = (-y * y * (b * y * y + 6 * a * a + 2 * b * c) * d) % p
            return Lagrangian("A", (a2, b2, c2))
        if b % p:
            d = inv(b * y * y)
            a2 = (-x * (a * x + b * y) * d) % p
            b2 = (x * x * (6 * a * a * x * x + 6 * a * b * x * y
                           + 2 * b * b * y * y - b * x * x * y * y)
                  * inv(b * b * y * y)) % p
            return Lagrangian("B", (a2, b2))
        if a % p == 0 and b % p == 0 and c % p:
            return Lagrangian("C", ((-(y ** 4 + 2 * c * y * y) * inv(c)) % p,))
        return Lagrangian("D", ())
    if L.kind == "B":
        a, b = L.coords
        if b % p:
            d = inv(b)
            a2 = (x * y * (3 * a * a * y * y + a * x * y - b) * d) % p
            b2 = (x * x * (2 * b - 9 * a * a * y * y - 6 * a * x * y
                           - x * x) * d) % p
            c2 = (y * y * (3 * a * a * y * y - 2 * b) * d) % p
            return Lagrangian("A", (a2, b2, c2))
        if a % p:
            a2 = (-x * (3 * a * y + x) * inv(3 * a * y * y)) % p
            b2 = (x * x * (18 * a * a * y * y + 18 * a * x * y
                           + 6 * x * x) * inv(9 * a * a * y * y)) % p
            return Lagrangian("B", (a2, b2))
        return Lagrangian("C", ((-2 * y * y) % p,))
    if L.kind == "C":
        (a,) = L.coords
        if a % p:
            d = inv(a)
            return Lagrangian("A", ((-x * y * (y * y + a) * d) % p,
                                    (x * x * (3 * y * y + 2 * a) * d) % p,
                                    (-y * y * (y * y + 2 * a) * d) % p))
        return Lagrangian("B", ((-x * inv(y)) % p, (2 * x * x) % p))
    return Lagrangian("A", ((-x * y) % p, (2 * x * x) % p, (-2 * y * y) % p))


def assert_matches_closed_forms(p: int, x: int) -> None:
    """permutation(rho(S)) and permutation(rho(S) rho(T)) agree with
    s_action and r_action at every point of X(F_p)."""
    params = SpParams(p, x)
    y = params.resolved_y(p)
    S4, T4 = rho_matrices(params)
    perm_s, perm_r = permutation(S4), permutation(S4 * T4)
    n = grassmannian_size(p)
    assert len(perm_s) == len(perm_r) == n
    for i in range(n):
        L = lagrangian_from_index(i, p)
        assert perm_s[i] == s_action(L, p, x, y).index(p), (p, x, L)
        assert perm_r[i] == r_action(L, p, x, y).index(p), (p, x, L)


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
    p = S4.m

    def antisym(vec):
        g = [[0] * 4 for _ in range(4)]
        for (i, j), v in zip(_PAIRS, vec):
            g[i][j], g[j][i] = v, -v
        return Matrix(g, p)

    # nullspace of the stacked 12x6 system over F_p: unknowns are the six
    # coefficients lambda_k, equations run over (matrix, entry position)
    units = [antisym([int(k == c) for c in range(6)]) for k in range(6)]
    A = [[(M.transpose() * G * M).rows[i][j] - G.rows[i][j] for G in units]
         for M in (S4, T4) for (i, j) in _PAIRS]
    pivots = rref_mod_p(A, p)
    basis = []
    for fcol in (c for c in range(6) if c not in pivots):
        vec = [0] * 6
        vec[fcol] = 1
        for i, c in enumerate(pivots):
            vec[c] = -A[i][fcol]
        basis.append(antisym(vec))
    return basis


def in_span(G: Matrix, basis: List[Matrix]) -> bool:
    """Whether antisymmetric G is an F_p-combination of the basis forms."""
    A = [[b.rows[i][j] for b in basis] + [G.rows[i][j]] for (i, j) in _PAIRS]
    # G is in the span iff the appended column carries no pivot
    return len(basis) not in rref_mod_p(A, G.m)


def genus_newman(index: int, N: int) -> Fraction:
    """g = 1 + index (N-6)/(24N) for a normal subgroup with branch
    schema (2,3,N); non-integrality means no such group exists."""
    if index < 1 or N < 1:
        raise DomainError("index and N must be positive")
    return 1 + Fraction(index * (N - 6), 24 * N)


@dataclass(frozen=True)
class NoncongruenceReport:
    p: int
    level: int             # p(p-1), the putative congruence level
    sl2_order: int         # |SL_2(Z / p(p-1))|
    sp4_order: int         # |Sp_4(F_p)|
    psp4_order: int
    witness: bool          # psp4_order > sl2_order, forcing noncongruence


def noncongruence_report(p: int) -> NoncongruenceReport:
    """|SL_2(Z/p(p-1))| vs |PSp_4(F_p)|: the image is too large to factor
    through any congruence quotient of the candidate level."""
    require_prime(p, 7)
    n = p * (p - 1)
    sl2 = n ** 3
    for ell in factorize(n):
        sl2 = sl2 // (ell * ell) * (ell * ell - 1)
    sp4 = sp4_order(p)
    return NoncongruenceReport(p, n, sl2, sp4, sp4 // 2, sp4 // 2 > sl2)
