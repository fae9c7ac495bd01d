"""Test oracle: the cusp data and the lifting witness of rho as the
library computed them before their closed forms in x^2 mod p (README,
"How fixed Lagrangians are counted"), kept unchanged.

fixed_lagrangians counts the planes of X(F_p) that a matrix fixes from
its 6x6 exterior square, as the zeros of a quadratic form on each
eigenspace, so nothing here grows with |X(F_p)|; cusp_data_fixed is the
Moebius inversion of any such counts for the powers of rho(T), of which
README's table of cusp widths is the closed form, with its two checks;
cusp_data_cycles inverts fixed_lagrangians, and lift_witness_mod_p2
raises rho(T) over Z/p^2 to the power p(p-1).  The linear algebra mod p
they rest on, row_reduce and kernel_mod_p, also serves routes_oracle and
schreier_oracle.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, List, Tuple

from phicong.errors import DomainError, InternalConsistencyError
from phicong.invariants import CuspData
from phicong.matrices import Matrix
from phicong.rationals import (SpParams, factorize, grassmannian_size, legendre,
                               require_prime)
from phicong.symplectic import J_ROWS, SYM3, require_symplectic, rho_matrices

from certificate_oracle import trace_pair

#: Coordinates of antisymmetric forms and of Plucker vectors: the entries
#: (i, j), i < j, in this order.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
#: J on a plane, u^T J v = sum of J_ij q_ij: zero exactly on the Lagrangian ones.
LAGRANGIAN_ROW = tuple(J_ROWS[i][j] for i, j in PAIRS)


def roots_mod_p(coeffs: List[int], p: int) -> List[int]:
    """The roots in F_p* of a polynomial mod p, coefficients lowest degree
    first, by a scan of F_p*, O(p)."""
    return [mu for mu in range(1, p)
            if not reduce(lambda acc, c: (acc * mu + c) % p, reversed(coeffs), 0)]


def row_reduce(rows, p: int) -> Tuple[List[List[int]], List[int], int]:
    """The one Gauss-Jordan elimination mod p: (the reduced rows, their
    pivot columns, det), det the product of the pivots as they are found,
    negated at each row swap and 0 once a column has none; for a square
    matrix that is its determinant mod p."""
    rows, pivots, det = [[v % p for v in r] for r in rows], [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            det = 0
            continue
        if hit != r:
            rows[r], rows[hit], det = rows[hit], rows[r], -det
        det = det * rows[r][c] % p
        inv = pow(rows[r][c], -1, p)
        top = rows[r] = [v * inv % p for v in rows[r]]
        rows = [[(u - row[c] * v) % p for u, v in zip(row, top)] if i != r and row[c]
                else row for i, row in enumerate(rows)]
        pivots.append(c)
    return rows, pivots, det


def kernel_mod_p(rows, p: int, mu: int = 0, extra=()) -> List[List[int]]:
    """A basis of the v with M v = mu v mod p, M the matrix of rows, and
    r . v = 0 for the extra rows r: a free coordinate f set to 1, the
    other free ones to 0, and each pivot coordinate of row_reduce solved for;
    DomainError when there is no row to read the width from."""
    rows, pivots, _ = row_reduce([[v - mu * (i == j) for j, v in enumerate(r)]
                                  for i, r in enumerate(rows)] + list(extra), p)
    if not rows:
        raise DomainError("kernel_mod_p needs at least one row")
    width = len(rows[0])
    return [[-rows[pivots.index(c)][f] % p if c in pivots else int(c == f)
             for c in range(width)] for f in range(width) if f not in pivots]


def wedge(M: Matrix) -> List[List[int]]:
    """The exterior square of M on PAIRS, reduced mod p = M.m: column
    (k, l) holds the Plucker coordinates of the plane M e_k, M e_l."""
    m, p = M.rows, M.m
    return [[(m[i][k] * m[j][l] - m[i][l] * m[j][k]) % p for k, l in PAIRS]
            for i, j in PAIRS]


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
    W, (a, b) = wedge(g), trace_pair(g)
    count = 0
    for mu in roots_mod_p([1, 2 - b, a * a - 2 * b + 2, 2 - b, 1], p):
        basis = kernel_mod_p(W, p, mu, [LAGRANGIAN_ROW])
        gram = [[_polar(u, v) % p for v in basis] for u in basis]
        count += (_quadric_zeros(gram, p) - 1) // (p - 1)
    return count


def _divisors_moebius(factors: Dict[int, int]) -> List[Tuple[int, int]]:
    """(d, mu(d)) for every divisor d of the n factorized as {prime: exponent}."""
    pairs = [(1, 1)]
    for q, e in factors.items():
        pairs = [(d * q ** k, mu * (1, -1, 0)[min(k, 2)])
                 for d, mu in pairs for k in range(e + 1)]
    return pairs


def cusp_data_fixed(p: int, fix: Callable[[int], int]) -> CuspData:
    """Cusp widths of the point stabilizer, the cycle type of rho(T) on
    X(F_p), from fix(d), the number of Lagrangians that rho(T)^d fixes, by
    Moebius inversion: c_n = (1/n) sum_{d | n} mu(d) fix(n/d), over
    n | p(p-1), since rho(T)^(p(p-1)) = I."""
    require_prime(p, 7)
    pairs = _divisors_moebius({p: 1, **factorize(p - 1)})
    fixes = {d: fix(d) for d, _ in pairs}
    squarefree = [(d, mu) for d, mu in pairs if mu]
    widths: Dict[int, int] = {}
    for n in sorted(fixes):
        s = sum(mu * fixes[n // d] for d, mu in squarefree if n % d == 0)
        if s % n != 0 or s < 0:
            raise InternalConsistencyError(f"c_{n} is not a non-negative integer")
        if s:
            widths[n] = s // n
    data = CuspData(sum(widths.values()), widths)
    if data.width_sum() != grassmannian_size(p):
        raise InternalConsistencyError("cusp widths do not partition X(F_p)")
    return data


def cusp_data_cycles(params) -> CuspData:
    """The cusp data of the point stabilizer at any SpParams: cusp_data_fixed
    of the Lagrangians that each power of rho(T) fixes."""
    T4 = rho_matrices(params)[1]
    return cusp_data_fixed(params.p, lambda d: fixed_lagrangians(T4 ** d))


def rho_rows(params: SpParams, m: int) -> List[List[List[int]]]:
    """The rows of rho(S) and rho(T) over Z/m, Sym^3(g) D with
    D = diag(x, y, 1/y, 1/x) and y = 1/x when params.y is None."""
    x = params.x % m
    y = pow(x, -1, m) if params.y is None else params.y % m
    d = (x, y, pow(y, -1, m), pow(x, -1, m))
    return [[[v * d[j] for j, v in enumerate(row)] for row in g] for g in SYM3]


def lift_witness_mod_p2(params: SpParams) -> bool:
    """rho(T)^(p(p-1)) over Z/p^2 is trivial mod p but not mod p^2."""
    p, m2 = params.p, params.p ** 2
    Mpow = Matrix(rho_rows(params, m2)[1], m2) ** (p * (p - 1))
    return Matrix(Mpow.rows, p).is_identity() and not Mpow.is_identity()
