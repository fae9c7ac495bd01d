"""The rank-4 symplectic family rho over F_p and the Lagrangian
Grassmannian X(F_p) it acts on.

rho(T) and rho(S) preserve the symplectic form J with (1,4)-entry 1 and
(2,3)-entry -3.  X(F_p) splits into four families of Lagrangian planes
A(a,b,c), B(a,b), C(a), D with |X(F_p)| = (p^2+1)(p+1).

The order of <rho(S), rho(T)> is a closed form in x^2 mod p, proved once
in README; surjectivity_verdict, which reads it, lives in invariants with
the other closed forms and is re-exported here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Tuple

from .errors import DomainError, InternalConsistencyError
# the verdict, legendre and sp4_order are re-exported, as SpParams is
from .invariants import SurjectivityVerdict, surjectivity_verdict
from .matrices import Matrix
from .rationals import SpParams, legendre, require_prime, sp4_order

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
