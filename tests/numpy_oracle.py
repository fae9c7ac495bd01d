"""The numpy Lagrangian action and cycle type that phicong.symplectic
used before it moved to plain lists, kept unchanged as oracles: the
exterior square of M acts on the Plucker coordinates of every point of
X(F_p) in one matrix product, and each image is decoded column by column;
cycle_type finds each cycle's least point by pointer doubling, with no
loop over points.  Both are independent of the row-by-row action and the
cycle walk they check."""

from typing import Dict

import numpy as np

from phicong.errors import DomainError, InternalConsistencyError
from phicong.matrices import Matrix
from phicong.rationals import grassmannian_size, require_prime
from phicong.symplectic import _PAIRS, form_J

from permutation_oracle import require_memory


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
    require_prime(p, 3)
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
