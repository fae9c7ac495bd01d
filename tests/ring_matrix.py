"""Test oracle: dense matrices over any exact ring, and words evaluated
on them, with a Gauss-Jordan inverse for negative exponents.  The tests
multiply phi out over Q(zeta_12), and rho's integer lifts over Q and Z,
to check the library's integer coordinates and matrices mod m."""

from __future__ import annotations

from typing import Sequence, Tuple

from phicong.errors import DomainError
from phicong.words import Word

class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise DomainError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    def _one_zero(self) -> Tuple:
        e = self.rows[0][0]
        return e ** 0, e - e

    @staticmethod
    def identity(n: int, one=1, zero=0) -> "Matrix":
        return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        n = self.n
        return Matrix(
            [
                [
                    sum((self.rows[i][k] * other.rows[k][j] for k in range(1, n)),
                        start=self.rows[i][0] * other.rows[0][j])
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def __pow__(self, e: int) -> "Matrix":
        base = self.inverse() if e < 0 else self
        e = abs(e)
        one, zero = self._one_zero()
        acc = Matrix.identity(self.n, one, zero)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def inverse(self) -> "Matrix":
        """Gauss-Jordan inverse; entries must support exact division."""
        n = self.n
        one, zero = self._one_zero()
        aug = [list(self.rows[i]) + [one if i == j else zero for j in range(n)]
               for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col] != zero), None)
            if piv is None:
                raise DomainError("matrix is not invertible")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = one / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != zero:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return Matrix([row[n:] for row in aug])

    def __eq__(self, other):
        return isinstance(other, Matrix) and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(self.rows)

    def is_identity(self) -> bool:
        one, zero = self._one_zero()
        return all(
            self.rows[i][j] == (one if i == j else zero)
            for i in range(self.n)
            for j in range(self.n)
        )

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]})"


def eval_word(w: Word, imgS: Matrix, imgT: Matrix) -> Matrix:
    """Evaluate the homomorphism S -> imgS, T -> imgT on a word."""
    if imgS.n != imgT.n:
        raise DomainError("generator images must have equal size")
    acc = Matrix.identity(imgS.n, *imgS._one_zero())
    for gen, exp in w.syllables:
        acc = acc * (imgS if gen == "S" else imgT) ** exp
    return acc


def relations_check(imgS: Matrix, imgT: Matrix) -> bool:
    """True iff the assignments satisfy S^4 = I and S^2 = (S T)^3."""
    if imgS.n != imgT.n:
        raise DomainError("generator images must have equal size")
    s2 = imgS * imgS
    return (s2 * s2).is_identity() and s2 == (imgS * imgT) ** 3
