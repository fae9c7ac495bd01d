"""4x4 integer matrices mod m, the one form of rho.

rho maps into Sp4 reduced modulo an integer m: m = p for the group
itself and m = p^2 for the lifting witness.  A Matrix holds four rows
of Python ints in range(m) together with m, so products cannot overflow
at any p.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DomainError
from .rationals import power


class Matrix:
    __slots__ = ("rows", "m")

    def __init__(self, rows: Iterable[Iterable[int]], m: int):
        if m < 2:
            raise DomainError(f"modulus must be >= 2, got {m}")
        self.rows = tuple(tuple(v % m for v in r) for r in rows)
        self.m = m
        if len(self.rows) != 4 or any(len(r) != 4 for r in self.rows):
            raise DomainError("matrix must be 4x4")

    @staticmethod
    def identity(m: int) -> "Matrix":
        return Matrix([[int(i == j) for j in range(4)] for i in range(4)], m)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.m != self.m:
            raise DomainError(f"mixed moduli {self.m} and {other.m}")
        cols = tuple(zip(*other.rows))
        return Matrix([[sum(a * b for a, b in zip(r, c)) for c in cols]
                       for r in self.rows], self.m)

    def __pow__(self, e: int) -> "Matrix":
        return power(self, e, Matrix.identity(self.m))

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows), self.m)

    def is_identity(self) -> bool:
        return self == Matrix.identity(self.m)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.m == other.m
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.rows, self.m))

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]}, {self.m})"
