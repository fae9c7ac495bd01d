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
    _IDENTITY = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def __init__(self, rows: Iterable[Iterable[int]], m: int):
        if not isinstance(m, int) or m < 2:
            raise DomainError(f"modulus must be an int >= 2, got {m!r}")
        try:
            entries = tuple(map(tuple, rows))
        except TypeError:                   # rows, or a row, is not iterable
            entries = ()
        if (len(entries) != 4 or any(len(r) != 4 for r in entries)
                or not all(isinstance(v, int) for r in entries for v in r)):
            raise DomainError(f"matrix must be 4x4 with int entries, got {rows!r}")
        self.rows, self.m = tuple(tuple(v % m for v in r) for r in entries), m

    @staticmethod
    def _of(rows, m: int) -> "Matrix":
        """The Matrix of rows that a product has already reduced mod m."""
        M = object.__new__(Matrix)
        M.rows, M.m = rows, m
        return M

    @staticmethod
    def identity(m: int) -> "Matrix":
        return Matrix(Matrix._IDENTITY, m)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.m != (m := self.m):
            raise DomainError(f"mixed moduli {m} and {other.m}")
        cols = tuple(zip(*other.rows))
        return Matrix._of(tuple([tuple([(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3) % m
                                        for c0, c1, c2, c3 in cols])
                                 for r0, r1, r2, r3 in self.rows]), m)

    def __pow__(self, e: int) -> "Matrix":
        return power(self, e, Matrix._of(Matrix._IDENTITY, self.m))

    def transpose(self) -> "Matrix":
        return Matrix._of(tuple(zip(*self.rows)), self.m)

    def is_identity(self) -> bool:
        return self.rows == Matrix._IDENTITY

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.m == other.m
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.rows, self.m))

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]}, {self.m})"
