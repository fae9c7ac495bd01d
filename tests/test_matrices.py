import random
from fractions import Fraction

import pytest

from phicong.errors import DomainError
from phicong.matrices import Matrix
from phicong.symplectic import SpParams, rho_matrices

from ring_matrix import Matrix as RingMatrix
from ring_poly import UniPoly

# primes and prime squares of the sizes rho uses, and two moduli whose
# products of residues exceed 2^64 and 2^120
MODULI = [11, 121, 113 ** 2, 2 ** 61 - 1, (10 ** 9 + 7) ** 2]


class TestMatrix:
    def test_mixed_moduli_rejected(self):
        with pytest.raises(DomainError, match="mixed moduli"):
            Matrix.identity(5) * Matrix.identity(7)

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            Matrix.identity(11) ** -1
        # Z[x] has no inverse to take, and the shared power rejects e < 0
        with pytest.raises(DomainError):
            UniPoly([1, 1]) ** -1

    @pytest.mark.parametrize("m", [1, 0, -5])
    def test_modulus_below_2_rejected(self, m):
        with pytest.raises(DomainError, match="modulus"):
            Matrix([[1] * 4] * 4, m)

    @pytest.mark.parametrize("rows", [[], [[1] * 4] * 3, [[1] * 3] * 4, [[1] * 4] * 5,
                                      [[1] * 4] * 3 + [[1] * 5]])
    def test_not_4x4_rejected(self, rows):
        with pytest.raises(DomainError, match="4x4"):
            Matrix(rows, 11)

    def test_entries_reduced(self):
        M = Matrix([[-1, 12, 0, 0]] * 4, 11)
        assert M.rows == ((10, 1, 0, 0),) * 4
        assert M == Matrix([[10, 1, 0, 0]] * 4, 11) != Matrix(M.rows, 13)

    def test_power_is_repeated_product(self):
        rng = random.Random(13)
        R = Matrix([[rng.randrange(10 ** 6) for _ in range(4)] for _ in range(4)], 97 ** 2)
        for M in (rho_matrices(SpParams(11, 2))[1], R):
            acc = Matrix.identity(M.m)
            for k in range(21):
                assert M ** k == acc
                acc = acc * M

    @pytest.mark.parametrize("rows, m", [
        ([[0.5, 0, 0, 0]] + [[0] * 4] * 3, 11),
        ([[1, 0, 0, 0]] * 3 + [[0, 0, 0, 2.0]], 11),
        ([[Fraction(1, 2)] * 4] * 4, 11),
        ([[1] * 4] * 4, 11.0),
        ([[1] * 4] * 4, Fraction(11)),
        ([["a"] * 4] * 4, 11),
        (5, 11),
        ([[1] * 4] * 3 + [5], 11),
    ])
    def test_non_int_rejected(self, rows, m):
        with pytest.raises(DomainError, match="int"):
            Matrix(rows, m)


def _random_rows(rng, m):
    """Four rows of unreduced entries, negative ones among them."""
    return [[rng.randrange(-m, 2 * m) for _ in range(4)] for _ in range(4)]


def _reduced(M: RingMatrix, m):
    return tuple(tuple(v % m for v in r) for r in M.rows)


class TestProductKernel:
    """Matrix products mod m against dense integer products reduced mod m
    (tests/ring_matrix.py), which share no code with the kernel."""

    @pytest.mark.parametrize("m", MODULI)
    def test_products_match_ring_oracle(self, m):
        rng = random.Random(m)
        for _ in range(40):
            a, b = _random_rows(rng, m), _random_rows(rng, m)
            got = Matrix(a, m) * Matrix(b, m)
            assert got.m == m
            assert got.rows == _reduced(RingMatrix(a) * RingMatrix(b), m)
            assert all(type(v) is int and 0 <= v < m for r in got.rows for v in r)

    @pytest.mark.parametrize("m", MODULI)
    def test_chained_products_and_transpose(self, m):
        rng = random.Random(m + 1)
        acc, oracle = Matrix.identity(m), RingMatrix.identity(4)
        for _ in range(30):
            rows = _random_rows(rng, m)
            acc = acc * Matrix(rows, m)
            oracle = RingMatrix(_reduced(oracle * RingMatrix(rows), m))
            assert acc.rows == oracle.rows
        assert acc.transpose().rows == oracle.transpose().rows
        assert acc.transpose().transpose() == acc

    @pytest.mark.parametrize("m", MODULI)
    def test_power_is_repeated_product(self, m):
        rng = random.Random(m + 2)
        M = Matrix(_random_rows(rng, m), m)
        acc = Matrix.identity(m)
        for k in range(25):
            assert M ** k == acc
            assert (M ** k).rows == _reduced(RingMatrix(M.rows) ** k, m)
            acc = acc * M

    def test_mixed_moduli_rejected_for_every_pair(self):
        for m in MODULI:
            for n in MODULI:
                A, B = Matrix.identity(m), Matrix.identity(n)
                if m == n:
                    assert (A * B).is_identity()
                else:
                    with pytest.raises(DomainError, match="mixed moduli"):
                        A * B

    @pytest.mark.parametrize("m", MODULI)
    def test_is_identity_exactly_for_the_identity(self, m):
        eye = [[int(i == j) for j in range(4)] for i in range(4)]
        assert Matrix.identity(m).is_identity()
        assert Matrix([[v + m * (i - j) for j, v in enumerate(r)]
                       for i, r in enumerate(eye)], m).is_identity()
        for i in range(4):
            for j in range(4):
                for delta in (1, -1, m // 2):
                    rows = [r[:] for r in eye]
                    rows[i][j] += delta
                    assert not Matrix(rows, m).is_identity(), (i, j, delta)
        rng = random.Random(m + 3)
        M = Matrix(_random_rows(rng, m), m)
        assert (M * Matrix.identity(m)).rows == (Matrix.identity(m) * M).rows == M.rows
        assert (M ** 0).is_identity() and Matrix.identity(m) ** 5 == Matrix.identity(m)
