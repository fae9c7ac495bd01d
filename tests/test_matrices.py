import random

import pytest

from phicong.errors import DomainError
from phicong.matrices import Matrix
from phicong.polynomials import UniPoly
from phicong.symplectic import SpParams, rho_matrices


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
