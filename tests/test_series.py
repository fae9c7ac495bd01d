"""Unit tests of phicong.series, and of the oracle code in hensel_oracle
that the x-tilde and y-tilde tests compare against: its Newton/Hensel
lift (TestHensel) and its square root of a Laurent series (TestSqrt)."""

import random
from fractions import Fraction

import pytest

from phicong.errors import DomainError, PrecisionError
from phicong.polynomials import mul_trunc
from phicong.series import LaurentSeries

from hensel_oracle import HenselError, hensel_root, series_sqrt


def geometric(prec):
    return LaurentSeries({0: 1, 1: -1}, prec)


class TestArithmetic:
    def test_add_precision(self):
        a = LaurentSeries({0: 1}, 5)
        b = LaurentSeries({1: 2}, 9)
        assert (a + b).prec == 5

    def test_mul_precision_gains_from_valuation(self):
        a = LaurentSeries({3: 1}, 10)       # valuation 3
        b = LaurentSeries({2: 1}, 10)       # valuation 2
        assert (a * b).prec == 12           # min(10+2, 10+3)

    def test_exact_polynomials(self):
        a = LaurentSeries({-1: 2, 3: 5})
        b = LaurentSeries({0: 1, 1: 1})
        c = a * b
        assert c.prec is None
        assert c.coeffs == {-1: 2, 0: 2, 3: 5, 4: 5}

    def test_inverse_geometric(self):
        inv = geometric(12).inverse()
        assert all(inv.coeff(i) == 1 for i in range(12))

    def test_inverse_precision(self):
        s = LaurentSeries({2: 1, 3: 1}, 10)
        assert s.inverse().prec == 10 - 4

    def test_inverse_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(25):
            v = rng.randint(-3, 3)
            cs = {v: Fraction(rng.randint(1, 5))}
            for e in range(v + 1, v + 8):
                cs[e] = Fraction(rng.randint(-4, 4))
            s = LaurentSeries(cs, v + 8)
            prod = s * s.inverse()
            assert prod.coeff(0) == 1
            assert all(prod.coeff(e) == 0 for e in range(1, prod.prec))

    def test_inverse_of_nothing_rejected(self):
        with pytest.raises(DomainError):
            LaurentSeries({}, 5).inverse()

    def test_monomial_inverse_exact(self):
        m = LaurentSeries.monomial(Fraction(3), 4)
        assert m.inverse().coeffs == {-4: Fraction(1, 3)}

    def test_coeff_beyond_precision(self):
        with pytest.raises(PrecisionError):
            geometric(5).coeff(5)

    def test_truncate_upwards_rejected(self):
        with pytest.raises(PrecisionError):
            geometric(5).truncate(6)

    def test_shift(self):
        s = geometric(5).shift(-2)
        assert s.valuation == -2 and s.prec == 3

    def test_pow_matches_repeated_mul(self):
        s = LaurentSeries({0: 1, 1: 3, 2: -1}, 8)
        assert (s ** 3).coeffs == (s * s * s).coeffs
        # a negative power inverts first; the zeroth keeps the precision
        assert s ** -2 == (s * s).inverse()
        assert s ** 0 == LaurentSeries.one(8)


class TestSqrt:
    def test_basic(self):
        s = LaurentSeries({0: 1, 1: 1}, 10)
        r = series_sqrt(s)
        sq = r * r
        assert sq.coeff(0) == 1 and sq.coeff(1) == 1
        assert all(sq.coeff(i) == 0 for i in range(2, sq.prec))

    def test_branch_sign(self):
        s = LaurentSeries({0: 4, 1: 1}, 6)
        assert series_sqrt(s, 1).coeff(0) == 2
        assert series_sqrt(s, -1).coeff(0) == -2

    def test_even_valuation_required(self):
        with pytest.raises(DomainError):
            series_sqrt(LaurentSeries({1: 1}, 5))

    def test_square_leading_coeff_required(self):
        with pytest.raises(DomainError):
            series_sqrt(LaurentSeries({0: 2}, 5))

    def test_negative_valuation(self):
        s = LaurentSeries({-6: 9, -2: 1}, 4)
        r = series_sqrt(s)
        assert r.valuation == -3 and r.coeff(-3) == 3
        diff = r * r - s
        assert diff.is_zero()


class TestKernel:
    def test_mul_trunc_matches_laurent_product(self):
        rng = random.Random(5)
        # zeros in the second operand, cut below the full product length 8
        cases = [([1, 2, 0, 3], [4, 0, 0, 5, 0], 6)]
        for _ in range(40):
            a = [rng.randint(-10 ** 30, 10 ** 30) * rng.randint(0, 1)
                 for _ in range(rng.randint(1, 12))]
            b = [rng.randint(-10 ** 30, 10 ** 30) * rng.randint(0, 1)
                 for _ in range(rng.randint(1, 12))]
            cases.append((a, b, rng.randint(1, 20)))
        for a, b, n in cases:
            # exact polynomials, so every coefficient below Q^n is known
            ref = (LaurentSeries(dict(enumerate(a)))
                   * LaurentSeries(dict(enumerate(b))))
            assert mul_trunc(a, b, n) == [ref.coeff(j) for j in range(n)]


def poly(*coeffs, prec):
    """A Laurent series in q with the given first coefficients, known to
    O(q^prec)."""
    return LaurentSeries(dict(enumerate(coeffs)), prec)


class TestHensel:
    def test_square_root_polynomial(self):
        # X^2 = 1 + 4q: root sqrt(1 + 4q) = 1 + 2q - 2q^2 + ...
        target = poly(1, 4, prec=24)
        root = hensel_root([-target, poly(prec=24), poly(1, prec=24)], 1, 24)
        assert root == series_sqrt(target)

    def test_bad_seed(self):
        with pytest.raises(DomainError):
            hensel_root([poly(-2, -1, prec=8), poly(prec=8), poly(1, prec=8)],
                        1, 8)

    def test_non_simple_root(self):
        # X^2 - 2X + 1 has the double root 1 mod q
        coeffs = [poly(1, prec=8), poly(-2, prec=8), poly(1, prec=8)]
        with pytest.raises(HenselError):
            hensel_root(coeffs, 1, 8)

    def test_insufficient_precision(self):
        coeffs = [poly(-1, -1, prec=4), poly(prec=4), poly(1, prec=4)]
        with pytest.raises(PrecisionError):
            hensel_root(coeffs, 1, 10)

    def test_cubic(self):
        # X^3 = 8(1 + 9q): root 2(1 + 9q)^(1/3)
        root = hensel_root([poly(-8, -72, prec=16), poly(prec=16),
                            poly(prec=16), poly(1, prec=16)], 2, 16)
        cube = root * root * root
        assert cube.coeff(0) == 8 and cube.coeff(1) == 72
        assert all(cube.coeff(i) == 0 for i in range(2, cube.prec))

    def test_constant_polynomial_rejected(self):
        with pytest.raises(DomainError):
            hensel_root([poly(prec=4)], 0, 4)
