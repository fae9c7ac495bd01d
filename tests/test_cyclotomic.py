import random
from fractions import Fraction

import pytest

from phicong.cyclotomic import Cyc12
from phicong.errors import DomainError, UnsupportedPrimeError

# F_p^2 and the reduction Z[zeta] -> F_p^2 live in the test oracle for
# G_p membership; the classes below check that oracle
from cyc12_oracle import Fp2Elem, quadratic_factor, reduce_cyc


class TestCyc12:
    def test_zeta_relations(self):
        z = Cyc12.zeta()
        assert z ** 12 == 1
        assert z ** 6 == Cyc12(-1)
        assert z ** 4 == z * z - 1

    def test_zeta_pow_table(self):
        z = Cyc12.zeta()
        for k in range(-13, 25):
            assert Cyc12.zeta_pow(k) == z ** (k % 12)

    def test_inverse(self):
        rng = random.Random(7)
        for _ in range(50):
            v = Cyc12(*(rng.randint(-5, 5) for _ in range(4)))
            if v == 0:
                continue
            assert v * v.inverse() == 1

    def test_zero_inverse_rejected(self):
        with pytest.raises(DomainError):
            Cyc12(0).inverse()

    def test_ring_laws_random(self):
        rng = random.Random(3)
        for _ in range(100):
            u, v, w = (Cyc12(*(rng.randint(-4, 4) for _ in range(4)))
                       for _ in range(3))
            assert u * (v + w) == u * v + u * w
            assert u * v == v * u
            assert (u * v) * w == u * (v * w)


class TestQuadraticFactor:
    def test_requires_5_mod_12(self):
        for p in (7, 11, 13, 23):
            with pytest.raises(UnsupportedPrimeError):
                quadratic_factor(p)

    def test_factor_divides(self):
        for p in (5, 17, 29, 41, 53):
            g0, g1 = quadratic_factor(p)
            # the quartic evaluated at each root of x^2 + g1 x + g0 vanishes
            u = Fp2Elem(0, 1, p, g0, g1)
            assert u ** 4 - u ** 2 + 1 == 0

    def test_lex_smallest(self):
        p = 17
        g0, g1 = quadratic_factor(p)
        for h0 in range(g0 + 1):
            for h1 in range(p):
                if (h0, h1) >= (g0, g1):
                    break
                u = None
                # check x^2 + h1 x + h0 does not divide the quartic
                c = [1, 0, -1, 0, 1]
                for i in range(3):
                    lead = c[i] % p
                    c[i + 1] = (c[i + 1] - lead * h1) % p
                    c[i + 2] = (c[i + 2] - lead * h0) % p
                    c[i] = 0
                assert (c[3] % p, c[4] % p) != (0, 0)


class TestFp2:
    def test_field_laws(self):
        p = 17
        g0, g1 = quadratic_factor(p)
        rng = random.Random(1)
        for _ in range(50):
            a = Fp2Elem(rng.randrange(p), rng.randrange(p), p, g0, g1)
            if a == 0:
                continue
            assert a * a.inverse() == 1
            assert a ** p ** 2 == a        # Frobenius order divides 2

    def test_in_prime_field(self):
        p = 17
        g0, g1 = quadratic_factor(p)
        assert Fp2Elem(3, 0, p, g0, g1).in_prime_field()
        assert not Fp2Elem(3, 1, p, g0, g1).in_prime_field()


class TestReduceCyc:
    def test_homomorphism(self):
        rng = random.Random(5)
        for p in (5, 17, 29):
            for _ in range(30):
                u = Cyc12(*(rng.randint(-9, 9) for _ in range(4)))
                v = Cyc12(*(rng.randint(-9, 9) for _ in range(4)))
                assert reduce_cyc(u * v, p) == reduce_cyc(u, p) * reduce_cyc(v, p)
                assert reduce_cyc(u + v, p) == reduce_cyc(u, p) + reduce_cyc(v, p)

    def test_zeta_maps_to_root(self):
        for p in (5, 17, 29):
            r = reduce_cyc(Cyc12.zeta(), p)
            assert r ** 4 - r ** 2 + 1 == 0
            assert r ** 12 == 1

    def test_non_integral_rejected(self):
        with pytest.raises(DomainError):
            reduce_cyc(Cyc12(Fraction(1, 5)), 5)
