import itertools
from fractions import Fraction

import pytest

import phicong.divpoly
from phicong.divpoly import _f, division_polynomials, reduction_profile, rescaled
from phicong.errors import DomainError, UnsupportedPrimeError
from phicong.polynomials import mul_trunc

import divpoly_oracle
from ring_poly import UniPoly, map_coeffs, scale_arg

B = -1728


def frac(poly: tuple) -> UniPoly:
    """An int tuple of phicong.divpoly as a polynomial over Q."""
    return map_coeffs(UniPoly(poly), Fraction)


def coeffs(poly: UniPoly) -> tuple:
    """A polynomial of divpoly_oracle as phicong.divpoly writes it."""
    return tuple(poly.coeffs)


def gcd_degree_mod_p(a: tuple, b: tuple, p: int) -> int:
    A = [c % p for c in a]
    Bc = [c % p for c in b]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    A, Bc = trim(A), trim(Bc)
    while Bc:
        inv = pow(Bc[-1], -1, p)
        while len(A) >= len(Bc):
            f = A[-1] * inv % p
            if f:
                s = len(A) - len(Bc)
                for i, g in enumerate(Bc):
                    A[s + i] = (A[s + i] - f * g) % p
            A.pop()
            A = trim(A)
        A, Bc = Bc, A
    return len(A) - 1


F = UniPoly([-4, 0, 0, 4])            # (2Y)^2 on Y^2 = X^3 - 1, where _f runs


def psi_product(*ks):
    """The product of psi_k over ks as a polynomial in X.

    psi_k is f_k (2Y)^e with e = 1 for even k and 0 for odd k, and the
    total power of 2Y is even here, so it becomes a power of F = (2Y)^2.
    """
    out, e = UniPoly([1]), 0
    for k in ks:
        out, e = out * UniPoly(_f(k)), e + (k % 2 == 0)
    assert e % 2 == 0
    return out * F ** (e // 2)


class TestDivisionPolynomials:
    def test_elliptic_divisibility(self):
        # psi_{m+n} psi_{m-n} = psi_{m+1} psi_{m-1} psi_n^2
        #                       - psi_{n+1} psi_{n-1} psi_m^2
        # for every pair, not only the ones the recursion is built from;
        # the identity holds on any curve, here the twist _f runs on
        for m in range(2, 13):
            for n in range(1, m):
                assert psi_product(m + n, m - n) == (
                    psi_product(m + 1, m - 1, n, n)
                    - psi_product(n + 1, n - 1, m, m)), (m, n)


    def test_N1_identity(self):
        t = division_polynomials(1)
        assert t.psiSq == (1,)
        assert t.phiPol == (0, 1)

    def test_N2(self):
        t = division_polynomials(2)
        assert t.psiSq == (4 * B, 0, 0, 4)              # 4(x^3 - 1728)

    def test_N3(self):
        t = division_polynomials(3)
        psi3 = UniPoly([0, 12 * B, 0, 0, 3])
        assert t.psiSq == coeffs(psi3 * psi3)

    def test_omega_small(self):
        t1 = division_polynomials(1)
        assert t1.omega == ((1,), 1)                    # omega_1 = y
        t2 = division_polynomials(2)
        poly, parity = t2.omega
        assert parity == 0
        assert poly == (-8 * B * B, 0, 0, 20 * B, 0, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            division_polynomials(0)

    def test_degree_invariants_to_25(self):
        for n in range(1, 26):
            t = division_polynomials(n)
            assert len(t.psiSq) == n * n and t.psiSq[-1] == n * n
            assert len(t.phiPol) == n * n + 1 and t.phiPol[-1] == 1
            if n > 1:
                assert gcd_degree_mod_p(t.psiSq, t.phiPol, 99991) == 0

    def test_composition_law(self):
        for m, n in itertools.product((2, 3, 4), (2, 3)):
            fm = frac(division_polynomials(m).phiPol)
            gm = frac(division_polynomials(m).psiSq)
            fn = frac(division_polynomials(n).phiPol)
            gn = frac(division_polynomials(n).psiSq)
            fmn = frac(division_polynomials(m * n).phiPol)
            gmn = frac(division_polynomials(m * n).psiSq)
            d = fm.degree
            num, den = UniPoly(), UniPoly()
            for i in range(d + 1):
                w = (fn ** i) * (gn ** (d - i))
                num = num + fm[i] * w
                if i <= gm.degree:
                    den = den + gm[i] * w
            assert num * gmn == den * fmn


class TestRescaled:
    def test_N2(self):
        psi_hat, phi_hat = rescaled(2)
        assert psi_hat == (-4, 0, 0, 4)                 # 4(X^3 - 1)
        assert phi_hat == (0, 8, 0, 0, 1)               # X^4 + 8X

    def test_N3(self):
        psi_hat, phi_hat = rescaled(3)
        assert psi_hat == (0, 0, 144, 0, 0, -72, 0, 0, 9)
        assert phi_hat == (-64, 0, 0, 48, 0, 0, 96, 0, 0, 1)

    def test_consistency_to_10(self):
        for n in range(2, 11):
            psi_hat, phi_hat = rescaled(n)
            t = division_polynomials(n)
            scaled = scale_arg(frac(t.psiSq), Fraction(12))
            assert frac(psi_hat) * Fraction(12 ** (n * n - 1)) == scaled

    def test_two_adic_shape(self):
        # 2^r || N: psiHat / 2^(2r) is integral and = X^(N^2-4)(X^3-1) mod 2
        for n, r in ((4, 2), (6, 1), (8, 3), (12, 2)):
            psi_hat, _ = rescaled(n)
            d = 4 ** r
            assert all(c % d == 0 for c in psi_hat)
            support = {i for i, c in enumerate(psi_hat) if (c // d) % 2}
            assert support == {n * n - 4, n * n - 1}

    def test_three_adic_shape(self):
        # 3^r || N: psiHat / 3^(2r) is integral and reduces mod 3 to
        # X^2 (X - 1)^(N^2 - 3); compare against a binomial expansion
        for n, r in ((3, 1), (6, 1), (9, 2)):
            psi_hat, _ = rescaled(n)
            d = 9 ** r
            assert all(c % d == 0 for c in psi_hat)
            reduced = [(c // d) % 3 for c in psi_hat]
            m = n * n - 3
            expect = [0] * (n * n)
            binom = 1
            for i in range(m + 1):
                expect[i + 2] = (binom * (-1) ** (m - i)) % 3
                binom = binom * (m - i) // (i + 1)
            assert reduced == expect

    def test_N1_rejected(self):
        with pytest.raises(DomainError):
            rescaled(1)


class TestReductionProfile:
    def test_small_p_rejected(self):
        for p in (2, 3):
            with pytest.raises(UnsupportedPrimeError):
                reduction_profile(5, p)

    def test_composite_p_rejected(self):
        for p in (9, 15, 25):
            with pytest.raises(UnsupportedPrimeError):
                reduction_profile(5, p)

    def test_supersingular_N5(self):
        prof = reduction_profile(5, 5)
        assert prof.supersingular and prof.supersingular_const
        assert prof.top_valuations_2r and prof.r == 1

    def test_ordinary_N7(self):
        prof = reduction_profile(7, 7)
        assert not prof.supersingular
        assert prof.ordinary_tail
        assert prof.top_valuations_2r

    def test_trivial_N1(self):
        prof = reduction_profile(1, 5)
        assert prof.psi_sq_valuations == [0]
        assert prof.supersingular_const is None and prof.ordinary_tail is None

    def test_higher_power(self):
        prof = reduction_profile(25, 5)
        assert prof.r == 2 and prof.top_valuations_2r
        assert prof.psi_sq_valuations[-1] == 4      # v_5(625) = 4

    def test_coprime_prime(self):
        prof = reduction_profile(6, 7)
        assert prof.r == 0 and prof.top_valuations_2r
        assert prof.psi_sq_valuations[-1] == 0


class TestOracle:
    """The twist against divpoly_oracle, which runs the recursion on
    y^2 = x^3 - 1728 itself: the same outputs to N = 30."""

    def test_division_polynomials(self):
        for n in range(1, 31):
            t = divpoly_oracle.division_polynomials(n)
            assert division_polynomials(n) == (n, coeffs(t.psiSq), coeffs(t.phiPol),
                                               (coeffs(t.omega[0]), t.omega[1])), n

    def test_rescaled(self):
        for n in range(2, 31):
            assert rescaled(n) == tuple(map(coeffs, divpoly_oracle.rescaled(n))), n

    def test_reduction_profile(self, monkeypatch):
        # the profile's own reading of psi_N^2 and f_N on the curve itself
        got = {(n, p): reduction_profile(n, p) for n in range(1, 31) for p in (5, 7, 11)}
        monkeypatch.setattr(phicong.divpoly, "_psi_sq",
                            lambda n: coeffs(divpoly_oracle._psi_sq(n)))
        monkeypatch.setattr(phicong.divpoly, "_f", lambda n: coeffs(divpoly_oracle._f(n)))
        for (n, p), prof in got.items():
            assert prof == reduction_profile(n, p), (n, p)


class TestProductCount:
    """reduction_profile after division_polynomials or rescaled at the same
    N reads the psi_N^2 that the first call built: it multiplies nothing."""

    @pytest.mark.parametrize("first", [division_polynomials, rescaled],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", [9, 10])
    def test_profile_reuses_psi_sq(self, monkeypatch, first, n):
        calls = []

        def counted(*args):
            calls.append(args)
            return mul_trunc(*args)

        monkeypatch.setattr(phicong.divpoly, "mul_trunc", counted)

        def products(*steps):
            phicong.divpoly._f.cache_clear()
            phicong.divpoly._psi_sq.cache_clear()
            calls.clear()
            for step in steps:
                step()
            return len(calls)

        alone = products(lambda: first(n))
        assert alone > 0
        assert products(lambda: first(n), lambda: reduction_profile(n, 7)) == alone
