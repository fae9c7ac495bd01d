from fractions import Fraction

import pytest

import phicong.qexp
from phicong.divpoly import division_polynomials
from phicong.errors import DomainError, InternalConsistencyError
from phicong.qexp import (_reduced, _tower, basis_series, denominator_report,
                          xtilde, xtilde_terms, ytilde)
from phicong.series import LaurentSeries

import n12_oracle
from divpoly_oracle import _f
from hensel_oracle import (euler_product, series_sqrt, sigma_series,
                           xtilde_by_fractions)
from ring_poly import UniPoly, evaluate, map_coeffs


def homogenized_at(coeffs, powers):
    """q^(2 n2 - 2) poly(X / q^2) at X = xhat, poly the coefficients coeffs,
    from powers[i] = xhat^i, where n2 = len(powers) - 1."""
    n2 = len(powers) - 1
    out = LaurentSeries.zero()
    for i, c in enumerate(coeffs):
        if c:
            out = out + (powers[i] * c).shift(2 * (n2 - 1 - i))
    return out


def weighted_at(coeffs, y_power, weight, xhat_powers, yhat):
    """q^weight poly(x) y^y_power at x = xhat q^-2, y = yhat q^-3, poly the
    coefficients coeffs, from xhat_powers[i] = xhat^i; weight is at least
    that of every term."""
    out = LaurentSeries.zero()
    for i, c in enumerate(coeffs):
        if c:
            out = out + (xhat_powers[i] * c).shift(weight - 2 * i - 3 * y_power)
    return out * yhat if y_power else out


class TestBasis:
    def test_valuations(self):
        b = basis_series(30)
        assert b.eta4.valuation == 1
        assert b.E4.coeff(0) == 1 and b.E6.coeff(0) == 1
        assert b.x.valuation == -2
        assert b.y.valuation == -3

    def test_weierstrass_relation(self):
        b = basis_series(30)
        assert (b.y * b.y - (b.x * b.x * b.x - 1728)).is_zero()

    def test_x_integral(self):
        b = basis_series(40)
        assert all(c.denominator == 1 for _, c in b.x.items())

    def test_support_six_torsion(self):
        b = basis_series(40)
        assert all(e % 6 == 4 for e, _ in b.x.items())
        assert all(e % 6 == 3 for e, _ in b.y.items())

    def test_first_coefficients(self):
        # x = q^-2 + 254 q^4 + ... ; check against E4/eta^8 by hand for
        # the first couple of terms: E4 = 1 + 240 q^6 + ...,
        # eta^8 = q^2 (1 - 8 q^6 + ...)
        b = basis_series(20)
        assert b.x.coeff(-2) == 1
        assert b.x.coeff(4) == 248

    def test_x_and_y_are_quotients(self):
        # x and y come from the recurrence at N = 1; check them against
        # E4/eta^8 and E6/eta^12 by LaurentSeries division
        for prec in (20, 100):
            b = basis_series(prec)
            q = b.E4 / b.eta4 ** 2
            assert b.x.truncate(q.prec) == q
            q = b.E6 / b.eta4 ** 3
            assert b.y.truncate(q.prec) == q

    def test_matches_fraction_builders(self):
        b = basis_series(100)
        f = euler_product(110)
        f2 = f * f
        assert b.eta4 == (f2 * f2).shift(1).truncate(100)
        assert b.E4 == sigma_series(3, 240, 100)
        assert b.E6 == sigma_series(5, -504, 100)


class TestXtilde:
    def test_N2_golden(self):
        s = xtilde(2, 17)
        assert s.coeff(-2) == 4
        assert s.coeff(4) == 20
        assert s.coeff(10) == -28

    def test_N3_golden(self):
        s = xtilde(3, 17)
        assert s.coeff(-2) == 9
        assert s.coeff(4) == Fraction(40, 3)
        assert s.coeff(10) == Fraction(-68, 81)

    def test_N5_golden(self):
        s = xtilde(5, 17)
        assert s.coeff(-2) == 25
        assert s.coeff(4) == Fraction(18104, 625)
        assert s.coeff(10) == Fraction(155226332, 9765625)

    def test_defining_relation(self):
        for n in (2, 3):
            s = xtilde(n, 29)
            b = basis_series(40)
            t = division_polynomials(n)
            eta8 = b.eta4 * b.eta4
            lhs = evaluate(map_coeffs(UniPoly(t.psiSq), Fraction), s) * b.E4
            rhs = evaluate(map_coeffs(UniPoly(t.phiPol), Fraction), s) * eta8
            assert (lhs - rhs).is_zero()
        # 60 terms for N = 2..5, 7, 10, multiplied through by q^(2N^2-2)
        # so that xhat = q^2 xtilde keeps its full precision
        b = basis_series(360)
        eta8 = b.eta4 * b.eta4
        for n in (2, 3, 4, 5, 7, 10):
            xhat = xtilde(n, 358).shift(2)
            powers = [LaurentSeries.one()]
            for _ in range(n * n):
                powers.append(powers[-1] * xhat)
            t = division_polynomials(n)
            diff = (homogenized_at(t.psiSq, powers) * b.E4
                    - homogenized_at(t.phiPol, powers) * eta8)
            assert diff.is_zero()
            assert diff.prec > 6 * 59            # q^0, q^6, ..., q^354

    def test_matches_fraction_lift(self):
        for n in (2, 3, 4, 5, 6, 7, 10):
            assert xtilde(n, 173) == xtilde_by_fractions(n, 173)

    def test_support_lattice(self):
        for n in range(2, 7):
            s = xtilde(n, 35)
            assert all(e % 6 == 4 for e, _ in s.items())

    def test_leading_coefficient(self):
        for n in range(2, 7):
            assert xtilde(n, 17).coeff(-2) == n * n

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            xtilde(1, 30)
        with pytest.raises(DomainError):
            xtilde(2, 10)


class TestYtilde:
    def test_square_relation(self):
        for n in (2, 3):
            xt = xtilde(n, 29)
            yt = ytilde(n, 29)
            assert (yt * yt - (xt * xt * xt - 1728)).is_zero()

    def test_leading_coefficient(self):
        for n in (2, 3, 4, 5):
            assert ytilde(n, 17).coeff(-3) == n ** 3

    def test_relations_pick_the_branch(self):
        # ytilde^2 = xtilde^3 - 1728 and psi_N(xt, yt)^3 E6 = omega_N(xt, yt)
        # eta^12, both multiplied through by a power of q so that
        # xhat = q^2 xtilde and yhat = q^3 ytilde keep their precision;
        # the omega relation fails for -ytilde
        prec = 6 * 32
        b = basis_series(prec)
        eta12 = (b.eta4 * b.eta4 * b.eta4).shift(-3)
        for n in (2, 3, 4, 5, 7):
            xhat = xtilde(n, prec).shift(2)
            yhat = ytilde(n, prec).shift(3)
            square = yhat * yhat - (xhat * xhat * xhat - LaurentSeries({6: 1728}))
            assert square.is_zero() and square.prec >= 6 * 31
            # psi_n = 2y f_n for even n, f_n for odd n, on y^2 = x^3 - 1728
            psi_poly, psi_y = (_f(n) * 2, 1) if n % 2 == 0 else (_f(n), 0)
            omega_poly, omega_y = division_polynomials(n).omega
            powers = [LaurentSeries.one()]
            for _ in range(len(omega_poly) - 1):
                powers.append(powers[-1] * xhat)
            for sign in (1, -1):
                psi_hat = weighted_at(psi_poly.coeffs, psi_y, n * n - 1, powers,
                                      sign * yhat)
                omega_hat = weighted_at(omega_poly, omega_y, 3 * n * n, powers,
                                        sign * yhat)
                diff = psi_hat * psi_hat * psi_hat * b.E6 - omega_hat * eta12
                assert diff.is_zero() == (sign == 1)
                assert diff.prec >= 6 * 31

    def test_matches_square_root_of_fraction_lift(self):
        # ytilde from the recurrence against sqrt(xtilde^3 - 1728) with
        # xtilde from the oracle's Newton lift, 30 terms each
        for n in (2, 3, 4, 5, 7):
            xt = xtilde_by_fractions(n, 181)
            root = series_sqrt(xt * xt * xt - 1728)
            assert root.prec >= 6 * 30 - 3
            assert ytilde(n, root.prec) == root


class TestLambda:
    """The rescaling lam that _tower finds against the fixed N^12 of
    n12_oracle: the same coefficients, and a remainder at the same step."""

    @pytest.mark.parametrize("N, n", [(N, 100) for N in range(2, 13)]
                             + [(5, 300), (10, 300), (12, 300)])
    def test_matches_n12_tower(self, N, n):
        a, b, lam = _tower(N, n)
        assert N ** 12 % lam == 0
        assert list(xtilde_terms(N, 6 * n - 7)) == n12_oracle.tower_terms(N, n)
        assert list(_reduced(b, lam, -3)) == n12_oracle.tower_terms(N, n, 1)

    def test_lambda_table(self):
        # lam is 1 exactly where xtilde is integral, and stays far below N^12
        lam = {N: _tower(N, 100)[2] for N in range(2, 13)}
        assert lam == {2: 1, 3: 3 ** 3, 4: 2 ** 6, 5: 5 ** 7, 6: 3 ** 3,
                       7: 7 ** 7, 8: 2 ** 12, 9: 3 ** 9, 10: 5 ** 7,
                       11: 11 ** 7, 12: 2 ** 6 * 3 ** 3}
        assert _tower(11, 30)[2] == 11 ** 6      # grows only when a step needs it

    @pytest.mark.parametrize("j", [1, 2, 4, 7])
    def test_corrupted_eta_fails_at_the_oracles_step(self, monkeypatch, j):
        # (j, N) = (1, 7) fails only at Q^15 and (4, 5), (4, 10) not at all
        # within 20 steps: a prime dividing N absorbs the error of 6j + 1
        eta_q = phicong.qexp._eta_q

        def corrupted(n):
            return [c + (i == j) for i, c in enumerate(eta_q(n))]

        monkeypatch.setattr(phicong.qexp, "_eta_q", corrupted)
        monkeypatch.setattr(n12_oracle, "_eta_q", corrupted)

        def by_lambda(N):
            a, _, lam = _tower(N, 20)
            return list(_reduced(a, lam, -2))

        for N in (2, 3, 5, 6, 7, 10, 12):
            outcomes = []
            for terms in (by_lambda, lambda N: n12_oracle.tower_terms(N, 20)):
                try:
                    outcomes.append(terms(N))
                except InternalConsistencyError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1], N
            if N in (2, 3):
                assert outcomes[0].endswith(f"not integral at Q^{j} after rescaling")


class TestDenominators:
    def test_N2_all_integral(self):
        rep = denominator_report(2, 173)
        for pr in rep.primes:
            assert pr.integral and pr.bound_ok
            if pr.p == 2:
                assert pr.expected_integral      # 2 || 2 but 4 does not divide
            else:
                assert pr.expected_integral

    def test_N5_unbounded_at_5(self):
        rep = denominator_report(5, 173)
        by_p = {pr.p: pr for pr in rep.primes}
        assert not by_p[5].expected_integral
        assert not by_p[5].integral
        assert by_p[5].unbounded_trend
        assert by_p[5].min_vals[2] < -4
        assert by_p[5].bound_ok
        for p in (2, 3, 7, 11):
            assert by_p[p].integral and by_p[p].expected_integral

    def test_unbounded_to_300_terms(self):
        # criterion 3 beyond 30 terms: the minima keep falling at 100 and
        # 300 terms where the dichotomy predicts denominators, and N = 10
        # stays 2-integral since 4 does not divide it
        cutoffs = (30, 100, 300)
        for n, p, mins in ((5, 5, (-178, -614, -1864)), (4, 2, (-167, -588, -1788))):
            pr = {pr.p: pr for pr in denominator_report(n, 1793, cutoffs).primes}[p]
            assert not pr.expected_integral and not pr.integral
            assert pr.unbounded_trend and pr.min_vals == mins
            assert pr.bound_ok
        pr = {pr.p: pr for pr in denominator_report(10, 1793, cutoffs).primes}[2]
        assert pr.expected_integral and pr.integral and pr.bound_ok

    def test_too_few_terms(self):
        with pytest.raises(DomainError):
            denominator_report(2, 30)

    @pytest.mark.parametrize("cutoffs", [(0, 20, 30), (10.5, 20, 30), (10, 20),
                                         (30, 20, 10), (10, 10, 30), [10, 20, 30]])
    def test_cutoffs_checked(self, cutoffs):
        # three ints 1 <= c1 < c2 < c3, or "strictly decrease" means nothing
        with pytest.raises(DomainError, match="cutoff"):
            denominator_report(3, 173, cutoffs)
