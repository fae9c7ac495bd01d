from fractions import Fraction

import pytest

from phicong.cli import MAX_P
from phicong.divpoly import division_polynomials, reduction_profile, rescaled
from phicong.errors import DomainError, InternalConsistencyError, UnsupportedPrimeError
from phicong.invariants import (chi_power, cusp_data_character, cusp_data_cycles,
                                dims_Gp, dims_unipotent, elliptic_counts,
                                genus_pointstab, legendre, lift_witness_mod_p2)
from phicong.matrices import Matrix
from phicong.symplectic import SpParams, rho_matrices

from closed_forms import genus_newman, noncongruence_report, twelve_genus_by_residue
import cycle_oracle
import geometry_oracle
from cycle_oracle import cycle_type
from geometry_oracle import cusp_data_fixed, fixed_lagrangians
from permutation_oracle import permutation


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


PRIMES_TO_200 = [p for p in range(11, 201) if is_prime(p)]
PRIMES_TO_2000 = [p for p in range(11, 2000) if is_prime(p)]
# every pair (p, x) that the command line admits
CLI_PAIRS = [(p, x) for p in range(11, MAX_P + 1) if is_prime(p) for x in range(1, p)]


def primitive_root(p):
    """The least primitive root mod p: no x^((p-1)/q) = 1, q a prime of p - 1."""
    qs = [q for q in range(2, p) if (p - 1) % q == 0 and is_prime(q)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestChi:
    def test_examples_p11(self):
        params = SpParams(11, 2)                    # a primitive root
        assert chi_power(params, 1) == 3
        assert chi_power(params, 5) == 23          # (p-1)/2
        assert chi_power(params, 110) == 1464      # identity
        assert chi_power(params, 11) == 14         # p | d
        assert chi_power(params, 55) == 1464       # T^(p(p-1)/2) = -I acts as id

    def test_identity_value(self):
        for p in (11, 13, 17):
            for x in range(1, p):
                assert chi_power(SpParams(p, x), p * (p - 1)) == (p * p + 1) * (p + 1)

    def test_non_divisor_rejected(self):
        with pytest.raises(DomainError):
            chi_power(SpParams(11, 2), 3)

    def test_small_prime_rejected(self):
        with pytest.raises(UnsupportedPrimeError):
            chi_power(SpParams(7, 2), 1)

    def test_explicit_y_other_than_1_over_x_is_refused(self):
        # 6 = 1/2 mod 11, and 17 = 6 + 11 is 1/2 mod 11 but not mod 121
        for y in (3, 5):
            for call in (lambda params: chi_power(params, 1), cusp_data_cycles,
                         lift_witness_mod_p2):
                with pytest.raises(DomainError, match="only for y = 1/x mod p, got "):
                    call(SpParams(11, 2, y))
        for y in (6, 17):
            assert chi_power(SpParams(11, 2, y), 5) == chi_power(SpParams(11, 2), 5)
            assert lift_witness_mod_p2(SpParams(11, 2, y))

    def test_composites_rejected(self):
        for fn in (elliptic_counts, genus_pointstab, cusp_data_character,
                   noncongruence_report, lambda p: chi_power(SpParams(p, 2), 1),
                   lambda p: dims_Gp(2, p)):
            for composite in (9, 15, 21, 65, 121):
                with pytest.raises(UnsupportedPrimeError):
                    fn(composite)

    def test_chi_matches_fixed_points(self):
        # independent verification against actual permutation powers
        p = 11
        _, T4 = rho_matrices(SpParams(p, 2))
        perm = permutation(T4)
        n = len(perm)
        for d in (1, 2, 5, 10, 11, 55):
            acc = list(range(n))
            for _ in range(d):
                acc = [perm[i] for i in acc]
            assert chi_power(SpParams(p, 2), d) == sum(i == j for i, j in enumerate(acc))


class TestCusps:
    def test_character_p11(self):
        data = cusp_data_character(11)
        assert data.total == 34
        assert data.widths == {1: 3, 5: 4, 11: 1, 55: 26}
        assert data.width_sum() == 1464

    def test_character_p13(self):
        data = cusp_data_character(13)
        assert data.total == 38
        assert data.widths == {1: 3, 6: 4, 13: 1, 78: 30}
        assert data.width_sum() == 2380

    def test_cycles_dual_oracle(self):
        for p in (11, 13):
            _, T4 = rho_matrices(SpParams(p, 2))
            cyc = cycle_oracle.cusp_data_cycles(permutation(T4))
            chr_ = cusp_data_character(p)
            assert cyc.widths == chr_.widths
            assert cyc.total == chr_.total

    def test_cycles_identity(self):
        data = cycle_oracle.cusp_data_cycles(list(range(10)))
        assert data.widths == {1: 10}
        assert data.total == 10

    @pytest.mark.parametrize("p, x", [(11, 2), (11, 1), (11, 10), (13, 3),
                                      (13, 4), (13, 5), (17, 4), (19, 7),
                                      (29, 12), (37, 6), (43, 2)])
    def test_counted_fixes_match_cycle_walk(self, p, x):
        # the Moebius inversion of fixed_lagrangians against the cycles of
        # the permutation, at a primitive root and at x of order 1, 2, 3,
        # 4, 6 and 14
        _, T4 = rho_matrices(SpParams(p, x))
        data = cusp_data_fixed(p, lambda d: fixed_lagrangians(T4 ** d))
        assert data.widths == cycle_type(permutation(T4))
        assert data == cycle_oracle.cusp_data_cycles(permutation(T4))
        assert data == cusp_data_cycles(SpParams(p, x))

    def test_widths_by_x_squared(self):
        # README's table of the cusps at every pair the CLI admits, with
        # m = ord(x^2) and k = (p - 1)/2m, and the Moebius inversion of
        # chi that proves it
        for p, x in CLI_PAIRS:
            params = SpParams(p, x)
            assert cusp_data_cycles(params) == \
                cusp_data_fixed(p, lambda d: chi_power(params, d)), (p, x)
            n, sq = (p * p + 1) * (p + 1), x * x % p
            m = next(m for m in range(1, p) if pow(sq, m, p) == 1)
            k = (p - 1) // (2 * m)
            widths = ({1: 1, p: (n - 1) // p} if sq == 1 else
                      {1: p + 3, 2: (n - p - 3) // 2} if sq == p - 1 else
                      {1: 3, m: 4 * k, p: 1, p * m: (2 * p + 4) * k})
            assert cusp_data_cycles(params).widths == widths, (p, x)

    def test_counted_fixes_checked(self):
        # fixes of no permutation: c_1 = 4 / 1, c_2 = (3 - 4) / 2 < 0
        with pytest.raises(InternalConsistencyError, match="non-negative"):
            cusp_data_fixed(11, lambda d: 4 if d == 1 else 3)
        # the identity on 5 points: every c_n is a count, but the widths do
        # not add up to |X(F_13)|
        with pytest.raises(InternalConsistencyError, match="partition"):
            cusp_data_fixed(13, lambda d: 5)
        with pytest.raises(UnsupportedPrimeError):
            cusp_data_fixed(15, lambda d: 0)

    def test_character_range(self):
        for p in PRIMES_TO_200[:10]:
            data = cusp_data_character(p)
            assert data.total == 2 * p + 12

    def test_character_is_the_inverted_chi(self):
        # the closed-form widths are the Moebius inversion of chi at a
        # primitive root
        for p in PRIMES_TO_2000:
            params = SpParams(p, primitive_root(p))
            assert cusp_data_character(p) == \
                cusp_data_fixed(p, lambda d: chi_power(params, d)), p


class TestGeometryOracle:
    """The closed forms in x^2 mod p against the matrix computations they
    replaced (geometry_oracle), on every pair (p, x) the CLI admits."""

    def test_cusp_data_on_every_pair(self):
        assert len(CLI_PAIRS) == 1550
        for p, x in CLI_PAIRS:
            params = SpParams(p, x)
            assert cusp_data_cycles(params) == geometry_oracle.cusp_data_cycles(params), \
                (p, x)

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
    def test_each_case_at_every_power(self, p):
        # the five cases of chi_power take five values, each one met
        values = set()
        for x in range(1, p):
            params = SpParams(p, x)
            T4 = rho_matrices(params)[1]
            for d in divisors(p * (p - 1)):
                f = chi_power(params, d)
                assert f == fixed_lagrangians(T4 ** d), (p, x, d)
                values.add(f)
        assert values == {(p * p + 1) * (p + 1), 1, 2 * p + 1, p + 3, 3}

    def test_lift_witness_on_every_pair(self):
        # and at a y = 1/x mod p that is not 1/x mod p^2, over Z/p^2
        pairs = CLI_PAIRS + [(p, x, pow(x, -1, p) + p) for p in (11, 13, 17, 19, 23)
                             for x in range(1, p)]
        witnessed = [lift_witness_mod_p2(SpParams(*pair)) for pair in pairs]
        assert witnessed == [geometry_oracle.lift_witness_mod_p2(SpParams(*pair))
                             for pair in pairs]
        assert witnessed[:1550].count(False) == 26      # x^2 = -1 at p = 1 mod 4


class TestElliptic:
    def test_examples(self):
        assert elliptic_counts(13) == (16, 28)
        assert elliptic_counts(11) == (12, 0)
        assert elliptic_counts(17) == (20, 0)
        assert elliptic_counts(19) == (20, 40)
        assert elliptic_counts(23) == (24, 0)

    def test_small_prime_rejected(self):
        with pytest.raises(UnsupportedPrimeError):
            elliptic_counts(7)

    def test_every_rho_fixes_the_closed_form(self):
        # rho(S)^2 = -I with trace 0 and R^3 = -I with trace -1, R = rho(S) rho(T),
        # put each in one conjugacy class of Sp4(F_p) at every x and y, so
        # both fix the closed form's count: every (p, x) the CLI admits, and
        # every (x, y) at five primes
        cases = [(p, x, None) for p in range(11, MAX_P + 1) if is_prime(p)
                 for x in range(1, p)]
        assert len(cases) == 1550
        cases += [(p, x, y) for p in (11, 13, 17, 19, 23)
                  for x in range(1, p) for y in range(1, p)]
        for p, x, y in cases:
            S4, T4 = rho_matrices(SpParams(p, x, y))
            R = S4 * T4
            neg = Matrix([[-int(i == j) for j in range(4)] for i in range(4)], p)
            assert S4 * S4 == neg and R ** 3 == neg, (p, x, y)
            traces = [sum(g.rows[i][i] for i in range(4)) % p for g in (S4, R)]
            assert traces == [0, p - 1], (p, x, y)
            assert (fixed_lagrangians(S4), fixed_lagrangians(R)) == elliptic_counts(p), \
                (p, x, y)


class TestGenus:
    def test_table(self):
        expected = {11: 103, 13: 167, 17: 408, 19: 561, 23: 1026,
                    29: 2063, 31: 2500}
        for p, g in expected.items():
            assert genus_pointstab(p) == g

    def test_matches_p_mod_12_forms(self):
        # Riemann-Hurwitz against its expansion in each class mod 12, which
        # also shows that 12 divides it
        for p in PRIMES_TO_2000:
            assert 12 * genus_pointstab(p) == twelve_genus_by_residue(p), p

    def test_newman(self):
        assert genus_newman(6 * 36, 6) == 1
        assert genus_newman(6, 6) == 1
        assert genus_newman(12, 4) == Fraction(3, 4)
        with pytest.raises(DomainError):
            genus_newman(0, 6)


class TestDims:
    def test_unipotent(self):
        d = dims_unipotent(1, 24, True)
        assert d.dim_M == 24 and d.dim_M_char == 1
        assert d.dim_S_char == 1 and d.dim_eis_char == 0
        d = dims_unipotent(1, 24, False)
        assert d.dim_S_char == 0 and d.dim_eis_char == 1
        d = dims_unipotent(3, 54, True)
        assert d.dim_M == 162 and d.dim_S_char == 2 and d.dim_eis_char == 1

    def test_gp(self):
        d = dims_Gp(2, 5)
        assert d.dim_M == 6 and d.genus == 0
        assert d.cusps == 3 and d.elliptic2 == 3
        d = dims_Gp(1, 17)
        assert d.dim_M == 8
        with pytest.raises(UnsupportedPrimeError):
            dims_Gp(2, 11)

    def test_gp_odd_weight(self):
        assert dims_Gp(3, 5).dim_M == 7

    def test_gp_integral(self):
        # kp + 2 - 3 [k odd] is even, so halving it loses nothing
        for p in [5] + [p for p in PRIMES_TO_2000 if p % 12 == 5]:
            for k in range(1, 20):
                assert 2 * dims_Gp(k, p).dim_M == k * p + 2 - 3 * (k % 2), (k, p)


# a float where an int belongs is refused like any other value out of range,
# not computed with, nor reported as a failed internal check
@pytest.mark.parametrize("call", [
    lambda: dims_unipotent(2.5, 3, True),
    lambda: dims_unipotent(2, 3.0, True),
    lambda: chi_power(SpParams(11, 2), 5.0),
    lambda: chi_power(SpParams(11.0, 2), 5),
    lambda: dims_Gp(1.5, 17),
    lambda: dims_Gp(2, 17.0),
    lambda: division_polynomials(5.0),
    lambda: rescaled(5.0),
    lambda: reduction_profile(5.0, 7),
    lambda: reduction_profile(5, 7.0),
], ids=["dims_unipotent-k", "dims_unipotent-index", "chi_power-d", "chi_power-p",
        "dims_Gp-k", "dims_Gp-p", "division_polynomials", "rescaled",
        "reduction_profile-N", "reduction_profile-p"])
def test_non_int_refused(call):
    with pytest.raises(DomainError):
        call()


class TestNoncongruence:
    def test_witness(self):
        for p in (11, 13, 17):
            rep = noncongruence_report(p)
            assert rep.witness
            assert rep.psp4_order > rep.sl2_order
            assert rep.level == p * (p - 1)

    def test_p11_orders(self):
        rep = noncongruence_report(11)
        assert rep.sp4_order == 11 ** 4 * (11 ** 4 - 1) * (11 ** 2 - 1)
        assert rep.psp4_order == rep.sp4_order // 2


class TestLegendre:
    def test_values(self):
        assert legendre(1, 11) == 1
        assert legendre(0, 11) == 0
        assert legendre(2, 11) == -1
        squares = {x * x % 13 for x in range(1, 13)}
        for a in range(1, 13):
            assert legendre(a, 13) == (1 if a in squares else -1)
