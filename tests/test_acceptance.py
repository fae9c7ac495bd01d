"""Acceptance suite.  Each test covers one numbered criterion and prints a
single PASS/FAIL line; every comparison is exact (zero tolerance)."""

import functools
import random
from fractions import Fraction
from math import lcm

from phicong.divpoly import rescaled
from phicong.invariants import (cusp_data_character, cusp_data_fixed,
                                elliptic_counts, genus_pointstab, legendre)
from phicong.qexp import denominator_report, xtilde
from phicong.symplectic import (SpParams, fixed_lagrangians, kernel_test,
                                lift_witness_mod_p2, rho_matrices, sp4_order)
from phicong.words import SubgroupSpec, Word, parse_word, phi, subgroup_member

from closed_forms import assert_matches_closed_forms
from cyc12_oracle import phi_by_matrices
from cycle_oracle import cusp_data_cycles, fixed_points
from permutation_oracle import group_order, permutation


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"FAIL criterion {num}: {text}")
                raise
            print(f"PASS criterion {num}: {text}")
        return wrapper
    return deco


# Golden coefficients of xtilde at exponents -2, 4, 10, 16, 22, 28.
GOLDEN_QEXP = {
    2: ("4", "20", "-28", "12", "60", "-128"),
    3: ("9", "40/3", "-68/81", "3904/2187", "-166558/19683",
        "-22205536/1594323"),
    4: ("16", "77/4", "2189/256", "-123117/16384", "-17529627/1048576",
        "-145441835/16777216"),
    5: ("25", "18104/625", "155226332/9765625", "-2222658420288/152587890625",
        "-311093336095872162/11920928955078125",
        "-1904353112035085290144/186264514923095703125"),
    6: ("36", "124/3", "1924/81", "-47996/2187", "-738988/19683",
        "-21736576/1594323"),
    7: ("49", "942920/16807", "452445233372/13841287201",
        "-345081894895333824/11398895185373143",
        "-479562567708066938891706/9387480337647754305649"),
    8: ("64", "4685/64", "11236493/262144", "-42660917997/1073741824",
        "-293417059904283/4398046511104",
        "-105586521517525931/4503599627370496"),
    9: ("81", "22504/243", "259896316/4782969", "-4743322187456/94143178827",
        "-52151470071866590/617673396283947",
        "-1078242366892782428512/36472996377170786403"),
    10: ("100", "71444/625", "655600868/9765625", "-9499917323508/152587890625",
         "-1242573828554492628/11920928955078125",
         "-6786637255738163108224/186264514923095703125"),
    12: ("144", "1975/12", "2005717/20736", "-3214590959/35831808",
         "-3097831691929/20639121408", "-1401611862206785/26748301344768"),
    15: ("225", "482152/1875", "119574864508/791015625",
         "-46790246868959936/333709716796875",
         "-55028168471537575444694/234639644622802734375"),
    16: ("256", "299597/1024", "46170272909/268435456",
         "-11226288952865517/70368744177664",
         "-4922214057285732035355/18446744073709551616"),
}


@criterion(1, "golden q-expansion coefficients reproduced exactly "
              "(N = 2..10 and spot rows N = 12, 15, 16)")
def test_criterion_1_qexp_golden():
    for n, row in GOLDEN_QEXP.items():
        s = xtilde(n, 29)
        for i, printed in enumerate(row):
            assert s.coeff(-2 + 6 * i) == Fraction(printed), (n, i)


@criterion(2, "rescaled division polynomials and their mod-2 / mod-3 shapes")
def test_criterion_2_rescaled():
    psi2, phi2 = rescaled(2)
    assert psi2 == (-4, 0, 0, 4)
    assert phi2 == (0, 8, 0, 0, 1)
    psi3, phi3 = rescaled(3)
    assert psi3 == (0, 0, 144, 0, 0, -72, 0, 0, 9)
    assert phi3 == (-64, 0, 0, 48, 0, 0, 96, 0, 0, 1)
    # N = 4 (2^2 || 4): psiHat/2^4 = X^12 (X^3-1) = X^15 - X^12 mod 2,
    # phiHat = X^16 mod 2
    psi4, phi4 = rescaled(4)
    assert all(c % 16 == 0 for c in psi4)
    assert {i for i, c in enumerate(psi4) if (c // 16) % 2} == {12, 15}
    assert {i for i, c in enumerate(phi4) if c % 2} == {16}
    # N = 3, 9 (3^r || N): psiHat/3^(2r) = X^2 (X-1)^(N^2-3) mod 3,
    # phiHat = (X-1)^(N^2) mod 3
    for n, r in ((3, 1), (9, 2)):
        psi_hat, phi_hat = rescaled(n)
        d = 9 ** r
        assert all(c % d == 0 for c in psi_hat)
        for poly, shift, m in ((psi_hat, 2, n * n - 3), (phi_hat, 0, n * n)):
            div = d if poly is psi_hat else 1
            expect = [0] * len(poly)
            binom = 1
            for i in range(m + 1):
                expect[i + shift] = (binom * (-1) ** (m - i)) % 3
                binom = binom * (m - i) // (i + 1)
            assert [(c // div) % 3 for c in poly] == expect, n


@criterion(3, "denominator dichotomy for N = 3 (bounded), N = 5 and N = 4 "
              "(unbounded), 30 exact terms each")
def test_criterion_3_denominators():
    rep3 = denominator_report(3, 173)
    for pr in rep3.primes:
        if pr.p != 3:
            assert pr.integral and pr.expected_integral, pr.p
    rep5 = denominator_report(5, 173)
    p5 = {pr.p: pr for pr in rep5.primes}[5]
    assert not p5.expected_integral
    assert p5.min_vals[2] < -4
    assert p5.min_vals[0] > p5.min_vals[1] > p5.min_vals[2]
    rep4 = denominator_report(4, 173)
    p2 = {pr.p: pr for pr in rep4.primes}[2]
    assert not p2.expected_integral
    assert not p2.integral
    assert p2.min_vals[0] > p2.min_vals[1] > p2.min_vals[2]


@criterion(4, "direct fixed-point counts equal epsilon_2 and epsilon_3 "
              "for p in {11, 13, 17, 19, 23}")
def test_criterion_4_fixed_points():
    for p in (11, 13, 17, 19, 23):
        S4, T4 = rho_matrices(SpParams(p, 2))
        eps2 = fixed_points(permutation(S4))
        eps3 = fixed_points(permutation(S4 * T4))
        assert eps2 == p + 2 + legendre(-1, p), p
        assert eps3 == p + 1 + (p + 1) * legendre(-3, p), p
        assert (eps2, eps3) == elliptic_counts(p)
        assert (fixed_lagrangians(S4), fixed_lagrangians(S4 * T4)) == (eps2, eps3)


@criterion(5, "cycle-type and character-theoretic cusp data agree for "
              "(p, x) in {(11, 2), (13, 2)}")
def test_criterion_5_cusps():
    for p in (11, 13):
        _, T4 = rho_matrices(SpParams(p, 2))
        cyc = cusp_data_cycles(permutation(T4))
        chr_ = cusp_data_character(p)
        expected = {1: 3, (p - 1) // 2: 4, p: 1, p * (p - 1) // 2: 2 * p + 4}
        assert cyc.widths == expected == chr_.widths
        assert cyc.total == 2 * p + 12 == chr_.total
        assert cusp_data_fixed(p, lambda d: fixed_lagrangians(T4 ** d)) == cyc


@criterion(6, "genus values 103/167/408/561/1026/2063/2500 with both "
              "routes agreeing for 11 <= p <= 200")
def test_criterion_6_genus():
    table = {11: 103, 13: 167, 17: 408, 19: 561, 23: 1026, 29: 2063, 31: 2500}
    for p, g in table.items():
        assert genus_pointstab(p) == g
    for p in range(11, 201):
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            genus_pointstab(p)      # raises if the routes disagree


@criterion(7, "Schreier-Sims order of <rho(S), rho(T)> equals "
              "p^4 (p^4 - 1)(p^2 - 1) / 2 for (11, 2) and (13, 2)")
def test_criterion_7_surjectivity():
    for p in (11, 13):
        S4, T4 = rho_matrices(SpParams(p, 2))
        order = group_order([permutation(S4), permutation(T4)])
        assert order == sp4_order(p) // 2, p


@criterion(8, "kernel word maps to the identity for (11, 2) but not (11, 8)")
def test_criterion_8_kernel_word():
    w = parse_word("S T^20 S^-1 T^33 S^-1 T^20 S^-1 T^33")
    assert kernel_test(w, SpParams(11, 2))
    assert not kernel_test(w, SpParams(11, 8))


@criterion(9, "mod-p^2 lifting witness holds for (11, 2) and (13, 2)")
def test_criterion_9_lift_witness():
    assert lift_witness_mod_p2(SpParams(11, 2))
    assert lift_witness_mod_p2(SpParams(13, 2))


def _rand_word(rng, maxlen=6, maxexp=5):
    return Word([(rng.choice("ST"), rng.randint(-maxexp, maxexp))
                 for _ in range(rng.randint(0, maxlen))])


@criterion(10, "property suites: phi homomorphism (1000 word pairs), "
               "subgroup lattice laws, and closed-form S/R actions on "
               "every Lagrangian for p = 11, 13, 17")
def test_criterion_10_properties():
    rng = random.Random(2026)
    for _ in range(1000):
        w1, w2 = _rand_word(rng), _rand_word(rng)
        # phi folds compose, so this checks associativity; the matrix
        # oracle checks the values on the same words
        assert phi(w1 * w2) == phi(w1).compose(phi(w2))
        for w in (w1, w2, w1 * w2):
            assert phi(w) == phi_by_matrices(w)
    for _ in range(200):
        w = _rand_word(rng)
        n1, n2 = rng.randint(1, 12), rng.randint(1, 12)
        both = (subgroup_member(w, SubgroupSpec("PhiCong", n1))
                and subgroup_member(w, SubgroupSpec("PhiCong", n2)))
        assert both == subgroup_member(w, SubgroupSpec("PhiCong", lcm(n1, n2)))
        if subgroup_member(w, SubgroupSpec("PhiCong", n1 * n2)):
            assert subgroup_member(w, SubgroupSpec("PhiCong", n1))
        g = _rand_word(rng, 4, 3)
        if subgroup_member(w, SubgroupSpec("PhiCong", n1)):
            assert subgroup_member(g * w * g.inverse(),
                                   SubgroupSpec("PhiCong", n1))
    for p in (11, 13, 17):
        assert_matches_closed_forms(p, 2)
