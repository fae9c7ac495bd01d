import itertools
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from phicong.cyclotomic import Cyc12
from phicong.errors import (DomainError, InternalConsistencyError,
                            UnsupportedPrimeError)
from phicong.invariants import lift_witness_mod_p2
from phicong.matrices import Matrix
from phicong.rationals import grassmannian_size, is_prime
import phicong.rationals
import phicong.symplectic
from phicong.symplectic import (J_ROWS, SYM3, SpParams, form_J, inverse, kernel_test,
                                rho_matrices, rho_word, sp4_order, surjectivity_verdict)
from phicong.words import Word, parse_word

import certificate_oracle
import geometry_oracle
import permutation_oracle
import routes_oracle
import schreier_oracle
from closed_forms import (Lagrangian, assert_matches_closed_forms, in_span,
                          invariant_forms, lagrangian_from_index, rref_mod_p)
from certificate_oracle import generates_sp4, outside_sp2_p2
from cycle_oracle import cycle_type, fixed_points
from geometry_oracle import fixed_lagrangians
from permutation_oracle import group_order, permutation, require_memory
from ring_matrix import Matrix as RingMatrix, eval_word
from ring_poly import UniPoly, divmod_poly, ext_gcd, map_coeffs


def order_by_iteration(M):
    """The order of M by brute force: the least k >= 1 with M^k = I."""
    acc, k = M, 1
    while not acc.is_identity():
        acc, k = acc * M, k + 1
    return k


def compose(f, g):
    """The permutation f after g, composed point by point."""
    return [f[i] for i in g]


class TestRho:
    def test_params_validation(self):
        with pytest.raises(UnsupportedPrimeError):
            SpParams(7, 2)
        with pytest.raises(DomainError):
            SpParams(11, 11)
        with pytest.raises(DomainError):
            SpParams(11, 2, 22)
        for composite in (9, 15, 25, 121):
            with pytest.raises(UnsupportedPrimeError):
                SpParams(composite, 2)

    @pytest.mark.parametrize("args", [(11, 2.0), (11.0, 2), (11, 2, 3.0),
                                      (11, Fraction(2)), (Fraction(11), 2)])
    def test_params_must_be_ints(self, args):
        with pytest.raises(DomainError):
            SpParams(*args)

    def test_params_defined_once(self):
        # symplectic re-exports the class that rationals defines
        assert phicong.symplectic.SpParams is phicong.rationals.SpParams

    @pytest.mark.parametrize("p", [11, 13])
    def test_entries_at_every_x_and_y(self, p):
        # rho(S) and rho(T) written out entry by entry
        for x, y in itertools.product(range(1, p), [None, *range(1, p)]):
            yy = pow(x, -1, p) if y is None else y
            xi, yi = pow(x, -1, p), pow(yy, -1, p)
            S4, T4 = rho_matrices(SpParams(p, x, y))
            assert S4 == Matrix([[0, 0, 0, -xi], [0, 0, yi, 0],
                                 [0, -yy, 0, 0], [x, 0, 0, 0]], p), (x, y)
            assert T4 == Matrix([[x, 3 * yy, 3 * yi, xi], [0, yy, 2 * yi, xi],
                                 [0, 0, yi, xi], [0, 0, 0, xi]], p), (x, y)

    def test_st_order_six(self):
        S4, T4 = rho_matrices(SpParams(11, 2))
        R = S4 * T4
        acc = R
        for _ in range(5):
            assert not acc.is_identity()
            acc = acc * R
        assert acc.is_identity()

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 29])
    def test_order_T_matches_iteration(self, p):
        # x^2 = +-1, ord(x) = 3 and 6 (p = 13, 19), and ord(x) = 4 (13, 17, 29)
        for x in range(1, p):
            _, T4 = rho_matrices(SpParams(p, x))
            assert surjectivity_verdict(SpParams(p, x)).order_T == order_by_iteration(T4), x

    def test_invariant_forms_contains_J(self):
        p = 11
        S4, T4 = rho_matrices(SpParams(p, 2))
        basis = invariant_forms(S4, T4)
        assert len(basis) == 1
        assert in_span(form_J(p), basis)
        # G with only the (1,2)/(2,1) entries set is not a multiple of J
        G = Matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], p)
        assert not in_span(G, basis)
        assert in_span(Matrix([[0] * 4] * 4, p), [])
        assert not in_span(G, [])

    def test_invariant_forms_trivial_pair(self):
        p = 11
        basis = invariant_forms(Matrix.identity(p), Matrix.identity(p))
        assert len(basis) == 6


class TestGrassmannian:
    def test_counts(self):
        assert len(permutation(Matrix.identity(11))) == 1464
        assert len(permutation(Matrix.identity(13))) == 2380
        assert lagrangian_from_index(0, 11) == Lagrangian("A", (0, 0, 0))
        assert lagrangian_from_index(1463, 11) == Lagrangian("D", ())

    def test_isotropy(self):
        # the rows of points that permutation expands, under the identity,
        # are README's Plucker coordinates, and each is isotropic for J:
        # p03 = 3 p12
        for p in (11, 13):
            ident = [[int(r == s) for s in range(6)] for r in range(6)]
            points = []
            for alpha, beta, count in permutation_oracle._image_rows(ident, p):
                points += [[(u + t * v) % p for u, v in zip(alpha, beta)]
                           for t in range(count)]
            assert points == [lagrangian_from_index(i, p).plucker(p)
                              for i in range(grassmannian_size(p))]
            assert all((q[2] - 3 * q[3]) % p == 0 for q in points)

    def test_index_round_trip(self):
        for p in (11, 13):
            kinds = {}
            for i in range(grassmannian_size(p)):
                L = lagrangian_from_index(i, p)
                assert L.index(p) == i
                kinds[L.kind] = kinds.get(L.kind, 0) + 1
            assert kinds == {"A": p ** 3, "B": p ** 2, "C": p, "D": 1}
        with pytest.raises(DomainError):
            lagrangian_from_index(1464, 11)

    def test_act_examples(self):
        params = SpParams(11, 2)
        x, y = 2, pow(2, -1, 11)
        S4, T4 = rho_matrices(params)
        D = Lagrangian("D", ()).index(11)
        assert permutation(S4)[D] == Lagrangian("A", (0, 0, 0)).index(11)
        assert permutation(S4 * T4)[D] == Lagrangian(
            "A", ((-x * y) % 11, (2 * x * x) % 11, (-2 * y * y) % 11)).index(11)
        assert permutation(Matrix.identity(11)) == list(range(1464))

    def test_act_matches_closed_forms(self):
        assert_matches_closed_forms(13, 3)

    @pytest.mark.parametrize("broken, message", [
        # images that are not Lagrangian: q03 becomes q01 + q03
        (lambda M: [[int(r == s or (r, s) == (2, 0)) for s in range(6)]
                    for r in range(6)], "not Lagrangian"),
        # the zero vector
        (lambda M: [[0] * 6 for _ in range(6)], "not 2-dimensional"),
        # a Lagrangian vector that is not a plane: only p03 = 3 p12 nonzero
        (lambda M: [[0] * 6, [0] * 6, [3, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
                    [0] * 6, [0] * 6], "not 2-dimensional"),
        # valid images, but q03 and q12 forgotten: A(a, b, c) goes to
        # A(0, b, c), so points collide
        (lambda M: [[int(r == s and r not in (2, 3)) for s in range(6)]
                    for r in range(6)], "not a bijection"),
    ])
    def test_broken_images_rejected(self, monkeypatch, broken, message):
        # the broken matrices stand in for the exterior square of rho(S)
        S4, _ = rho_matrices(SpParams(11, 2))
        monkeypatch.setattr(permutation_oracle, "wedge", broken)
        with pytest.raises(InternalConsistencyError, match=message):
            permutation(S4)

    def test_negation_acts_trivially(self):
        p = 11
        S4, _ = rho_matrices(SpParams(p, 2))
        neg = Matrix([[-e for e in row] for row in S4.rows], p)
        assert permutation(S4) == permutation(neg)

    @pytest.mark.parametrize("m", [9, 15, 2, 3])
    def test_modulus_not_a_prime_above_3_rejected(self, m):
        with pytest.raises(UnsupportedPrimeError):
            permutation(Matrix.identity(m))

    def test_non_symplectic_rejected(self):
        p = 11
        M = Matrix([[int(i == j or (i, j) == (0, 1)) for j in range(4)]
                    for i in range(4)], p)
        with pytest.raises(DomainError):
            permutation(M)


class TestRref:
    def test_reduces_in_place(self):
        rows = [[2, 4, 1], [1, 2, 3], [3, 6, 4]]
        assert rref_mod_p(rows, 7) == [0, 2]
        assert rows == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]

    def test_rank_deficient_plane(self):
        rows = [[1, 2, 3, 4], [2, 4, 6, 8]]
        assert rref_mod_p(rows, 11) == [0]
        assert rows[1] == [0, 0, 0, 0]


class TestPermutations:
    def test_product_by_indexing(self):
        # rho(S) rho(T) acts as rho(S) after rho(T)
        for p in (11, 13):
            S4, T4 = rho_matrices(SpParams(p, 2))
            perm_s, perm_t = permutation(S4), permutation(T4)
            assert compose(perm_s, perm_t) == permutation(S4 * T4)

    def test_cycle_type(self):
        perm = [1, 2, 0, 4, 3, 5]
        assert cycle_type(perm) == {3: 1, 2: 1, 1: 1}
        assert fixed_points(perm) == 1
        assert lcm(*cycle_type(perm)) == 6
        assert cycle_type([]) == {}

    @pytest.mark.parametrize("p", [11, 13, 23, 29, 47])
    def test_action_matches_closed_forms(self, p):
        # the closed forms check S and R at every point, and T = S^-1 (S T)
        assert_matches_closed_forms(p, 2)
        S4, T4 = rho_matrices(SpParams(p, 2))
        perm_s = permutation(S4)
        s_inv = [0] * len(perm_s)
        for i, j in enumerate(perm_s):
            s_inv[j] = i
        assert permutation(T4) == compose(s_inv, permutation(S4 * T4))

    def test_cycle_type_of_known_permutations(self):
        # n points shuffled and cut into cycles of chosen lengths
        rng = random.Random(7)
        for n in (1, 2, 3, 7, 1000, 10 ** 5):
            points, perm, lengths = list(range(n)), [0] * n, []
            rng.shuffle(points)
            while sum(lengths) < n:
                lengths.append(min(rng.choice((1, 1, 2, 3, 7, 64, 1000)), n - sum(lengths)))
            start = 0
            for length in lengths:
                cycle = points[start:start + length]
                for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                    perm[i] = j
                start += length
            assert cycle_type(perm) == {k: lengths.count(k) for k in set(lengths)}
            assert fixed_points(perm) == lengths.count(1)

    def test_fixed_points_S(self):
        # epsilon_2 = p + 2 + legendre(-1, p)
        S4, _ = rho_matrices(SpParams(13, 2))
        assert fixed_points(permutation(S4)) == 16

    def test_fixed_points_R(self):
        S4, T4 = rho_matrices(SpParams(11, 2))
        assert fixed_points(permutation(S4 * T4)) == 0

    def test_fixed_points_match_cycle_type(self):
        for p, x in ((11, 2), (13, 2), (29, 2)):
            S4, T4 = rho_matrices(SpParams(p, x))
            perm_s, perm_t = permutation(S4), permutation(T4)
            for perm in (perm_s, perm_t, compose(perm_s, perm_t)):
                assert fixed_points(perm) == cycle_type(perm).get(1, 0)
        assert fixed_points([]) == 0

    def test_T_order(self):
        _, T4 = rho_matrices(SpParams(11, 2))
        assert lcm(*cycle_type(permutation(T4))) == 55    # p(p-1)/2


def _symmetric_7():
    return [[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]]


def _primitive_roots(p):
    return [x for x in range(2, p) if len({pow(x, k, p) for k in range(p - 1)}) == p - 1]


def _rho_perms(p, x):
    S4, T4 = rho_matrices(SpParams(p, x))
    return [permutation(S4), permutation(T4)]


class TestGroupOrder:
    def test_trivial(self):
        assert group_order([list(range(20))]) == 1

    def test_cyclic_T(self):
        _, T4 = rho_matrices(SpParams(11, 2))
        assert group_order([permutation(T4)]) == 55

    def test_symmetric_group(self):
        assert group_order(_symmetric_7()) == 5040

    def test_generator_order_invariance(self):
        ps, pt = _rho_perms(13, 1)
        assert group_order([ps, pt]) == group_order([pt, ps]) == 1092

    def test_schreier_vectors_are_lists_of_labels(self):
        # O(n) per level: no level keeps a permutation per orbit point
        n = grassmannian_size(13)
        chain = permutation_oracle._stabilizer_chain(_rho_perms(13, 1))
        for level in chain:
            assert len(level.labels) == n
            assert len(level.gens) == len(level.invs)
            orbit = [x for x, k in enumerate(level.labels) if k != -1]
            assert level.size == len(orbit)
            for x in orbit[::7]:
                assert level.coset_rep(x, list(range(n)))[level.base] == x


def _ppd_part(p):
    """p^2 + 1 without its factors 2 and 5."""
    r = p * p + 1
    for q in (2, 5):
        while r % q == 0:
            r //= q
    return r


def _sp2_p2_generators(p, rng):
    """Two random elements of Sp2(p^2):2 in Sp4(p), the second outside
    Sp2(p^2), and the Gram matrix of the form they preserve.  F_p^2 is
    F_p(delta), delta^2 = d a non-residue, and F_p^2-coordinates u0 + u1 delta
    are split into (u0, u1): SL2(p^2) acts on F_p^4 by restriction of
    scalars, the Frobenius by conjugating each coordinate, and both keep the
    form Tr det(u, v)."""
    d = next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)

    def mul(a, b):
        return ((a[0] * b[0] + d * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p)

    def inv(a):
        norm = pow(a[0] * a[0] - d * a[1] * a[1], -1, p)
        return (a[0] * norm % p, -a[1] * norm % p)

    def block(a):                   # multiplication by a on the basis (1, delta)
        return [[a[0], d * a[1]], [a[1], a[0]]]

    def sl2():
        while True:
            al, be, ga = [(rng.randrange(p), rng.randrange(p)) for _ in range(3)]
            if al != (0, 0):
                break
        one_plus = mul(be, ga)
        ep = mul(((1 + one_plus[0]) % p, one_plus[1]), inv(al))
        tl, tr, bl, br = map(block, (al, be, ga, ep))
        return Matrix([tl[0] + tr[0], tl[1] + tr[1], bl[0] + br[0], bl[1] + br[1]], p)

    frobenius = Matrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], p)
    gram = Matrix([[0, 0, 2, 0], [0, 0, 0, 2 * d], [-2, 0, 0, 0], [0, -2 * d, 0, 0]], p)
    return sl2(), frobenius * sl2(), gram


def _sp2_times_sp2_generators(p, rng):
    """Two random elements of Sp2(p) x Sp2(p), on the J-orthogonal planes
    <e1, e4> and <e2, e3>."""
    def sl2():
        while True:
            a, b, c = (rng.randrange(p) for _ in range(3))
            if a:
                return a, b, c, (1 + b * c) * pow(a, -1, p) % p

    def element():
        (a, b, c, d), (e, f, g, h) = sl2(), sl2()
        return Matrix([[a, 0, 0, b], [0, e, f, 0], [0, g, h, 0], [c, 0, 0, d]], p)
    return element(), element()


def _sym3(g, p):
    """Sym^3 of the 2x2 matrix g = ((a, b), (c, d)) mod p, on the basis
    X^3, X^2 Y, X Y^2, Y^3: column j holds the coefficients of
    (a X + c Y)^(3 - j) (b X + d Y)^j."""
    (a, b), (c, d) = g
    cols = []
    for j in range(4):
        poly = [1]
        for u, v in [(a, c)] * (3 - j) + [(b, d)] * j:
            poly = [s * u + t * v for s, t in zip(poly + [0], [0] + poly)]
        cols.append(poly)
    return Matrix(zip(*cols), p)


def _walk(A, B):
    return list(certificate_oracle.random_elements(
        [A, B], random.Random(certificate_oracle.SEED), certificate_oracle.TRIES))


class TestCertificate:
    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                                   53, 59, 61])
    def test_every_primitive_root_certified(self, p):
        for x in _primitive_roots(p):
            assert generates_sp4(*rho_matrices(SpParams(p, x))), x

    def test_certified_iff_exact_order_is_psp4_at_p11(self):
        seen = set()
        for x in range(1, 11):
            S4, T4 = rho_matrices(SpParams(11, x))
            exact = schreier_oracle.group_order([S4, T4]) // 2   # -I acts trivially
            assert generates_sp4(S4, T4) == (exact == sp4_order(11) // 2), x
            seen.add(exact)
        assert seen == {660, sp4_order(11) // 2}

    def test_uncertified_exactly_for_x_of_order_1_2_3_4_6(self):
        # over all 300 pairs (p, x) with 11 <= p <= 47 prime and 1 <= x < p,
        # no certificate is found exactly when x has multiplicative order
        # 1, 2, 3, 4 or 6 mod p
        uncertified = 0
        for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            for x in range(1, p):
                order = next(k for k in range(1, p) if pow(x, k, p) == 1)
                certified = generates_sp4(*rho_matrices(SpParams(p, x)))
                assert certified == (order not in (1, 2, 3, 4, 6)), (p, x, order)
                uncertified += not certified
        assert uncertified == 52

    @pytest.mark.parametrize("p, x, order", [(13, 3, 7197372), (19, 7, 70373340)])
    def test_uncertified_pairs_get_exact_order(self, p, x, order):
        params = SpParams(p, x)
        S4, T4 = rho_matrices(params)
        assert not generates_sp4(S4, T4)
        v = surjectivity_verdict(params)
        assert v.perm_group_order == order
        assert not v.surjective_psp4

    @pytest.mark.parametrize("p", [11, 13])
    def test_sp2_p2_extension_never_certified(self, p):
        rng = random.Random(p)
        r, ppd_seen = _ppd_part(p), 0
        for _ in range(8):
            A, B, gram = _sp2_p2_generators(p, rng)
            for M in (A, B):
                assert Matrix(zip(*M.rows), M.m) * gram * M == gram
            assert not generates_sp4(A, B)
            for g in _walk(A, B):
                assert not outside_sp2_p2(g)
                ppd_seen += gcd(order_by_iteration(g), r) > 1
        assert ppd_seen > 0

    @pytest.mark.parametrize("p", [11, 13])
    def test_sp2_times_sp2_never_certified(self, p):
        rng = random.Random(p)
        J = form_J(p)
        for _ in range(8):
            A, B = _sp2_times_sp2_generators(p, rng)
            for M in (A, B):
                assert Matrix(zip(*M.rows), M.m) * J * M == J
            assert not generates_sp4(A, B)

    @pytest.mark.parametrize("p", [11, 13, 17, 29])
    def test_borel_generators_never_certified(self, p):
        # rho(T) is upper triangular, and so is diag(t, s, 1/s, 1/t): they
        # generate a subgroup of the Borel subgroup, whose order p^4 (p-1)^2
        # no prime >= 7 that divides p^2 + 1 divides
        rng = random.Random(p)
        J = form_J(p)
        for _ in range(6):
            t, s = rng.randrange(1, p), rng.randrange(1, p)
            D = Matrix([[t, 0, 0, 0], [0, s, 0, 0], [0, 0, pow(s, -1, p), 0],
                        [0, 0, 0, pow(t, -1, p)]], p)
            assert Matrix(zip(*D.rows), D.m) * J * D == J
            T4 = rho_matrices(SpParams(p, rng.randrange(1, p)))[1]
            assert not generates_sp4(T4, D)
            for g in _walk(T4, D):
                assert all(g.rows[i][j] == 0 for i in range(4) for j in range(i))
                assert (g ** (p * (p - 1))).is_identity()

    @pytest.mark.parametrize("p", [11, 13, 17])
    def test_principal_sl2_never_certified(self, p):
        # Sym^3 sends SL2(p), generated by S and T, into the group of the
        # form below; the image has order p(p^2 - 1), which no prime >= 7
        # that divides p^2 + 1 divides, so a proof here would be false
        S4, T4 = _sym3(((0, -1), (1, 0)), p), _sym3(((1, 1), (0, 1)), p)
        gram = Matrix([[0, 0, 0, 3], [0, 0, -1, 0], [0, 1, 0, 0], [-3, 0, 0, 0]], p)
        for M in (S4, T4):
            assert Matrix(zip(*M.rows), M.m) * gram * M == gram
        assert not generates_sp4(S4, T4)
        for g in _walk(S4, T4):
            assert (g ** (p * (p * p - 1))).is_identity()

    def test_order_5_is_no_ppd_element_at_p13(self, monkeypatch):
        # 5 divides 13^2 + 1 = 2 * 5 * 17 but also |2^(1+4).Omega4-(2)|, so
        # only an order divisible by 17 counts.  A walk that meets an
        # element of order 5 and one outside Sp2(p^2):2, both in the group
        # of the same form, proves nothing.
        p, rng = 13, random.Random(5)
        while True:
            A, _, gram = _sp2_p2_generators(p, rng)
            k = order_by_iteration(A)
            if k % 5 == 0:
                A = A ** (k // 5)
                break
        while True:
            a, b, c = (rng.randrange(p) for _ in range(3))
            if a:
                d = (1 + b * c) * pow(a, -1, p) % p
                # SL2 blocks on <e1, e3> and <e2, e4>, the planes the form
                # pairs, with traces a + d and 2 + 7 (2 * 7 = 1 mod 13)
                C = Matrix([[a, 0, b, 0], [0, 2, 0, 0], [c, 0, d, 0], [0, 0, 0, 7]], p)
                if outside_sp2_p2(C):
                    break
        for M in (A, C):
            assert Matrix(zip(*M.rows), M.m) * gram * M == gram
        monkeypatch.setattr(certificate_oracle, "random_elements",
                            lambda gens, rng, count: iter([A, C]))
        assert not generates_sp4(A, C)

    def test_rho_T_outside_sp2_p2_iff_y_is_not_pm_x_or_inverse(self):
        for p in (11, 13, 17):
            for x in range(1, p):
                assert not outside_sp2_p2(rho_matrices(SpParams(p, x))[1])
                for y in range(1, p):
                    excluded = {x, p - x, pow(x, -1, p), p - pow(x, -1, p)}
                    T4 = rho_matrices(SpParams(p, x, y))[1]
                    assert outside_sp2_p2(T4) == (y not in excluded), (p, x, y)

    def test_outside_sp2_p2_matches_characteristic_polynomial(self):
        # t^4 - a t^3 + e2 t^2 - a t + 1, e2 the sum of the principal 2x2
        # minors, splits as (t^2 - s1 t + 1)(t^2 - s2 t + 1) with s1 + s2 = a
        # and s1 s2 = e2 - 2; the test asks for s1 != s2 in F_p and a != 0
        for p, x in ((11, 2), (13, 2), (13, 3), (17, 4)):
            for g in _walk(*rho_matrices(SpParams(p, x))):
                a = sum(g.rows[i][i] for i in range(4)) % p
                e2 = sum(g.rows[i][i] * g.rows[j][j] - g.rows[i][j] * g.rows[j][i]
                         for i in range(4) for j in range(i + 1, 4)) % p
                split = any((s * (a - s) - e2 + 2) % p == 0 and (2 * s - a) % p
                            for s in range(p))
                assert outside_sp2_p2(g) == (split and a != 0)

    def test_prime_near_10_to_9_under_1_s(self):
        start = time.perf_counter()
        assert generates_sp4(*rho_matrices(SpParams(10 ** 9 + 7, 5)))
        assert time.perf_counter() - start < 1.0


def _fixes_of_powers(perm, exponents):
    """{k: points fixed by perm^k}: a point is fixed by perm^k iff the
    length of its cycle divides k."""
    cycles = cycle_type(perm)
    return {k: sum(length * count for length, count in cycles.items()
                   if k % length == 0) for k in exponents}


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _transvection(u, a, p):
    """v -> v + a <v, u> u, with <v, u> = v^T J u."""
    Ju = [sum(r * c for r, c in zip(row, u)) for row in form_J(p).rows]
    return Matrix([[int(i == j) + a * u[i] * Ju[j] for j in range(4)]
                   for i in range(4)], p)


class TestFixedLagrangians:
    """fixed_lagrangians against the fixed points of the permutation of
    X(F_p), point by point; the fixes of a power g^k come from the cycle
    type of g's permutation."""

    @staticmethod
    def assert_rho_matches(p, x):
        S4, T4 = rho_matrices(SpParams(p, x))
        assert fixed_lagrangians(S4) == fixed_points(permutation(S4)), (p, x)
        assert fixed_lagrangians(S4 * T4) == fixed_points(permutation(S4 * T4)), (p, x)
        ds = _divisors(p * (p - 1))
        counted = {d: fixed_lagrangians(T4 ** d) for d in ds}
        assert counted == _fixes_of_powers(permutation(T4), ds), (p, x)

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
    def test_rho_at_every_x(self, p):
        for x in range(1, p):
            self.assert_rho_matches(p, x)

    @pytest.mark.parametrize("p, x", [(29, 2), (29, 12), (31, 5), (37, 6),
                                      (41, 10), (43, 6), (47, 46)])
    def test_rho_sample_to_47(self, p, x):
        self.assert_rho_matches(p, x)

    @pytest.mark.parametrize("p, x", [(11, 2), (11, 1), (13, 3), (17, 4)])
    def test_walk_elements_and_powers(self, p, x):
        exponents = (1, 2, 3, 4, 6, p, p + 1)
        for g in _walk(*rho_matrices(SpParams(p, x))):
            counted = {k: fixed_lagrangians(g ** k) for k in exponents}
            assert counted == _fixes_of_powers(permutation(g), exponents)

    @pytest.mark.parametrize("p", [11, 13])
    def test_identity_negation_and_transvections(self, p):
        n = grassmannian_size(p)
        ident = Matrix.identity(p)
        neg = Matrix([[-int(i == j) for j in range(4)] for i in range(4)], p)
        assert fixed_lagrangians(ident) == fixed_lagrangians(neg) == n
        for u in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 0, 3), (1, 1, 1, 1)):
            for a in (1, 2, p - 1):
                t = _transvection(u, a, p)
                assert Matrix(zip(*t.rows), t.m) * form_J(p) * t == form_J(p)
                assert fixed_lagrangians(t) == fixed_points(permutation(t)), (u, a)

    def test_rejects(self):
        with pytest.raises(DomainError, match="not symplectic"):
            fixed_lagrangians(Matrix([[int(i == j or (i, j) == (0, 1))
                                       for j in range(4)] for i in range(4)], 11))
        for m in (5, 9, 15):
            with pytest.raises(UnsupportedPrimeError):
                fixed_lagrangians(Matrix.identity(m))


def _zeros_by_brute_force(G, p):
    """The number of x in F_p^k with x^T G x = 0, by a scan of F_p^k."""
    k = len(G)
    return sum(sum(G[i][j] * x[i] * x[j] for i in range(k) for j in range(k)) % p == 0
               for x in itertools.product(range(p), repeat=k))


def _invertible(k, p, rng):
    """A random k x k matrix L U P mod p, L and U unitriangular and P a
    permutation, so invertible without a determinant."""
    L = [[rng.randrange(p) if j < i else int(i == j) for j in range(k)] for i in range(k)]
    U = [[rng.randrange(p) if j > i else int(i == j) for j in range(k)] for i in range(k)]
    perm = rng.sample(range(k), k)
    return [[sum(L[i][m] * U[m][perm[j]] for m in range(k)) % p for j in range(k)]
            for i in range(k)]


class TestQuadricZeros:
    """geometry_oracle._quadric_zeros against a count of the zeros over
    all of F_p^k, on symmetric forms of every rank."""

    @staticmethod
    def assert_counts(G, p):
        assert geometry_oracle._quadric_zeros(G, p) == _zeros_by_brute_force(G, p), (G, p)

    def test_every_form_over_f3(self):
        for k in range(1, 4):
            slots = [(i, j) for i in range(k) for j in range(i, k)]
            for values in itertools.product(range(3), repeat=len(slots)):
                G = [[0] * k for _ in range(k)]
                for (i, j), v in zip(slots, values):
                    G[i][j] = G[j][i] = v
                self.assert_counts(G, 3)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_random_forms_of_every_rank(self, p):
        rng = random.Random(p)
        for k in range(1, 5):
            for rank in range(k + 1):
                for _ in range(3):
                    A = _invertible(k, p, rng)
                    D = [rng.randrange(1, p) if i < rank else 0 for i in range(k)]
                    G = [[sum(A[m][i] * D[m] * A[m][j] for m in range(k)) % p
                          for j in range(k)] for i in range(k)]
                    self.assert_counts(G, p)

    @pytest.mark.parametrize("p", [3, 7, 11, 19])
    def test_hyperbolic_plane(self, p):
        # 2xy = 0 on 2p - 1 points, though (-1/p) = -1: the discriminant is -1
        G = [[0, 1], [1, 0]]
        assert geometry_oracle._quadric_zeros(G, p) == 2 * p - 1
        self.assert_counts(G, p)


def _uncertified(p):
    """The x mod p for which generates_sp4 finds no proof: those of
    multiplicative order 1, 2, 3, 4 or 6 (TestCertificate)."""
    return [x for x in range(1, p) if not generates_sp4(*rho_matrices(SpParams(p, x)))]


def _multiplicative_order(x, p):
    return next(k for k in range(1, p) if pow(x, k, p) == 1)


def _order_on_x(p, x):
    """The order of <rho(S), rho(T)> on X(F_p) when x has multiplicative
    order 1, 2, 3, 4 or 6, in the closed forms that the permutation chain
    gave: p(p^2 - 1)/2 for x = +-1, 3 p^4 (p^2 - 1)/2 for order 3 or 6, and
    6 for order 4, where rho(T) has order 4 too."""
    order = _multiplicative_order(x, p)
    return {1: p * (p * p - 1) // 2, 2: p * (p * p - 1) // 2, 4: 6}.get(
        order, 3 * p ** 4 * (p * p - 1) // 2)


class TestMatrixChain:
    """schreier_oracle.group_order, on F_p^4, against the permutation chain
    on X(F_p), which -I fixes pointwise, and against the closed forms; and
    surjectivity_verdict's structural routes against it."""

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
    def test_matches_permutation_chain_when_uncertified(self, p):
        # x = +-1 and ord(x) = 4 at every p, and (13, 3) for the parabolic
        # route: the permutation chain takes seconds on its larger groups
        xs = _uncertified(p)
        assert len(xs) == {11: 2, 13: 8, 17: 4, 19: 6, 23: 2}[p]
        for x in xs:
            if _multiplicative_order(x, p) in (3, 6) and (p, x) != (13, 3):
                continue
            S4, T4 = rho_matrices(SpParams(p, x))
            assert schreier_oracle.group_order([S4, T4]) == 2 * group_order(
                [permutation(S4), permutation(T4)]), (p, x)

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31])
    def test_closed_forms_when_uncertified(self, p):
        for x in _uncertified(p):
            S4, T4 = rho_matrices(SpParams(p, x))
            assert schreier_oracle.group_order([S4, T4]) == 2 * _order_on_x(p, x), (p, x)
            assert surjectivity_verdict(SpParams(p, x)).perm_group_order == _order_on_x(p, x)

    def test_small_groups(self):
        p = 13
        S4, T4 = rho_matrices(SpParams(p, 2))
        ident = Matrix.identity(p)
        neg = Matrix([[-int(i == j) for j in range(4)] for i in range(4)], p)
        assert schreier_oracle.group_order([]) == schreier_oracle.group_order([ident]) == 1
        assert schreier_oracle.group_order([neg]) == 2
        assert schreier_oracle.group_order([S4]) == schreier_oracle.group_order([S4, neg]) == 4
        assert schreier_oracle.group_order([T4]) == routes_oracle.matrix_order(T4, p * (p - 1))
        for u in ((1, 0, 0, 0), (1, 2, 0, 3)):
            assert schreier_oracle.group_order([_transvection(u, 1, p)]) == p
        # Sp2(p) x Sp2(p) on the J-orthogonal planes <e1, e4> and <e2, e3>
        rng = random.Random(p)
        gens = [g for _ in range(3) for g in _sp2_times_sp2_generators(p, rng)]
        assert schreier_oracle.group_order(gens) == (p * (p * p - 1)) ** 2

    @pytest.mark.parametrize("p", [11, 17, 113])
    def test_inverse_is_J_conjugate_transpose(self, p):
        J = form_J(p)
        J_inv = Matrix([[0, 0, 0, -1], [0, 0, pow(3, -1, p), 0],
                        [0, -pow(3, -1, p), 0, 0], [1, 0, 0, 0]], p)
        assert (J * J_inv).is_identity()
        for g in _walk(*rho_matrices(SpParams(p, 3))):
            assert inverse(g) == J_inv * Matrix(zip(*g.rows), g.m) * J
            assert (g * inverse(g)).is_identity() and (inverse(g) * g).is_identity()

    def test_inverse_needs_a_prime_above_3(self):
        for m in (2, 3, 9, 15):
            with pytest.raises(UnsupportedPrimeError, match=f"got {m}$"):
                inverse(Matrix.identity(m))

    def test_rejects(self):
        M = Matrix([[int(i == j or (i, j) == (0, 1)) for j in range(4)]
                    for i in range(4)], 11)
        with pytest.raises(DomainError, match="not symplectic"):
            schreier_oracle.group_order([M])
        for m in (3, 9, 15):
            with pytest.raises(UnsupportedPrimeError):
                schreier_oracle.group_order([Matrix([[-int(i == j) for j in range(4)]
                                              for i in range(4)], m)])



def _siegel(A, B, p):
    """The element [[A, A B], [0, D]] of Sp4(F_p), D = M^-1 A^-T M for the
    block M = ((0, 1), (-3, 0)) of J, with (D worked out)
    D = ((a, b/3), (3c, d))/det A: it fixes L = <e1, e2>, acts on it by A,
    and is the Levi element of A times the radical element [[I, B], [0, I]],
    which preserves J when B^T M is symmetric, B = ((-3t, r), (s, t))."""
    (a, b), (c, d) = A
    di = pow(a * d - b * c, -1, p)
    D = [[a * di, b * pow(3, -1, p) * di], [3 * c * di, d * di]]
    AB = [[sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    g = Matrix([A[0] + AB[0], A[1] + AB[1], [0, 0] + D[0], [0, 0] + D[1]], p)
    assert Matrix(zip(*g.rows), g.m) * form_J(p) * g == form_J(p)
    return g


class TestStructuralRoutes:
    """The three routes of surjectivity_verdict past the certificate, each
    on the groups it must decide and on one it must not."""

    @pytest.mark.parametrize("p", [11, 13, 113])
    def test_rho_at_1_is_sym3(self, p):
        # on the basis X^3, 3 X^2 Y, 3 X Y^2, Y^3: _sym3's basis rescaled
        scale = [1, 3, 3, 1]
        for M, g in zip(rho_matrices(SpParams(p, 1)), (((0, -1), (1, 0)), ((1, 1), (0, 1)))):
            sym3 = _sym3(g, p).rows
            assert M == Matrix([[sym3[i][j] * scale[j] * pow(scale[i], -1, p)
                                 for j in range(4)] for i in range(4)], p)

    @pytest.mark.parametrize("p", [11, 13, 127])
    def test_sym3_route(self, p):
        S1, T1 = rho_matrices(SpParams(p, 1))
        S2, T2 = rho_matrices(SpParams(p, 2))
        for x in (1, p - 1):
            assert routes_oracle.sym3_order(
                *rho_matrices(SpParams(p, x))) == p * (p * p - 1) // 2
        for pair in ((S2, T2), (S1, T2), (S2, T1)):
            assert routes_oracle.sym3_order(*pair) is None

    def test_sym3_route_above_the_cli_ceiling(self):
        # the library's verdict reads no ceiling: p = 127 > MAX_P
        v = surjectivity_verdict(SpParams(127, 1))
        assert v.perm_group_order == 127 * (127 ** 2 - 1) // 2
        assert not v.surjective_psp4

    @pytest.mark.parametrize("p, x", [(13, 5), (13, 8), (29, 12), (113, 15)])
    def test_closure_route(self, p, x):
        assert _multiplicative_order(x, p) == 4
        assert routes_oracle.closure_order(*rho_matrices(SpParams(p, x))) == 6

    @pytest.mark.parametrize("p, x", [(13, 2), (13, 1), (13, 3)])
    def test_closure_gives_up_above_24(self, p, x):
        assert routes_oracle.closure_order(*rho_matrices(SpParams(p, x))) is None

    @pytest.mark.parametrize("p, x", [(13, 3), (13, 4), (19, 7), (19, 8), (109, 45)])
    def test_parabolic_route(self, p, x):
        assert _multiplicative_order(x, p) in (3, 6)
        order = routes_oracle.parabolic_order(*rho_matrices(SpParams(p, x)),
                                              pow(x, 4, p))
        assert order == 3 * p ** 4 * (p * p - 1) // 2

    def test_parabolic_route_refuses_a_borel_group(self):
        # Sbar = diag(2, 7) fixes e1, the eigenline of Tbar: Gbar lies in a
        # Borel subgroup, though L is one line, the determinants are right
        # and the walk meets a radical witness
        p, zero = 13, [[0, 0], [0, 0]]
        S = _siegel([[2, 0], [0, 7]], [[-3, 1], [1, 1]], p)
        T = _siegel([[4, 4], [0, 4]], zero, p)
        assert routes_oracle.parabolic_order(S, T, 3) is None

    def test_parabolic_route_needs_a_radical_witness(self):
        # Levi elements only: Gbar is SL2(13).3 and G n U = 1
        p, zero = 13, [[0, 0], [0, 0]]
        S = _siegel([[0, -1], [1, 0]], zero, p)
        T = _siegel([[4, 4], [0, 4]], zero, p)
        assert routes_oracle.parabolic_order(S, T, 3) is None

    def test_parabolic_route_refuses_other_groups(self):
        for p, x in ((13, 2), (13, 1), (13, 5)):
            S4, T4 = rho_matrices(SpParams(p, x))
            assert routes_oracle.parabolic_order(S4, T4, pow(x, 4, p)) is None

    def test_every_pair_to_113_takes_its_route(self):
        # every pair with p <= 113: the row of x^2 mod p against its route
        # here, the fourth row against the certificate, and orderT against
        # matrix_order
        rows = {}
        for p in (p for p in range(11, 114) if is_prime(p)):
            psp4 = sp4_order(p) // 2
            for x in range(1, p):
                S4, T4 = rho_matrices(SpParams(p, x))
                v = surjectivity_verdict(SpParams(p, x))
                ord_x = _multiplicative_order(x, p)
                if ord_x in (1, 2):
                    row, order = "sym3", routes_oracle.sym3_order(S4, T4)
                elif ord_x == 4:
                    row, order = "closure", routes_oracle.closure_order(S4, T4)
                elif ord_x in (3, 6):
                    row, order = "parabolic", routes_oracle.parabolic_order(
                        S4, T4, pow(x, 4, p))
                else:
                    row, order = "certificate", psp4 if generates_sp4(S4, T4) else None
                assert v == (routes_oracle.matrix_order(T4, p * (p - 1)), order,
                             order == psp4), (p, x)
                rows[row] = rows.get(row, 0) + 1
        assert rows == {"certificate": 1424, "sym3": 52, "closure": 26, "parabolic": 48}

    def test_explicit_y_other_than_1_over_x_is_refused(self):
        # generates_sp4 certifies (11, 2, 3) and not (11, 2, 5): both are
        # refused before any matrix is built; y = 6 = 1/2 mod 11 is the default
        assert generates_sp4(*rho_matrices(SpParams(11, 2, 3)))
        for y in (3, 5):
            with pytest.raises(DomainError) as refused:
                surjectivity_verdict(SpParams(11, 2, y))
            assert str(refused.value) == ("surjectivity is decided only for y = 1/x "
                                          f"mod p, got SpParams(p=11, x=2, y={y})")
        assert surjectivity_verdict(SpParams(11, 2, 6)) == surjectivity_verdict(
            SpParams(11, 2))


def _integral_away_from_3(a) -> bool:
    """Whether a in Q(zeta_12) lies in Z[zeta_12, 1/3]: every coordinate
    has a power of 3 for its denominator."""
    return all(3 ** c.denominator.bit_length() % c.denominator == 0 for c in a.c)


def _unit_away_from_3(a) -> bool:
    """Whether a is a unit of Z[zeta_12, 1/3], which no map to a field of
    characteristic p > 3 sends to 0."""
    return a != 0 and _integral_away_from_3(a) and _integral_away_from_3(a.inverse())


def _small_primes_only(n: int) -> bool:
    """Whether n >= 1 has no prime factor above 7."""
    for q in (2, 3, 5, 7):
        while n % q == 0:
            n //= q
    return n == 1


def _unit_pair(entries, g):
    """Whether two of the entries, e1 = g a and e2 = g b, have
    a q1 + b q2 = N in Z[x] for an N with no prime factor above 7; g is
    monic in Z[x] and divides both."""
    for e1, e2 in itertools.combinations(entries, 2):
        a, b = (divmod_poly(map_coeffs(e, Fraction), g)[0] for e in (e1, e2))
        h, s, t = ext_gcd(a, b)
        if h != UniPoly([1]):
            continue
        n = lcm(*(c.denominator for c in s.coeffs + t.coeffs))
        a, b = (map_coeffs(u, int) for u in (a, b))
        q1, q2 = (map_coeffs(u, lambda c: int(c * n)) for u in (s, t))
        assert a * q1 + b * q2 == UniPoly([n])          # an identity in Z[x]
        if _small_primes_only(n):
            return True
    return False


class TestTableProofs:
    """The steps of README's proofs of the rows x^4 + x^2 + 1 = 0 and "any
    other x", checked once with no prime p.  The first lives over Q(w),
    w = zeta_12^4 of order 3: the entries lie in Z[w, 1/3], which maps onto
    F_p with w -> x for every prime p = 1 (mod 3), and each entry that must
    not vanish is a unit there.  (x of order 6 has the group of -x.)  The
    second lives over Z[x]: each matrix that must not vanish has two
    entries that cannot vanish together mod p >= 11 at an x of the row."""

    def test_any_other_row_over_z_x(self):
        # A = x rho(S) and B = x rho(T) lie in M4(Z[x]): rho(g) = Sym^3(g) D
        # with x D = diag(x^2, 1, x^2, 1).  B has eigenvalues x^2 and 1, and
        # X = B - x^2, Y = B - 1.  The witnesses of README's steps 1, 3 and 4:
        one, xx = UniPoly([1]), UniPoly([0, 0, 1])
        A, B = (RingMatrix([[v * (one if j % 2 else xx) for j, v in enumerate(row)]
                            for row in g]) for g in SYM3)

        def minus(M, c):
            return RingMatrix([[e - c if i == j else e for j, e in enumerate(row)]
                               for i, row in enumerate(M.rows)])
        X, Y = minus(B, xx), minus(B, one)
        witnesses = {
            "X Y^2": X * Y * Y, "X^2 Y": X * X * Y,                 # u != I on each E
            "X A X Y^2": X * A * X * Y * Y, "Y A X^2 Y": Y * A * X * X * Y,
            "X^2 A Y^2": X * X * A * Y * Y, "Y^2 A X^2": Y * Y * A * X * X,
            "XY A XY": X * Y * A * X * Y,                           # no fixed subspace
            "Y^2 A Y^2": Y * Y * A * Y * Y}                         # E_x not swapped
        # x^k (x^2 + 1)^a (x^4 + x^2 + 1)^b, none of whose factors vanishes
        # mod p at an x of the row
        row = (UniPoly([0, 1]) * UniPoly([1, 0, 1]) * UniPoly([1, 0, 1, 0, 1])) ** 8
        for name, W in witnesses.items():
            entries = [e for r in W.rows for e in r if e]
            assert len(entries) >= 2, name
            # the gcd in Z[x]: its content divides 3, and its primitive part
            # is the monic gcd g over Q, which divides the row's product, so
            # lies in Z[x]
            assert 3 % gcd(*(c for e in entries for c in e.coeffs)) == 0, name
            g = UniPoly()
            for e in entries:
                g = ext_gcd(g, map_coeffs(e, Fraction))[0]
            assert not divmod_poly(map_coeffs(row, Fraction), g)[1], name
            assert all(c.denominator == 1 for c in g.coeffs), name
            assert _unit_pair(entries, g), name

    def test_siegel_parabolic_row_over_q_w(self):
        w = Cyc12.zeta_pow(4)
        one, zero = Cyc12(1), Cyc12(0)
        d = (w, w * w, w, w * w)                    # diag(x, 1/x, x, 1/x)
        S4, T4 = (RingMatrix([[v * d[j] for j, v in enumerate(row)] for row in g])
                  for g in SYM3)

        def apply(g, v):
            return tuple(sum((a * b for a, b in zip(row, v)), zero) for row in g.rows)

        # L = <u1, u2> is Lagrangian, and g u = a u1 + b u2 with (a, b) the
        # coordinates 1 and 3 of g u, for g = rho(S), rho(T)
        u1, u2 = (1 - w, one, zero, zero), (zero, zero, (1 - w) / 3, one)
        assert sum((u1[i] * J_ROWS[i][j] * u2[j] for i in range(4) for j in range(4)),
                   zero) == 0

        def on_L(g):
            images = [apply(g, u) for u in (u1, u2)]
            for im in images:
                assert im == tuple(im[1] * a + im[3] * b for a, b in zip(u1, u2))
            return [[im[1] for im in images], [im[3] for im in images]]

        # det Sbar = 1; Tbar = w^2 (I + N) with N = ((0, n), (0, 0)), n a
        # unit, so det Tbar = w; Sbar moves ker N = <u1>
        (s00, s01), (s10, s11) = on_L(S4)
        (t00, t01), (t10, t11) = on_L(T4)
        assert s00 * s11 - s01 * s10 == 1
        assert (t00, t10, t11) == (w * w, 0, w * w)
        assert _unit_away_from_3(t01) and _unit_away_from_3(s10)
        # s: w on <e0, v>, w^2 on L; it commutes with rho(T), s^3 = I, and
        # rho(T) = s u with (u - I)^2 = 0 over Z[w, 1/3]: rho(T)^p = s mod p
        v = (zero, (4 + 2 * w) / 3, one, zero)
        B = RingMatrix(list(zip((one, zero, zero, zero), v, u1, u2)))
        diag = RingMatrix([[(w if i < 2 else w * w) if i == j else zero
                            for j in range(4)] for i in range(4)])
        s = B * diag * B.inverse()
        assert s * T4 == T4 * s and (s ** 3).is_identity()
        n4 = [[e - int(i == j) for j, e in enumerate(row)]
              for i, row in enumerate((s.inverse() * T4).rows)]
        assert all(e == 0 for row in (RingMatrix(n4) * RingMatrix(n4)).rows for e in row)
        assert all(_integral_away_from_3(e) for row in n4 for e in row)
        assert on_L(s) == [[w * w, zero], [zero, w * w]]
        # the radical element h = s rho(S) s^-1 rho(S)^-1: trivial on L, and
        # an entry of h - I is a unit, so h != I at every p
        h = s * S4 * s.inverse() * S4.inverse()
        assert on_L(h) == [[one, zero], [zero, one]]
        assert _unit_away_from_3(h.rows[1][0])


class TestMemoryGuard:
    def test_sizes_in_use_admitted(self):
        for p in (11, 13, 17, 19, 23, 29, 31, 47, 97, 113):
            require_memory(grassmannian_size(p))

    def test_limits(self):
        assert grassmannian_size(101) == 1040604
        for p in (127, 157):
            with pytest.raises(DomainError):
                require_memory(grassmannian_size(p))

    def test_permutation_refuses_before_allocating(self, monkeypatch):
        S4, _ = rho_matrices(SpParams(157, 2))

        def no_points(M):
            raise AssertionError("points built before the size check")
        monkeypatch.setattr(permutation_oracle, "wedge", no_points)
        with pytest.raises(DomainError, match="GiB limit"):
            permutation(S4)

    def test_group_order_refuses_before_allocating(self):
        with pytest.raises(DomainError):
            group_order([range(grassmannian_size(127))])


class TestSurjectivity:
    def test_p11(self):
        params = SpParams(11, 2)
        v = surjectivity_verdict(params)
        assert v.order_T == 110
        assert v.perm_group_order == 12860654400
        assert v.perm_group_order == sp4_order(11) // 2
        assert v.surjective_psp4

    @pytest.mark.parametrize("p, x", [
        (11, 2), (13, 2), (17, 3), (19, 2), (23, 5), (29, 2), (31, 3)])
    def test_certified_for_every_prime_to_31(self, p, x):
        assert x in _primitive_roots(p)
        v = surjectivity_verdict(SpParams(p, x))
        assert v.perm_group_order == sp4_order(p) // 2
        assert v.surjective_psp4
        assert v.order_T == p * (p - 1)

    def test_fourth_row_near_10_to_9(self):
        # a closed form: ord(5) = p - 1 comes from factoring p - 1, and no
        # matrix is built
        p = 10 ** 9 + 7
        v = surjectivity_verdict(SpParams(p, 5))
        assert v == (p * (p - 1), sp4_order(p) // 2, True)

    def test_kernel_word(self):
        w = parse_word("S T^20 S^-1 T^33 S^-1 T^20 S^-1 T^33")
        assert kernel_test(w, SpParams(11, 2))
        assert not kernel_test(w, SpParams(11, 8))

    def test_lift_witness(self):
        assert lift_witness_mod_p2(SpParams(11, 2))
        assert lift_witness_mod_p2(SpParams(13, 2))


class TestRhoOracle:
    """rho against products of its integer lifts over Q and over Z, with
    the tests' any-ring matrices and their Gauss-Jordan inverse."""

    @pytest.mark.parametrize("p", [11, 13])
    def test_words_match_rational_products(self, p):
        rng = random.Random(p)
        words = [Word([(rng.choice("ST"), rng.randint(-40, 40))
                       for _ in range(rng.randint(1, 4))]) for _ in range(200)]
        # conjugates of (S T)^3 S^-2, which SL2(Z) sends to the identity
        relation = parse_word("S T S T S T S^-2")
        words += [g * relation * g.inverse() for g in words[:10]]
        for x in _primitive_roots(p):
            params = SpParams(p, x)
            S, T = (RingMatrix([[Fraction(v) for v in row] for row in M.rows])
                    for M in rho_matrices(params))
            for w in words:
                expected = Matrix([[v.numerator * pow(v.denominator, -1, p) for v in row]
                                   for row in eval_word(w, S, T).rows], p)
                assert rho_word(w, params) == expected, (x, w)
                assert kernel_test(w, params) == expected.is_identity(), (x, w)

    @pytest.mark.parametrize("p", [11, 13])
    def test_lift_witness_matches_integer_power(self, p):
        m2, roots, seen = p * p, _primitive_roots(p), set()
        for x, y in [(x, y) for x in range(1, p) for y in (None, 3)]:
            yy = pow(x, -1, m2) if y is None else y
            xi, yi = pow(x, -1, m2), pow(yy, -1, m2)
            T = RingMatrix([[x, 3 * yy, 3 * yi, xi], [0, yy, 2 * yi, xi],
                            [0, 0, yi, xi], [0, 0, 0, xi]])
            N = T ** (p * (p - 1))              # exact over Z
            mod_p, mod_p2 = (Matrix(N.rows, m).is_identity() for m in (p, m2))
            assert mod_p
            params = SpParams(p, x, y)
            assert geometry_oracle.lift_witness_mod_p2(params) == (not mod_p2)
            if y is None or x * y % p == 1:
                assert lift_witness_mod_p2(params) == (not mod_p2)
            else:
                # the closed form is proved for y = 1/x mod p alone
                with pytest.raises(DomainError, match="only for y = 1/x mod p"):
                    lift_witness_mod_p2(params)
            if y is None and x in roots:
                assert not mod_p2, x        # a witness at every primitive root
            seen.add(mod_p2)
        assert seen == {True, False}
