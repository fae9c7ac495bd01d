import itertools
import random
import time
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from phicong.errors import (DomainError, InternalConsistencyError,
                            UnsupportedPrimeError)
from phicong.matrices import Matrix
from phicong.rationals import grassmannian_size
import phicong.symplectic
from phicong import schreier
from phicong.symplectic import (MAX_P, SpParams, fixed_lagrangians, form_J,
                                generates_sp4, inverse, kernel_test,
                                lift_witness_mod_p2, matrix_order,
                                outside_sp2_p2, rho_matrices,
                                rho_word, sp4_order, surjectivity_verdict)
from phicong.words import Word, parse_word

import numpy_oracle
import permutation_oracle
from closed_forms import (Lagrangian, assert_matches_closed_forms, in_span,
                          invariant_forms, lagrangian_from_index, rref_mod_p)
from cycle_oracle import cycle_type, fixed_points
from permutation_oracle import group_order, permutation, require_memory
from ring_matrix import Matrix as RingMatrix, eval_word


def order_by_iteration(M):
    """The oracle for matrix_order: the least k >= 1 with M^k = I."""
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

    def test_st_order_six(self):
        S4, T4 = rho_matrices(SpParams(11, 2))
        R = S4 * T4
        acc = R
        for _ in range(5):
            assert not acc.is_identity()
            acc = acc * R
        assert acc.is_identity()

    def test_matrix_order_T(self):
        for p, x in ((11, 2), (13, 2)):
            _, T4 = rho_matrices(SpParams(p, x))
            assert matrix_order(T4, p * (p - 1)) == p * (p - 1)
            with pytest.raises(InternalConsistencyError):
                matrix_order(T4, p * p)         # not a multiple of the order

    @pytest.mark.parametrize("exponent", [0, -110])
    def test_matrix_order_rejects_exponent_below_1(self, exponent):
        _, T4 = rho_matrices(SpParams(11, 2))
        with pytest.raises(DomainError, match="exponent"):
            matrix_order(T4, exponent)

    def test_matrix_order_matches_iteration(self):
        for p in (11, 13, 17):
            for x in range(1, p):
                for y in (None, 3):
                    _, T4 = rho_matrices(SpParams(p, x, y))
                    assert matrix_order(T4, p * (p - 1)) == order_by_iteration(T4)

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
        # are the oracle's Plucker coordinates, and each is isotropic for
        # J: p03 = 3 p12
        for p in (11, 13):
            ident = [[int(r == s) for s in range(6)] for r in range(6)]
            points = []
            for alpha, beta, count in permutation_oracle._image_rows(ident, p):
                points += [[(u + t * v) % p for u, v in zip(alpha, beta)]
                           for t in range(count)]
            assert points == numpy_oracle._plucker(p).T.tolist()
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
        x, y = 2, params.resolved_y(11)
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
        monkeypatch.setattr(permutation_oracle, "_wedge", broken)
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
    def test_action_matches_numpy_oracle(self, p):
        S4, T4 = rho_matrices(SpParams(p, 2))
        for M in (S4, T4, S4 * T4):
            assert permutation(M) == numpy_oracle.permutation(M).tolist()

    def test_cycle_type_matches_pointer_doubling(self):
        for p in (11, 13, 23, 29, 47):
            S4, T4 = rho_matrices(SpParams(p, 2))
            perm_s, perm_t = permutation(S4), permutation(T4)
            for perm in (perm_s, perm_t, compose(perm_s, perm_t)):
                assert cycle_type(perm) == numpy_oracle.cycle_type(np.array(perm))
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 7, 1000, 10 ** 5):
            perm = rng.permutation(n)
            assert cycle_type(perm.tolist()) == numpy_oracle.cycle_type(perm)
            assert fixed_points(perm.tolist()) == np.count_nonzero(perm == np.arange(n))

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
        ps, pt = _rho_perms(11, 2)
        assert group_order([ps, pt]) == group_order([pt, ps])

    def test_schreier_vectors_are_arrays_of_labels(self):
        # O(n) per level: no level keeps a permutation per orbit point
        n = grassmannian_size(11)
        chain = permutation_oracle._stabilizer_chain(
            [np.array(g) for g in _rho_perms(11, 2)])
        for level in chain:
            assert level.labels.shape == (n,)
            assert len(level.gens) == len(level.invs)
            orbit = np.flatnonzero(level.labels != -1)
            assert level.size == len(orbit)
            for x in orbit[::97]:
                assert level.coset_rep(int(x), np.arange(n))[level.base] == x


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
    symplectic = phicong.symplectic
    return list(symplectic._random_elements([A, B], random.Random(symplectic._SEED),
                                            symplectic._TRIES))


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
            exact = group_order([permutation(S4), permutation(T4)])
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
                assert M.transpose() * gram * M == gram
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
                assert M.transpose() * J * M == J
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
            assert D.transpose() * J * D == J
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
            assert M.transpose() * gram * M == gram
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
            assert M.transpose() * gram * M == gram
        monkeypatch.setattr(phicong.symplectic, "_random_elements",
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
                assert t.transpose() * form_J(p) * t == form_J(p)
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
    """symplectic._quadric_zeros against a count of the zeros over all of
    F_p^k, on symmetric forms of every rank."""

    @staticmethod
    def assert_counts(G, p):
        assert phicong.symplectic._quadric_zeros(G, p) == _zeros_by_brute_force(G, p), (G, p)

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
        assert phicong.symplectic._quadric_zeros(G, p) == 2 * p - 1
        self.assert_counts(G, p)


def _uncertified(p):
    """The x mod p for which generates_sp4 finds no proof: those of
    multiplicative order 1, 2, 3, 4 or 6 (TestCertificate)."""
    return [x for x in range(1, p) if not generates_sp4(*rho_matrices(SpParams(p, x)))]


def _order_on_x(p, x):
    """The order of <rho(S), rho(T)> on X(F_p) when x has multiplicative
    order 1, 2, 3, 4 or 6, in the closed forms that the permutation chain
    gave: p(p^2 - 1)/2 for x = +-1, 3 p^4 (p^2 - 1)/2 for order 3 or 6, and
    6 for order 4, where rho(T) has order 4 too."""
    order = next(k for k in range(1, p) if pow(x, k, p) == 1)
    return {1: p * (p * p - 1) // 2, 2: p * (p * p - 1) // 2, 4: 6}.get(
        order, 3 * p ** 4 * (p * p - 1) // 2)


class TestMatrixChain:
    """schreier.group_order, on F_p^4, against the permutation chain on
    X(F_p), which -I fixes pointwise, and against the closed forms."""

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
    def test_matches_permutation_chain_when_uncertified(self, p):
        xs = _uncertified(p)
        assert len(xs) == {11: 2, 13: 8, 17: 4, 19: 6, 23: 2}[p]
        for x in xs:
            S4, T4 = rho_matrices(SpParams(p, x))
            assert schreier.group_order([S4, T4]) == 2 * group_order(
                [permutation(S4), permutation(T4)]), (p, x)

    def test_matches_permutation_chain_on_sp4_at_p11(self):
        S4, T4 = rho_matrices(SpParams(11, 2))
        order = schreier.group_order([S4, T4])
        assert order == sp4_order(11)
        assert order == 2 * group_order([permutation(S4), permutation(T4)])

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31])
    def test_closed_forms_when_uncertified(self, p):
        for x in _uncertified(p):
            S4, T4 = rho_matrices(SpParams(p, x))
            assert schreier.group_order([S4, T4]) == 2 * _order_on_x(p, x), (p, x)
            assert surjectivity_verdict(SpParams(p, x)).perm_group_order == _order_on_x(p, x)

    def test_small_groups(self):
        p = 13
        S4, T4 = rho_matrices(SpParams(p, 2))
        ident = Matrix.identity(p)
        neg = Matrix([[-int(i == j) for j in range(4)] for i in range(4)], p)
        assert schreier.group_order([]) == schreier.group_order([ident]) == 1
        assert schreier.group_order([neg]) == 2
        assert schreier.group_order([S4]) == schreier.group_order([S4, neg]) == 4
        assert schreier.group_order([T4]) == matrix_order(T4, p * (p - 1))
        for u in ((1, 0, 0, 0), (1, 2, 0, 3)):
            assert schreier.group_order([_transvection(u, 1, p)]) == p
        # Sp2(p) x Sp2(p) on the J-orthogonal planes <e1, e4> and <e2, e3>
        rng = random.Random(p)
        gens = [g for _ in range(3) for g in _sp2_times_sp2_generators(p, rng)]
        assert schreier.group_order(gens) == (p * (p * p - 1)) ** 2

    @pytest.mark.parametrize("p", [11, 17, 113])
    def test_inverse_is_J_conjugate_transpose(self, p):
        J = form_J(p)
        J_inv = Matrix([[0, 0, 0, -1], [0, 0, pow(3, -1, p), 0],
                        [0, -pow(3, -1, p), 0, 0], [1, 0, 0, 0]], p)
        assert (J * J_inv).is_identity()
        for g in _walk(*rho_matrices(SpParams(p, 3))):
            assert inverse(g) == J_inv * g.transpose() * J
            assert (g * inverse(g)).is_identity() and (inverse(g) * g).is_identity()

    def test_inverse_needs_a_prime_above_3(self):
        for m in (2, 3, 9, 15):
            with pytest.raises(UnsupportedPrimeError, match=f"got {m}$"):
                inverse(Matrix.identity(m))

    def test_rejects(self):
        M = Matrix([[int(i == j or (i, j) == (0, 1)) for j in range(4)]
                    for i in range(4)], 11)
        with pytest.raises(DomainError, match="not symplectic"):
            schreier.group_order([M])
        for m in (3, 9, 15):
            with pytest.raises(UnsupportedPrimeError):
                schreier.group_order([Matrix([[-int(i == j) for j in range(4)]
                                              for i in range(4)], m)])

    def test_odd_order_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(schreier, "group_order", lambda gens: 1321)
        with pytest.raises(InternalConsistencyError, match="odd order"):
            surjectivity_verdict(SpParams(11, 1))

    def test_uncertified_verdict_refused_above_memory_limit(self):
        with pytest.raises(DomainError, match=f"p <= {MAX_P}, got 127"):
            surjectivity_verdict(SpParams(127, 1))


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
        monkeypatch.setattr(permutation_oracle, "_wedge", no_points)
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
            assert lift_witness_mod_p2(SpParams(p, x, y)) == (mod_p and not mod_p2)
            assert mod_p
            if y is None and x in roots:
                assert not mod_p2, x        # a witness at every primitive root
            seen.add(mod_p2)
        assert seen == {True, False}
