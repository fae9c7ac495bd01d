import random
from math import lcm

import pytest

from phicong.cyclotomic import Cyc12
from phicong.errors import DomainError, UnsupportedPrimeError
from phicong.words import (PhiImage, SubgroupSpec, Word, format_word,
                           index_of, parse_word, phi, subgroup_member)

from cyc12_oracle import (PHI_S, PHI_T, image_matrix, member_by_matrices,
                          phi_by_matrices, phi_matrix)
from ring_matrix import Matrix, eval_word, relations_check


def rand_word(rng, maxlen=6, maxexp=5):
    return Word([(rng.choice("ST"), rng.randint(-maxexp, maxexp))
                 for _ in range(rng.randint(0, maxlen))])


class TestWord:
    def test_normalization(self):
        w = Word([("T", 2), ("T", 3), ("S", 1), ("S", -1), ("T", 1)])
        assert w.syllables == (("T", 6),)

    def test_empty_is_identity(self):
        assert Word().syllables == ()
        assert (Word() * Word([("S", 1)])).syllables == (("S", 1),)

    def test_inverse(self):
        rng = random.Random(0)
        for _ in range(50):
            w = rand_word(rng)
            assert (w * w.inverse()).syllables == ()

    def test_parse_and_format(self):
        w = parse_word("S T^20 S^-1 T^33 S^-1 T^20 S^-1 T^33")
        assert len(w.syllables) == 8
        assert parse_word(format_word(w)) == w
        assert parse_word("S-1") == Word([("S", -1)])

    def test_parse_rejects_malformed(self):
        # int() alone would take a sign, an underscore or a non-ASCII
        # digit, and more than 4300 digits once a caller lifts the limit
        for bad in ("Q", "T^", "S^x", "T2x", "T^+3", "T^1_0", "T^\u0663",
                    "T^" + "1" * 5000):
            with pytest.raises(DomainError):
                parse_word(bad)

    def test_zero_exponent_dropped(self):
        assert parse_word("T^0 S").syllables == (("S", 1),)

    def test_rejects_bad_syllables(self):
        with pytest.raises(DomainError, match=r"^unknown generator 'X'$"):
            Word([("X", 1)])
        with pytest.raises(DomainError, match=r"^exponent must be an int, got 1\.5$"):
            Word([("S", 1.5)])


class TestEval:
    def test_empty_word_identity(self):
        m = eval_word(Word(), PHI_S, PHI_T)
        assert m.is_identity()

    def test_phi_T_diagonal(self):
        m = eval_word(Word([("T", 1)]), PHI_S, PHI_T)
        z = Cyc12.zeta()
        assert m.rows[0][0] == z and m.rows[1][1] == z ** -1
        assert m.rows[0][1] == 0 and m.rows[1][0] == 0

    def test_T2ST_unipotent(self):
        # phi(T^2 S T) = (1, zeta; 0, 1)
        m = eval_word(parse_word("T^2 S T"), PHI_S, PHI_T)
        assert m.rows[0][0] == 1 and m.rows[1][1] == 1
        assert m.rows[0][1] == Cyc12.zeta()

    def test_relations_phi(self):
        assert relations_check(PHI_S, PHI_T)

    def test_relations_trivial(self):
        i2 = Matrix.identity(2, Cyc12(1), Cyc12(0))
        assert relations_check(i2, i2)


class TestPhi:
    def test_examples(self):
        assert phi(parse_word("T^3 S")) == PhiImage(0, (0, 1))
        assert phi(parse_word("T^4 S^-1 T^-2 S^-1 T S^-1")) == PhiImage(0, (-2, 2))
        assert phi(Word()) == PhiImage(0, (0, 0))

    def test_homomorphism_random(self):
        # phi is a fold of compose, so the first assertion checks only
        # associativity; the matrix oracle checks the values
        rng = random.Random(42)
        for _ in range(400):
            w1, w2 = rand_word(rng), rand_word(rng)
            assert phi(w1 * w2) == phi(w1).compose(phi(w2))
            for w in (w1, w2, w1 * w2):
                assert phi(w) == phi_by_matrices(w)

    def test_matrix_reconstruction(self):
        rng = random.Random(9)
        for _ in range(50):
            w = rand_word(rng)
            assert image_matrix(phi(w)) == eval_word(w, PHI_S, PHI_T)

    def test_long_word_matches_matrix_oracle(self):
        rng = random.Random(11)
        w = rand_word(rng, 60, 7)
        assert phi(w) == phi_by_matrices(w)


class TestMembership:
    def test_T6(self):
        w = parse_word("T^6")
        assert subgroup_member(w, SubgroupSpec("GammaPrime"))
        assert subgroup_member(w, SubgroupSpec("GammaDoublePrime"))

    def test_gp_example(self):
        w = parse_word("T^4 S^-1 T^-2 S^-1 T S^-1")
        assert not subgroup_member(w, SubgroupSpec("Gp", 17))

    def test_empty_everywhere(self):
        for spec in (SubgroupSpec("GammaPrime"), SubgroupSpec("GammaDoublePrime"),
                     SubgroupSpec("GammaPrimeN", 4), SubgroupSpec("Gp", 17),
                     SubgroupSpec("PhiCong", 6)):
            assert subgroup_member(Word(), spec)

    def test_commutator_powers(self):
        S, T = Word([("S", 1)]), Word([("T", 1)])
        R = S * T
        A = S * R * S.inverse() * R.inverse()
        assert subgroup_member(A ** 3, SubgroupSpec("GammaPrimeN", 3))
        assert subgroup_member(A, SubgroupSpec("GammaPrime"))

    @pytest.mark.parametrize("kind", ["GammaPrime", "GammaDoublePrime"])
    def test_no_parameter_refused(self, kind):
        with pytest.raises(DomainError, match=rf"^{kind} takes no parameter$"):
            SubgroupSpec(kind, 3)

    def test_gp_prime_constraint(self):
        for bad in (7, 65, 77, 1, -7):          # not 5 mod 12, or not prime
            with pytest.raises(UnsupportedPrimeError):
                SubgroupSpec("Gp", bad)

    def test_all_specs_match_matrix_oracle(self):
        rng = random.Random(31)
        specs = ([SubgroupSpec("GammaPrime"), SubgroupSpec("GammaDoublePrime")]
                 + [SubgroupSpec("GammaPrimeN", n) for n in (1, 2, 3, 6)]
                 + [SubgroupSpec("PhiCong", n) for n in (1, 2, 3, 4, 6, 12)]
                 + [SubgroupSpec("Gp", p) for p in (5, 17, 29, 41)])
        for _ in range(150):
            w = rand_word(rng)
            m = phi_matrix(w)
            for spec in specs:
                assert subgroup_member(w, spec) == member_by_matrices(m, spec), \
                    (w, spec)

    def test_gp_matches_fp2_reduction(self):
        # the rule 3 | u_exp and p | v[0] against reduction of the matrix
        # entries into F_p^2, on random words and on [a,b]^p, whose v is
        # p times that of [a,b]
        rng = random.Random(37)
        nonzero_v = 0
        for p in (5, 17, 29, 41):
            spec = SubgroupSpec("Gp", p)
            for _ in range(40):
                w = rand_word(rng, 8, 7)
                assert subgroup_member(w, spec) == member_by_matrices(phi_matrix(w), spec)
            for _ in range(10):
                a, b = rand_word(rng, 3, 4), rand_word(rng, 3, 4)
                c = a * b * a.inverse() * b.inverse()
                w = c ** p
                nonzero_v += phi(w).v != (0, 0)
                assert subgroup_member(w, spec)
                assert member_by_matrices(phi_matrix(c) ** p, spec)
                w = w * Word([("T", 1)])
                assert subgroup_member(w, spec) == member_by_matrices(
                    phi_matrix(c) ** p * PHI_T, spec)
        assert nonzero_v > 0

    def test_index(self):
        assert index_of(SubgroupSpec("GammaPrimeN", 2)) == 24
        assert index_of(SubgroupSpec("GammaPrimeN", 1)) == 6
        assert index_of(SubgroupSpec("Gp", 5)) == 15
        with pytest.raises(DomainError):
            index_of(SubgroupSpec("GammaPrime"))

    def test_lattice_law(self):
        rng = random.Random(17)
        for _ in range(150):
            w = rand_word(rng)
            n1, n2 = rng.randint(1, 12), rng.randint(1, 12)
            both = (subgroup_member(w, SubgroupSpec("PhiCong", n1))
                    and subgroup_member(w, SubgroupSpec("PhiCong", n2)))
            assert both == subgroup_member(
                w, SubgroupSpec("PhiCong", lcm(n1, n2)))

    def test_nesting(self):
        rng = random.Random(23)
        for _ in range(150):
            w = rand_word(rng)
            n1 = rng.randint(1, 6)
            n2 = n1 * rng.randint(1, 4)
            if subgroup_member(w, SubgroupSpec("PhiCong", n2)):
                assert subgroup_member(w, SubgroupSpec("PhiCong", n1))

    def test_normality(self):
        rng = random.Random(29)
        hits = 0
        for _ in range(300):
            w, g = rand_word(rng, 4, 3), rand_word(rng, 4, 3)
            for n in (2, 3, 6):
                if subgroup_member(w, SubgroupSpec("PhiCong", n)):
                    hits += 1
                    assert subgroup_member(g * w * g.inverse(),
                                           SubgroupSpec("PhiCong", n))
        assert hits > 0
