import ast
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import phicong
import phicong.invariants
import phicong.qexp
import phicong.rationals
from phicong.cli import MAX_TERMS, _json, main
from phicong.divpoly import MAX_LEVEL
from phicong.rationals import is_prime
from phicong.symplectic import MAX_P

import n12_oracle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestQexp:
    def test_json(self, capsys):
        code, out = run(capsys, "qexp", "--level", "2", "--terms", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 2
        terms = doc["terms"]
        assert [t["exp"] for t in terms] == [-2, 4, 10, 16, 22, 28]
        assert [t["coeff"] for t in terms] == ["4", "20", "-28", "12",
                                               "60", "-128"]

    def test_rational_coefficients(self, capsys):
        code, out = run(capsys, "qexp", "--level", "3", "--terms", "2")
        doc = json.loads(out)
        assert doc["terms"][1]["coeff"] == "40/3"

    def test_csv(self, capsys):
        code, out = run(capsys, "qexp", "--level", "2", "--terms", "3",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "exp,numerator,denominator"
        assert lines[1] == "-2,4,1"
        assert lines[3] == "10,-28,1"

    def test_denominators(self, capsys):
        code, out = run(capsys, "qexp", "--level", "4", "--terms", "3",
                        "--denominators")
        assert code == 0
        doc = json.loads(out)
        by_p = {d["p"]: d for d in doc["denominators"]}
        assert not by_p[2]["expectedIntegral"]
        assert not by_p[2]["integral"]
        assert by_p[2]["unboundedTrend"]
        assert by_p[3]["integral"]

    def test_coefficients_beyond_str_digit_limit(self, capsys):
        # at N = 10^30 the 40th coefficient has over 4300 digits, the
        # default limit of CPython's int-to-str conversion
        limit = sys.get_int_max_str_digits()
        for fmt in ("json", "csv"):
            code, out = run(capsys, "qexp", "--level", str(10 ** 30),
                            "--terms", "40", "--format", fmt)
            assert code == 0
            assert max(map(len, out.splitlines())) > 4300
        assert sys.get_int_max_str_digits() == limit
        # main lifts the limit for every verb and restores it on each exit
        nines = "9" * 4000
        code, _ = run(capsys, "dims", "--family", "unipotent", "--k", nines,
                      "--index", nines)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        code, _ = run(capsys, "divpoly", "--level", str(MAX_LEVEL + 1))
        assert code == 2
        assert sys.get_int_max_str_digits() == limit

    def test_huge_prime_level_in_child(self):
        # 10^30 + 57 is a probable prime: lam comes from gcds with N^12, so
        # N is never factored, and the coefficients are the N^12 tower's
        level = 10 ** 30 + 57
        script = ("import sys\n"
                  "from phicong.cli import main\n"
                  f"sys.exit(main(['qexp', '--level', '{level}', '--terms', '40']))\n")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        assert elapsed < 5.0
        terms = json.loads(done.stdout)["terms"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)       # the 40th term has 7000-digit parts
        try:
            expected = [(e, f"{num}/{den}" if den > 1 else str(num))
                        for e, num, den in n12_oracle.tower_terms(level, 40)]
        finally:
            sys.set_int_max_str_digits(limit)
        assert [(t["exp"], t["coeff"]) for t in terms] == expected

    def test_denominators_need_json(self, capsys):
        # TestInvalidInput checks the exit code; the message names both options
        main("qexp --level 5 --terms 3 --denominators --format csv".split())
        err = capsys.readouterr().err
        assert "--denominators" in err and "--format csv" in err

    def test_determinism(self, capsys):
        _, out1 = run(capsys, "qexp", "--level", "5", "--terms", "4")
        _, out2 = run(capsys, "qexp", "--level", "5", "--terms", "4")
        assert out1 == out2

    def test_non_integral_correction_exits_3(self, capsys, monkeypatch):
        # a wrong coefficient of eta^4 leaves a remainder in the
        # recurrence's exact division at its first step
        eta_q = phicong.qexp._eta_q
        monkeypatch.setattr(phicong.qexp, "_eta_q",
                            lambda n: [c + (j == 1) for j, c in enumerate(eta_q(n))])
        phicong.qexp.xtilde_terms.cache_clear()   # other tests may have cached N = 3
        code = main(["qexp", "--level", "3", "--terms", "6"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("internal consistency failure: ")
        assert "not integral at Q^1" in captured.err
        assert captured.out == ""


class TestDivpoly:
    def test_plain(self, capsys):
        code, out = run(capsys, "divpoly", "--level", "2")
        doc = json.loads(out)
        assert doc["psiSq"] == ["-6912", "0", "0", "4"]
        assert doc["omega"]["yParity"] == 0

    def test_rescaled(self, capsys):
        code, out = run(capsys, "divpoly", "--level", "3", "--rescaled")
        doc = json.loads(out)
        assert doc["psiHat"] == ["0", "0", "144", "0", "0", "-72",
                                 "0", "0", "9"]
        assert doc["phiHat"][0] == "-64"

    def test_profile(self, capsys):
        code, out = run(capsys, "divpoly", "--level", "5", "--profile", "5")
        doc = json.loads(out)
        assert doc["profile"]["supersingular"] is True
        assert doc["profile"]["r"] == 1

    @pytest.mark.parametrize("level", [MAX_LEVEL + 1, 10 ** 6])
    @pytest.mark.parametrize("mode", [[], ["--rescaled"], ["--profile", "5"]],
                             ids=["plain", "rescaled", "profile"])
    def test_level_above_ceiling_exits_2(self, capsys, level, mode):
        start = time.perf_counter()
        code = main(["divpoly", "--level", str(level)] + mode)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: N must be at most {MAX_LEVEL}, got {level}\n"
        assert captured.out == ""
        assert elapsed < 1.0


class TestMember:
    def test_gamma_prime_n(self, capsys):
        code, out = run(capsys, "member", "--spec", "gamma-prime-n",
                        "--n", "3", "--word", "T^6")
        assert code == 0
        assert json.loads(out)["member"] is True

    def test_gp(self, capsys):
        code, out = run(capsys, "member", "--spec", "gp", "--p", "17",
                        "--word", "T^4 S^-1 T^-2 S^-1 T S^-1")
        assert json.loads(out)["member"] is False

    def test_missing_n_exits_2(self, capsys):
        code, _ = run(capsys, "member", "--spec", "phicong", "--word", "T^6")
        assert code == 2

    def test_bad_word_exits_2(self, capsys):
        code, _ = run(capsys, "member", "--spec", "gamma-prime",
                      "--word", "Q^2")
        assert code == 2


class TestGrassmannian:
    def test_surjectivity(self, capsys):
        code, out = run(capsys, "grassmannian", "--p", "11", "--x", "2",
                        "--surjectivity")
        assert code == 0
        doc = json.loads(out)
        assert doc["orderT"] == 110
        assert doc["permGroupOrder"] == "12860654400"
        assert doc["surjectivePSp4"] is True
        assert doc["epsilon2"] == 12 and doc["epsilon3"] == 0

    def test_epsilons(self, capsys):
        code, out = run(capsys, "grassmannian", "--p", "13", "--x", "2",
                        "--epsilons")
        doc = json.loads(out)
        assert doc["epsilon2"] == 16 and doc["epsilon3"] == 28

    def test_lift_check(self, capsys):
        code, out = run(capsys, "grassmannian", "--p", "11", "--x", "2",
                        "--lift-check")
        assert json.loads(out)["liftWitness"] is True

    def test_mode_required(self, capsys):
        code, _ = run(capsys, "grassmannian", "--p", "11", "--x", "2")
        assert code == 2


class TestGenusCuspsDims:
    def test_genus(self, capsys):
        code, out = run(capsys, "genus", "--p", "11")
        assert code == 0
        doc = json.loads(out)
        assert doc["genus"] == 103
        assert doc["cusps"]["total"] == 34

    def test_genus_factorizes_p_once(self, capsys, monkeypatch):
        # every check of p shares one primality test: factorize(p) once,
        # and factorize(p - 1) once for the cusp widths
        calls = []
        original = phicong.rationals.factorize

        def counting(n):
            calls.append(n)
            return original(n)
        for module in (phicong.rationals, phicong.invariants):
            monkeypatch.setattr(module, "factorize", counting)
        phicong.rationals.is_prime.cache_clear()
        code, _ = run(capsys, "genus", "--p", "1000003")
        assert code == 0
        assert len(calls) <= 2, calls

    def test_cusps_both_oracles(self, capsys):
        _, out1 = run(capsys, "cusps", "--p", "11")
        _, out2 = run(capsys, "cusps", "--p", "11", "--oracle", "cycles",
                      "--x", "2")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["widths"] == d2["widths"]
        assert d1["total"] == 34

    def test_cusps_cycles_needs_x(self, capsys):
        code, _ = run(capsys, "cusps", "--p", "11", "--oracle", "cycles")
        assert code == 2

    def test_dims_unipotent(self, capsys):
        code, out = run(capsys, "dims", "--family", "unipotent", "--k", "1",
                        "--index", "24")
        doc = json.loads(out)
        assert doc["dimM"] == 24 and doc["dimSPerCharacter"] == 1

    def test_dims_beyond_str_digit_limit(self, capsys):
        # dimM = k * index has 8000 digits, more than CPython converts to
        # str by default; numbers are read as strings for the same reason
        nines = "9" * 4000                      # 10^4000 - 1
        code, out = run(capsys, "dims", "--family", "unipotent", "--k", nines,
                        "--index", nines)
        assert code == 0
        doc = json.loads(out, parse_int=str)
        assert doc["k"] == doc["index"] == nines
        # (10^4000 - 1)^2 = 10^8000 - 2 * 10^4000 + 1
        assert doc["dimM"] == "9" * 3999 + "8" + "0" * 3999 + "1"

    def test_dims_gp(self, capsys):
        code, out = run(capsys, "dims", "--family", "gp", "--k", "2",
                        "--p", "5")
        doc = json.loads(out)
        assert doc["dimM"] == 6 and doc["cusps"] == 3

    def test_dims_gp_bad_prime(self, capsys):
        code, _ = run(capsys, "dims", "--family", "gp", "--k", "2",
                      "--p", "11")
        assert code == 2       # UnsupportedPrimeError is a DomainError


#: every verb's options, as the README documents them
OPTIONS = {"qexp": {"--level", "--terms", "--denominators", "--format"},
           "divpoly": {"--level", "--rescaled", "--profile"},
           "member": {"--spec", "--n", "--p", "--word"},
           "grassmannian": {"--p", "--x", "--epsilons", "--cycles",
                            "--surjectivity", "--lift-check"},
           "genus": {"--p"},
           "cusps": {"--p", "--oracle", "--x"},
           "dims": {"--family", "--k", "--index", "--p", "--nontrivial-character"}}


def _help_sections(out):
    """{verb: its options} from the text of -h/--help: a blank line before
    each verb's "verb: summary" line, then one line per option."""
    blocks = out.split("\n\n")
    assert blocks[0].startswith("usage: phicong ")
    return {b.split(":")[0]: {line.split()[0] for line in b.splitlines()[1:]}
            for b in blocks[1:]}


class TestParser:
    def test_unknown_verb(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_no_verb(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_lists_every_verb_and_option(self, capsys, flag):
        code = main([flag])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert _help_sections(captured.out) == OPTIONS

    @pytest.mark.parametrize("argv", [["qexp", "-h"], ["qexp", "--terms", "3", "--help"],
                                      ["grassmannian", "--help"]])
    def test_verb_help(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert _help_sections(captured.out) == {argv[0]: OPTIONS[argv[0]]}

    def test_help_in_fresh_interpreter(self):
        done = subprocess.run([sys.executable, "-m", "phicong", "--help"],
                              env=_child_env(), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert _help_sections(done.stdout) == OPTIONS

    @pytest.mark.parametrize("argv", [
        pytest.param("frobnicate --p 11", id="unknown-verb"),
        pytest.param("--p 11 genus", id="option-before-verb"),
        pytest.param("genus --p 11 --q 3", id="unknown-option"),
        pytest.param("qexp --lev 3", id="abbreviated-option"),
        pytest.param("genus -p 11", id="single-dash"),
        pytest.param("genus 11", id="positional"),
        pytest.param("qexp --level", id="missing-value"),
        pytest.param("qexp --level 3 --terms", id="missing-last-value"),
        pytest.param("qexp --terms 3", id="missing-required"),
        pytest.param("genus --p eleven", id="non-integer"),
        pytest.param("genus --p=1.5", id="non-integer-equals"),
        pytest.param(f"genus --p {'1' * 4301}", id="over-4300-digits"),
        pytest.param("qexp --level 3 --format xml", id="bad-choice"),
        pytest.param("member --spec gamma --word T", id="bad-spec"),
        pytest.param("grassmannian --p 11 --x 2 --epsilons --cycles", id="two-modes"),
        pytest.param("grassmannian --p 11 --x 2", id="no-mode"),
        pytest.param("qexp --level 3 --denominators=yes", id="flag-with-value"),
        pytest.param("grassmannian --p 11 --x 2 --cycles=", id="mode-with-empty-value"),
    ])
    def test_parse_failure_exits_2(self, capsys, argv):
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_equals_form_and_last_value_wins(self, capsys):
        _, plain = run(capsys, "genus", "--p", "11")
        assert run(capsys, "genus", "--p=11") == (0, plain)
        assert run(capsys, "genus", "--p", "13", "--p", "11") == (0, plain)
        assert run(capsys, "genus", "--p=13", "--p=11") == (0, plain)
        _, word = run(capsys, "member", "--spec", "gamma-prime", "--word", "S T^-1")
        assert json.loads(word)["word"] == "S T^-1"
        assert run(capsys, "member", "--spec=gamma-prime", "--word=S T^-1") == (0, word)


@pytest.fixture
def no_digit_limit():
    """CPython's int-to-str limit lifted, as `main` lifts it to write."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


class TestWriter:
    # json.dumps(doc, indent=2) is the oracle of every byte the writer
    # emits
    @pytest.mark.parametrize("doc", [
        {}, [], {"a": {}, "b": [], "c": [{}]}, [[[]]], (), (1, [2, ()]),
        {"a": [1, [2, {"c": None}]], "d": "x", "e": -7},
        [True, 1, False, 0, None], True, False, 1, 0, None,
        math.inf, -math.inf, {"minValuations": [0, -2, math.inf]}, 0.5,
        "", " ", "plain text ~!@#$%^&*()_+{}|:<>?", 'a"b', "a\\b", "a\tb",
        "a\nb", "a\x7fb", "a\u00a0b", "a\U0001d11eb", "\u00e9",
        {'k"ey': 1, "k\u00a0": [2]},
    ], ids=repr)
    def test_matches_json(self, doc):
        assert _json(doc) == json.dumps(doc, indent=2)

    def test_bool_is_not_int(self):
        assert (_json(True), _json(1), _json(False), _json(0)) == ("true", "1", "false", "0")

    def test_5000_digit_int(self, no_digit_limit):
        n = -(10 ** 4999 + 1)
        assert _json({"n": [n]}) == json.dumps({"n": [n]}, indent=2)
        assert len(_json(n)) == 5001

    def test_every_golden_document(self, no_digit_limit):
        docs = [e for e in GOLDEN if "csv" not in e["argv"]]
        assert len(docs) > 30
        for entry in docs:
            doc = json.loads(entry["stdout"])
            assert _json(doc) + "\n" == json.dumps(doc, indent=2) + "\n" == entry["stdout"]

    @pytest.mark.parametrize("word", ["S\tT", "S\u00a0T", "S T\n"], ids=repr)
    def test_word_outside_printable_ascii(self, capsys, word):
        code, out = run(capsys, "member", "--spec", "gamma-prime", "--word", word)
        assert code == 0
        doc = json.loads(out)
        assert doc["word"] == word
        assert out == json.dumps(doc, indent=2) + "\n"


class TestWriteFailure:
    """A document that cannot be written exits 1 with one line on stderr,
    with no traceback and nothing from the flush at interpreter exit."""

    def run_genus(self, env, **kwargs):
        done = subprocess.run([sys.executable, "-m", "phicong", "genus", "--p", "11"],
                              env=env, stderr=subprocess.PIPE, text=True,
                              timeout=60, **kwargs)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: cannot write the result: ")
        assert done.stderr.count("\n") == 1, done.stderr

    # buffered, the bytes reach the device at the flush; unbuffered, at
    # the write
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_full_device(self, unbuffered):
        env = dict(_child_env(), PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "w") as full:
            self.run_genus(env, stdout=full)

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child")
    def test_closed_stdout(self):
        self.run_genus(_child_env(), stdout=subprocess.DEVNULL,
                       preexec_fn=lambda: os.close(1))


class TestStderrFailure:
    """A closed or full stderr loses the message, not the exit code, and
    nothing goes to stdout in its place."""

    def run(self, argv, code, **kwargs):
        done = subprocess.run([sys.executable, "-m", "phicong", *argv.split()],
                              env=_child_env(), timeout=60, **kwargs)
        assert done.returncode == code
        return done

    # closed, stderr is None; a launcher script that opens itself as
    # fd 2 leaves a read-only stderr, which fails at the write
    @pytest.mark.skipif(os.name != "posix", reason="closes fd 2 in the child")
    @pytest.mark.parametrize("fd2", [
        lambda: os.close(2),
        lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2)], ids=["closed", "read-only"])
    def test_closed_stderr(self, fd2):
        done = self.run("genus --p 15", 2, stdout=subprocess.PIPE, preexec_fn=fd2)
        assert done.stdout == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            done = self.run("genus --p 15", 2, stdout=subprocess.PIPE, stderr=full)
            assert done.stdout == b""
            # the result and then its error message both fail
            self.run("genus --p 11", 1, stdout=full, stderr=full)


class TestInvalidInput:
    @pytest.mark.parametrize("argv", [
        "genus --p 15", "genus --p 9", "cusps --p 21",
        "grassmannian --p 15 --x 2 --epsilons",
        "dims --family gp --k 2 --p 65", "member --spec gp --p 65 --word T",
        "qexp --level 5 --terms -1", "qexp --level 5 --terms 0",
        f"qexp --level 5 --terms {MAX_TERMS + 1}",
        "qexp --level 10 --terms 1000000 --denominators",
        "qexp --level 5 --terms 3 --denominators --format csv",
        "qexp --level 1000000 --terms 400",
        "divpoly --level 3 --profile 15",
    ])
    def test_exit_2_with_message(self, capsys, argv):
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestResourceGuard:
    @pytest.mark.parametrize("argv", [
        "grassmannian --p 127 --x 3 --surjectivity",
        "grassmannian --p 157 --x 5 --surjectivity",
        "grassmannian --p 157 --x 2 --epsilons",
        "grassmannian --p 157 --x 2 --cycles",
        "cusps --p 157 --oracle cycles --x 2",
    ])
    def test_refused_before_allocating(self, capsys, argv):
        start = time.perf_counter()
        code = main(argv.split())
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert f"p <= {MAX_P}, got " in captured.err
        assert captured.out == ""
        assert elapsed < 1.0

    # 10^18 + 3 is prime: trial division would run far past the timeout,
    # so the ceiling on p must come first
    @pytest.mark.parametrize("argv", [
        pytest.param(f"grassmannian --p {10 ** 18 + 3} --x 2 --{mode}",
                     id=f"grassmannian-{mode}")
        for mode in ("epsilons", "surjectivity", "cycles")
    ] + [
        pytest.param(f"cusps --p {10 ** 18 + 3} --oracle cycles --x 2",
                     id="cusps-cycles"),
        pytest.param(f"grassmannian --p {10 ** 400 + 1} --x 2 --cycles",
                     id="grassmannian-cycles-10^400"),
    ])
    def test_huge_p_refused_before_primality_test(self, argv):
        script = ("import sys\n"
                  "from phicong.cli import main\n"
                  f"sys.exit(main({argv.split()!r}))\n")
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ")
        assert f"p <= {MAX_P}, got " in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("mode", [
        "grassmannian --epsilons", "grassmannian --cycles",
        "grassmannian --surjectivity", "cusps --oracle cycles"])
    def test_ceiling_sweep(self, capsys, mode):
        # exit 0 exactly for the primes 11 <= p <= MAX_P, whichever of the
        # ceiling and the primality test refuses the rest
        for p in (-11, 0, 1, 2, 9, 11, 15, 111, 113, 114, 115, 125, 127, 157,
                  10 ** 18 + 3):
            x = next((x for x in (2, 3) if math.gcd(x, p) == 1), 1)
            code = main(mode.split() + ["--p", str(p), "--x", str(x)])
            captured = capsys.readouterr()
            admitted = 11 <= p <= MAX_P and is_prime(p)
            assert code == (0 if admitted else 2), (p, captured.err)
            if not admitted:
                assert captured.out == "", p
                assert captured.err.startswith("error: "), p


# stdout of each invocation, captured before phi moved to (u, v)
# coordinates and the eliminations mod p were merged; the --lift-check
# entries before rho moved from residue objects to integer matrices mod m;
# divpoly at levels 4, 6 and 7 and genus at p = 1000003 before the
# division polynomials moved into Z[x] and the divisors of p(p - 1) came
# from one factorization; grassmannian --surjectivity at (11, 1), (13, 3)
# and (23, 5) before the matrix certificate replaced the known-order
# Schreier-Sims search, so the first two pin the exact chain's orders;
# --cycles at (43, 2) and (11, 1), cusps --oracle cycles at (13, 3) and
# --epsilons at (29, 12) and (13, 12) before epsilon_2, epsilon_3 and the
# cycle type were counted from 4x4 matrices: x of order 14, 1, 3, 4 and 2,
# for which the cusp widths differ from the character route's; divpoly
# --level 10 --rescaled --profile 7 and --level 9 --profile 11 before the
# division polynomials became int tuples and --profile reused psi_N^2
GOLDEN = json.loads((Path(__file__).parent / "golden_stdout.json").read_text())


class TestGoldenStdout:
    @pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(e["argv"]))
    def test_bytes_unchanged(self, capsys, entry):
        code = main(entry["argv"])
        assert code == 0
        assert capsys.readouterr().out == entry["stdout"]


def _child_env():
    """The environment for a fresh interpreter that imports this phicong."""
    src = str(Path(phicong.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestImports:
    # phicong modules that only other verbs use
    UNUSED = {"qexp": ("divpoly", "invariants", "words", "symplectic", "series"),
              "member": ("qexp", "series", "divpoly", "invariants",
                         "matrices", "cyclotomic"),
              "divpoly": ("qexp", "series", "words", "invariants"),
              "dims": ("qexp", "series", "divpoly", "words"),
              "genus": ("qexp", "series", "divpoly", "words"),
              # the certified Grassmannian calls need no exact group order,
              # and no word
              "grassmannian": ("qexp", "series", "divpoly", "cyclotomic",
                               "schreier", "words"),
              "cusps": ("qexp", "series", "divpoly", "cyclotomic", "schreier",
                        "words")}
    # and those that one mode of a verb does not use: only the cusp data
    # of --cycles comes from invariants
    MODE_UNUSED = {"--surjectivity": ("invariants",),
                   "--epsilons": ("invariants",)}
    # an x of order 3 gets no certificate: the exact group order loads
    # phicong.schreier, and still no numpy
    UNCERTIFIED = ["grassmannian", "--p", "13", "--x", "3", "--surjectivity"]

    @pytest.mark.parametrize("argv", [
        ["qexp", "--level", "3", "--terms", "4"],
        pytest.param(["qexp", "--level", "4", "--terms", "3", "--denominators"],
                     id="qexp-denominators"),
        pytest.param(["qexp", "--level", "3", "--terms", "6", "--format", "csv"],
                     id="qexp-csv"),
        ["member", "--spec", "gp", "--p", "17", "--word", "T^4 S^-1"],
        ["divpoly", "--level", "3", "--profile", "5"],
        ["dims", "--family", "gp", "--k", "2", "--p", "5"],
        ["genus", "--p", "11"],
        pytest.param(["grassmannian", "--p", "11", "--x", "2", "--surjectivity"],
                     id="grassmannian-surjectivity"),
        pytest.param(UNCERTIFIED, id="grassmannian-surjectivity-uncertified"),
        pytest.param(["grassmannian", "--p", "11", "--x", "2", "--epsilons"],
                     id="grassmannian-epsilons"),
        pytest.param(["grassmannian", "--p", "11", "--x", "2", "--cycles"],
                     id="grassmannian-cycles"),
        pytest.param(["cusps", "--p", "11", "--oracle", "cycles", "--x", "2"],
                     id="cusps-cycles"),
    ], ids=lambda argv: argv[0])
    def test_verb_does_not_load_numpy(self, argv):
        modules = self.UNUSED[argv[0]] + self.MODE_UNUSED.get(argv[-1], ())
        if argv == self.UNCERTIFIED:
            modules = tuple(m for m in modules if m != "schreier")
        # nor the stdlib's argument parser and json writer: the verb table
        # and `_json` serve every verb; nor fractions, with the decimal and
        # numbers it pulls in: qexp prints reduced integer pairs
        unused = (["numpy", "dataclasses", "argparse", "gettext", "locale", "json",
                   "fractions", "decimal", "numbers"]
                  + [f"phicong.{m}" for m in modules])
        script = ("import sys\n"
                  "from phicong.cli import main\n"
                  f"assert main({argv!r}) == 0\n"
                  f"loaded = [m for m in {unused!r} if m in sys.modules]\n"
                  "assert not loaded, f'{loaded} imported'\n")
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("argv", [
        "grassmannian --p 97 --x 5 --surjectivity",
        "grassmannian --p 113 --x 3 --epsilons",
        "grassmannian --p 113 --x 3 --cycles",
        "cusps --p 113 --oracle cycles --x 3",
    ])
    def test_certified_calls_build_no_permutation(self, argv):
        # the permutation of X(F_p) lives in phicong.schreier: a call that
        # does not load it builds no list of the n points
        script = ("import sys\n"
                  "from phicong.cli import main\n"
                  f"assert main({argv.split()!r}) == 0\n"
                  "assert 'phicong.schreier' not in sys.modules\n")
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_no_module_imports_numpy(self):
        # numpy is a test dependency only
        sources = sorted(Path(phicong.__file__).parent.glob("*.py"))
        assert len(sources) > 10
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom)
                         else [])
                assert not any(n.split(".")[0] == "numpy" for n in names), path

    def test_no_module_imports_a_private_name(self):
        # a module's underscored names are its own
        for path in sorted(Path(phicong.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level:
                    assert not [a.name for a in node.names if a.name.startswith("_")], path

    def test_cli_import_loads_no_library_module(self):
        script = ("import sys\n"
                  "import phicong.cli\n"
                  "print(sorted(m for m in sys.modules if m.startswith('phicong')))\n")
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['phicong', 'phicong.cli', 'phicong.errors']"


def _surjectivity_in_child(p, x):
    """Run `grassmannian --surjectivity` in a fresh interpreter; returns its
    JSON output, wall time in seconds and peak RSS in KiB (Linux)."""
    argv = ["grassmannian", "--p", str(p), "--x", str(x), "--surjectivity"]
    script = f"import sys\nfrom phicong.cli import main\nsys.exit(main({argv!r}))\n"
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", script], env=_child_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    assert os.waitstatus_to_exitcode(status) == 0, out
    return json.loads(out), elapsed, usage.ru_maxrss


class TestSurjectivityAtScale:
    def test_p23_under_5_s_and_200_mb(self):
        doc, elapsed, rss_kib = _surjectivity_in_child(23, 5)
        assert doc["permGroupOrder"] == str(23 ** 4 * (23 ** 4 - 1) * (23 ** 2 - 1) // 2)
        assert doc["surjectivePSp4"] is True
        assert elapsed < 5.0
        assert rss_kib < 200 * 1024

    def test_p97_under_3_s_and_200_mb(self):
        # the matrix certificate proves surjectivity, so no stabilizer
        # chain is built on the 922 180 points
        doc, elapsed, rss_kib = _surjectivity_in_child(97, 5)
        assert doc["permGroupOrder"] == str(97 ** 4 * (97 ** 4 - 1) * (97 ** 2 - 1) // 2)
        assert doc["surjectivePSp4"] is True
        assert elapsed < 3.0
        assert rss_kib < 200 * 1024


class TestGenusAtScale:
    def test_p_near_10_to_12_under_10_s(self):
        # the Moebius sum does not test p for primality per (n, d) pair
        p = 10 ** 12 + 39
        argv = ["genus", "--p", str(p)]
        script = f"import sys\nfrom phicong.cli import main\nsys.exit(main({argv!r}))\n"
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        assert doc["cusps"]["total"] == 2 * p + 12
        assert doc["cusps"]["widths"][str(p)] == 1


_VALID_TOKENS = ("S", "T", "S^-1", "S-1", "T^5", "T^-12", "S^3", "T^0")
_MALFORMED_TOKENS = ("Q^2", "S^", "T^x", "^3", "s", "T^^2", "S^1.5", "TT",
                     "S^-")


def _grammar_argv(rng: random.Random, verb: str):
    """One generated command line for verb: p and x in -3..40, levels in
    -2..6, --terms in -2..8, divpoly's --level and qexp's --terms now and
    then above their ceilings up to 10^6, dims --k and --index now and
    then of 4000 digits, words mixing valid and malformed tokens; an
    optional argument is left out now and then, and an integer is
    sometimes not one.  A quarter of the options with a value are spelled
    --name=value, and now and then an unknown option is put in."""
    argv, out = _grammar_tokens(rng, verb), []
    for token in argv:
        if out and out[-1].startswith("--") and not token.startswith("--") \
                and rng.random() < 0.25:
            out[-1] += "=" + token
        else:
            out.append(token)
    if rng.random() < 0.03:
        out.insert(rng.randint(1, len(out)), rng.choice(["--bogus", "--bogus=1"]))
    return out


def _grammar_tokens(rng: random.Random, verb: str):
    def num(lo, hi):
        return "x1" if rng.random() < 0.03 else str(rng.randint(lo, hi))

    def opt(*args):
        return list(args) if rng.random() < 0.85 else []

    def flag(name):
        return [name] if rng.random() < 0.5 else []

    p, x, level = num(-3, 40), num(-3, 40), num(-2, 6)
    if verb == "qexp":
        terms = num(-2, 8) if rng.random() < 0.8 else num(MAX_TERMS + 1, 10 ** 6)
        return (["qexp", "--level", level] + opt("--terms", terms)
                + flag("--denominators") + opt("--format", rng.choice(["json", "csv"])))
    if verb == "divpoly":
        if rng.random() < 0.2:
            level = num(MAX_LEVEL + 1, 10 ** 6)
        return (["divpoly", "--level", level] + flag("--rescaled")
                + opt("--profile", p))
    if verb == "member":
        tokens = rng.choice([_VALID_TOKENS, _VALID_TOKENS + _MALFORMED_TOKENS])
        word = " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 6)))
        spec = rng.choice(["gamma-prime", "gamma-double-prime",
                           "gamma-prime-n", "gp", "phicong"])
        return (["member", "--spec", spec] + opt("--n", level) + opt("--p", p)
                + ["--word", word])
    if verb == "grassmannian":
        mode = rng.choice(["--epsilons", "--cycles", "--lift-check",
                           "--surjectivity"])
        if mode == "--surjectivity":
            p = num(-3, 11)
        return ["grassmannian", "--p", p, "--x", x] + opt(mode)
    if verb == "genus":
        return ["genus", "--p", p]
    if verb == "cusps":
        return (["cusps", "--p", p] + opt("--oracle", rng.choice(["cycles", "character"]))
                + opt("--x", x))

    def dim_arg():
        return level if rng.random() < 0.8 else num(10 ** 3999, 10 ** 4000 - 1)

    return (["dims", "--family", rng.choice(["unipotent", "gp"]),
             "--k", dim_arg()] + opt("--index", dim_arg()) + opt("--p", p)
            + flag("--nontrivial-character"))


class TestArgumentGrammar:
    VERBS = ("qexp", "divpoly", "member", "grassmannian", "genus", "cusps",
             "dims")

    def test_exit_codes(self, capsys):
        rng = random.Random(2026)
        start = time.perf_counter()
        seen = set()
        for verb in self.VERBS:
            for _ in range(50):
                argv = _grammar_argv(rng, verb)
                code = main(argv)          # an exception fails the test
                out = capsys.readouterr().out
                assert code in (0, 2), argv
                if code == 2:
                    assert out == "", argv
                else:
                    assert out, argv
                seen.add((verb, code))
        assert seen == {(v, c) for v in self.VERBS for c in (0, 2)}
        assert time.perf_counter() - start < 15
