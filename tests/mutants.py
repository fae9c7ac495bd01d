"""Mutation check: each mutant changes one piece of text in a copy of the
checkout, and the tests listed with it must then fail (DeMillo, Lipton
and Sayward, "Hints on test data selection", IEEE Computer 11, 1978).

Run it from the root of a checkout, for every mutant or for those named:

    python tests/mutants.py
    python tests/mutants.py ceiling-off-by-one write-handler-removed

It copies src/, tests/ and pyproject.toml into a temporary directory,
runs the listed tests there unchanged (they must pass), then for each
mutant replaces its text, which must occur exactly once, runs its tests
and restores the file.  A mutant is killed when a test fails, or the tests
run past TIMEOUT seconds; pytest stopping for any other reason (a
collection error, say) is an error, not a kill.  One line per mutant is
printed; the exit status is 1 when any mutant survived or ended in an
error, or its text is no longer in the file.  pytest does not
collect this file, whose name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    path: str                   # relative to the root of the checkout
    old: str
    new: str
    tests: Tuple[str, ...]      # pytest node ids, at least one must fail


_WRITE = """        try:
            if sys.stdout is None:          # started with no stdout (>&-)
                raise OSError("stdout is closed")
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # what is left in its buffer would fail again at exit
            sys.stdout = None
            _complain(f"error: cannot write the result: {exc}")
            return 1
"""
_COMPLAIN = """    if sys.stderr is not None:              # started with no stderr (2>&-)
        try:
            print(message, file=sys.stderr, flush=True)
        except OSError:
            pass
"""
_CEILING = """    if p > MAX_P:
        raise DomainError(f"the Lagrangian Grassmannian takes a prime "
                          f"p <= {MAX_P}, got {p}")
"""
_MEMBERSHIP = """    if not all((inverse(g) * g).is_identity() for g in gens):
        raise error("matrix is not symplectic for J")
"""
_KERNEL = "tests/test_matrices.py::TestProductKernel"
_CERTIFICATE = "tests/test_symplectic.py::TestCertificate"
_ORACLE_CERT = "tests/certificate_oracle.py"
_FIXED = "tests/test_symplectic.py::TestFixedLagrangians"
_DIVPOLY_ORACLE = "tests/test_divpoly.py::TestOracle"
_BOUNDARY = "tests/test_rationals.py::test_float_refused_at_the_boundary"
_CHAIN = "tests/test_symplectic.py::TestMatrixChain"
_ROUTES = "tests/test_symplectic.py::TestStructuralRoutes"
_TABLE = _ROUTES + "::test_every_pair_to_113_takes_its_route"
_QUADRIC = "tests/test_symplectic.py::TestQuadricZeros"
_INVARIANTS = "tests/test_invariants.py"
_BUDGET = "tests/test_cli.py::TestImports::test_compile_budget"
_ORACLE = _INVARIANTS + "::TestGeometryOracle"
_CUSPS = _ORACLE + "::test_cusp_data_on_every_pair"
_CHI = _ORACLE + "::test_each_case_at_every_power"
_WORDS = "tests/test_words.py::TestWord::test_parse_rejects_malformed"
_INVALID = "tests/test_cli.py::TestInvalidInput::test_exit_2_with_message"
_CLI_END = 'if __name__ == "__main__":\n'

MUTANTS = (
    Mutant("ceiling-off-by-one", "src/phicong/cli_symplectic.py",
           "if p > MAX_P:", "if p >= MAX_P:",
           ("tests/test_cli.py::TestResourceGuard::test_ceiling_sweep",)),
    Mutant("ceiling-not-in-sp-params", "src/phicong/cli_symplectic.py", _CEILING, "",
           ("tests/test_cli.py::TestResourceGuard::test_refused_before_allocating",)),
    Mutant("write-handler-removed", "src/phicong/cli.py",
           _WRITE, "        sys.stdout.write(text)\n",
           ("tests/test_cli.py::TestWriteFailure",)),
    Mutant("write-buffer-kept", "src/phicong/cli.py",
           "            sys.stdout = None\n", "",
           ("tests/test_cli.py::TestWriteFailure::test_full_device",)),
    Mutant("stderr-guard-removed", "src/phicong/cli.py",
           _COMPLAIN, "    print(message, file=sys.stderr)\n",
           ("tests/test_cli.py::TestStderrFailure",)),
    Mutant("padic-val-any-type", "src/phicong/rationals.py",
           "    require_int(n, \"n\")\n    return None", "    return None",
           ("tests/test_rationals.py::test_padic_val_refuses_non_int",)),
    Mutant("require-int-any-type", "src/phicong/rationals.py",
           "if not isinstance(value, int) or least is not None",
           "if least is not None", (_BOUNDARY,)),
    Mutant("xtilde-cache-untyped", "src/phicong/qexp.py",
           "@lru_cache(maxsize=64, typed=True)", "@lru_cache(maxsize=64)",
           (_BOUNDARY + "[xtilde_terms_int_then_float]",)),
    Mutant("outside-a-zero-admitted", _ORACLE_CERT,
           "return a != 0 and legendre(", "return legendre(", (_CERTIFICATE,)),
    Mutant("outside-non-squares-admitted", _ORACLE_CERT,
           "legendre(a * a - 4 * b + 8, g.m) == 1", "legendre(a * a - 4 * b + 8, g.m) != 0",
           (_CERTIFICATE,)),
    Mutant("ppd-factor-p-dropped", _ORACLE_CERT,
           "e = p * (p ** 4 - 1) //", "e = (p ** 4 - 1) //", (_CERTIFICATE,)),
    Mutant("ppd-factor-5-kept", _ORACLE_CERT,
           "split_power(split_power(p * p + 1, 2)[1], 5)[1]",
           "split_power(p * p + 1, 2)[1]", (_CERTIFICATE,)),
    Mutant("numpy-in-src", "src/phicong/symplectic.py",
           "from functools import lru_cache\n", "from functools import lru_cache\nimport numpy\n",
           ("tests/test_cli.py::TestImports::test_no_module_imports_numpy",)),
    Mutant("kernel-no-reduction", "src/phicong/matrices.py",
           "(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3) % m",
           "(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3)", (_KERNEL,)),
    Mutant("kernel-columns-swapped", "src/phicong/matrices.py",
           "for c0, c1, c2, c3 in cols]",
           "for c0, c1, c2, c3 in (cols[1], cols[0], cols[2], cols[3])]", (_KERNEL,)),
    Mutant("is-identity-one-row", "src/phicong/matrices.py",
           "return self.rows == Matrix._IDENTITY",
           "return self.rows[0] == Matrix._IDENTITY[0]", (_KERNEL,)),
    Mutant("quartic-sign-of-b", "tests/geometry_oracle.py",
           "[1, 2 - b, a * a - 2 * b + 2, 2 - b, 1]",
           "[1, b - 2, a * a - 2 * b + 2, b - 2, 1]", (_FIXED,)),
    Mutant("trace-pair-not-halved", _ORACLE_CERT,
           "(a * a - tr_sq) * pow(2, -1, p) % p", "(a * a - tr_sq) % p", (_FIXED,)),
    Mutant("tower-prefix-not-rescaled", "src/phicong/qexp.py",
           "c[k] *= f ** k", "c[k] *= 1", ("tests/test_qexp.py::TestLambda",)),
    Mutant("untwist-powers-reversed", "src/phicong/divpoly.py",
           "12 ** (len(f) - 1 - i)", "12 ** i", (_DIVPOLY_ORACLE,)),
    Mutant("divpoly-on-the-curve", "src/phicong/divpoly.py",
           "B = -1\n", "B = -1728\n", (_DIVPOLY_ORACLE,)),
    Mutant("psi-sq-not-reused", "src/phicong/divpoly.py",
           "@lru_cache(maxsize=1)\ndef _psi_sq", "@lru_cache(maxsize=0)\ndef _psi_sq",
           ("tests/test_divpoly.py::TestProductCount",)),
    Mutant("permutation-chain-unverified", "tests/permutation_oracle.py",
           "    level = chain[lvl]\n    for x", "    return None\n    for x",
           ("tests/test_symplectic.py::TestGroupOrder::test_symmetric_group",)),
    Mutant("chain-last-level-compare-inverted", "tests/schreier_oracle.py",
           "None if g == level.reps[k] else", "None if g != level.reps[k] else",
           (_CHAIN,)),
    Mutant("chain-orbit-open-under-old-generators", "tests/schreier_oracle.py",
           "for h in (g,) if k < old else self.gens:", "for h in (g,):", (_CHAIN,)),
    Mutant("chain-schreier-generators-of-base-only", "tests/schreier_oracle.py",
           "for k, y in enumerate(level.points):",
           "for k, y in enumerate(level.points[:1]):", (_CHAIN,)),
    Mutant("chain-strong-generator-own-level-only", "tests/schreier_oracle.py",
           "for level in chain[:lvl + 1]:", "for level in chain[lvl:lvl + 1]:",
           (_CHAIN,)),
    # the rows of the surjectivity table, orderT and the fourth row's order
    Mutant("table-row-x2-1-as-x-1", "src/phicong/invariants.py",
           "    if sq == 1:\n        order = sl2", "    if x == 1:\n        order = sl2",
           (_TABLE,)),
    Mutant("table-row-x2-minus-1-dropped", "src/phicong/invariants.py",
           "    elif sq == p - 1:\n        order = 6\n", "", (_TABLE,)),
    Mutant("order-T-at-x2-minus-1-times-p", "src/phicong/invariants.py",
           "order_T = 4 if sq == p - 1", "order_T = 4 * p if sq == p - 1",
           ("tests/test_symplectic.py::TestRho::test_order_T_matches_iteration",)),
    Mutant("table-row-x4-x2-1-as-x2-x-1", "src/phicong/invariants.py",
           "elif (sq * sq + sq + 1) % p == 0:", "elif (x * x + x + 1) % p == 0:",
           (_TABLE,)),
    Mutant("order-T-of-x2-not-x", "src/phicong/invariants.py",
           "p * multiplicative_order(x, p)", "p * multiplicative_order(sq, p)",
           ("tests/test_symplectic.py::TestRho::test_order_T_matches_iteration",)),
    Mutant("fourth-row-order-of-sp4", "src/phicong/invariants.py",
           "        order = psp4\n", "        order = sp4_order(p)\n", (_TABLE,)),
    Mutant("explicit-y-admitted", "src/phicong/rationals.py",
           "        if self.y is not None and self.x * self.y % self.p != 1:\n",
           "        if False:\n",
           (_ROUTES + "::test_explicit_y_other_than_1_over_x_is_refused",
            _INVARIANTS + "::TestChi::test_explicit_y_other_than_1_over_x_is_refused")),
    Mutant("inverse-weights-swapped", "src/phicong/symplectic.py",
           "c[j] * pow(c[i], -1, p)", "c[i] * pow(c[j], -1, p)",
           (_FIXED, _CHAIN + "::test_inverse_is_J_conjugate_transpose")),
    Mutant("symplectic-check-dropped", "src/phicong/symplectic.py",
           _MEMBERSHIP, "", (_FIXED + "::test_rejects", _CHAIN + "::test_rejects")),
    Mutant("power-exponent-unchecked", "src/phicong/rationals.py",
           "    require_int(e, \"exponent\", 0)\n", "", (_BOUNDARY,)),
    Mutant("row-reduce-swap-sign-dropped", "tests/geometry_oracle.py",
           "rows[r], rows[hit], det = rows[hit], rows[r], -det",
           "rows[r], rows[hit] = rows[hit], rows[r]", (_QUADRIC, _FIXED)),
    Mutant("quadric-disc-of-whole-gram", "tests/geometry_oracle.py",
           "row_reduce([[G[i][j] for j in P] for i in P], p)[2]", "row_reduce(G, p)[2]",
           (_QUADRIC,)),
    # each row of the cusp table, its order argument x^2, and the
    # primitive-root case m = (p - 1)/2
    Mutant("cusp-row-x2-1-width-p", "src/phicong/invariants.py",
           "p: (n - 1) // p}", "p: (n - p) // p}", (_CUSPS,)),
    Mutant("cusp-row-x2-minus-1-width-1", "src/phicong/invariants.py",
           "{1: p + 3, 2:", "{1: p + 1, 2:", (_CUSPS,)),
    Mutant("cusp-row-general-width-m", "src/phicong/invariants.py",
           "m: 4 * k,", "m: 4,", (_CUSPS,)),
    Mutant("cusp-long-width-count", "src/phicong/invariants.py",
           "p * m: (2 * p + 4) * k}", "p * m: (2 * p + 6) * k}",
           (_INVARIANTS + "::TestCusps",)),
    Mutant("cusp-order-of-x-not-x2", "src/phicong/invariants.py",
           "multiplicative_order(params.x * params.x % p, p)",
           "multiplicative_order(params.x % p, p)", (_CUSPS,)),
    Mutant("cusp-character-order", "src/phicong/invariants.py",
           "_cusp_data(p, (p - 1) // 2)", "_cusp_data(p, p - 1)",
           (_INVARIANTS + "::TestCusps::test_character_p11",)),
    Mutant("genus-cusp-coefficient", "src/phicong/invariants.py",
           "- 6 * c) // 12", "- 5 * c) // 12", (_INVARIANTS + "::TestGenus::test_table",)),
    Mutant("eps3-legendre-sign", "src/phicong/rationals.py",
           "legendre(-3, p)", "legendre(3, p)", (_INVARIANTS + "::TestElliptic",)),
    Mutant("sym3-table-entry", "src/phicong/symplectic.py",
           "((1, 3, 3, 1),", "((1, 1, 3, 1),", (_ROUTES + "::test_rho_at_1_is_sym3",)),
    Mutant("rho-diagonal-order", "src/phicong/symplectic.py",
           "d = (x, y, pow(y, -1, p), pow(x, -1, p))",
           "d = (x, pow(y, -1, p), y, pow(x, -1, p))",
           ("tests/test_symplectic.py::TestRho::test_entries_at_every_x_and_y",)),
    Mutant("cusps-character-x-admitted", "src/phicong/cli_symplectic.py",
           "        if args.x is not None:\n"
           "            raise DomainError(\"cusps takes --x only with --oracle cycles\")\n",
           "", ("tests/test_cli.py::TestInvalidInput",)),
    Mutant("genus-refusal-loads-invariants", "src/phicong/cli_symplectic.py",
           "    from .rationals import require_prime\n    require_prime(args.p, 7)\n", "",
           (_BUDGET + "[genus --p 15]",)),
    Mutant("cusps-refusal-loads-invariants", "src/phicong/cli_symplectic.py",
           "        from .rationals import require_prime\n        require_prime(args.p, 7)\n",
           "", ("tests/test_cli.py::TestImports::test_refusal_loads_no_matrix_code"
                "[cusps --p 15]",)),
    # each case of chi_power, the semisimple test, the test x^(2d) = 1
    # and the lifting witness
    Mutant("chi-identity-case", "src/phicong/invariants.py",
           "grassmannian_size(p) if semisimple", "2 * p + 1 if semisimple", (_CHI,)),
    Mutant("chi-regular-unipotent-case", "src/phicong/invariants.py",
           "else 1 if sq == 1 else", "else 3 if sq == 1 else", (_CHI,)),
    Mutant("chi-short-root-case", "src/phicong/invariants.py",
           "else 2 * p + 1\n", "else 2 * p - 1\n", (_CHI,)),
    Mutant("chi-semisimple-torus-case", "src/phicong/invariants.py",
           "return p + 3 if semisimple", "return p + 1 if semisimple", (_CHI,)),
    Mutant("chi-torus-times-unipotent-case", "src/phicong/invariants.py",
           "if semisimple else 3\n", "if semisimple else 1\n", (_CHI,)),
    Mutant("chi-semisimple-test-flipped", "src/phicong/invariants.py",
           "d % p == 0 or sq == p - 1", "d % p == 0 or sq != p - 1", (_CHI,)),
    Mutant("chi-x-to-the-d-not-2d", "src/phicong/invariants.py",
           "if pow(sq, d, p) == 1:", "if pow(params.x, d, p) == 1:", (_CHI,)),
    Mutant("lift-witness-negated", "src/phicong/invariants.py",
           "% params.p != 0", "% params.p == 0",
           (_ORACLE + "::test_lift_witness_on_every_pair",)),
    Mutant("exponent-digit-limit-dropped", "src/phicong/words.py",
           " and len(digits) <= _EXPONENT_DIGITS", "", (_WORDS,)),
    Mutant("exponent-non-ascii-digits", "src/phicong/words.py",
           "digits.isascii() and ", "", (_WORDS,)),
    # the same grammar for integer options
    Mutant("integer-option-plus-sign", "src/phicong/cli.py",
           'value.removeprefix("-").isdigit()', 'value.lstrip("+-").isdigit()',
           (_INVALID + "[genus --p +11]",)),
    Mutant("integer-option-non-ascii-digits", "src/phicong/cli.py",
           "if not (value.isascii() and ", "if not (",
           (_INVALID + "[genus-arabic-indic-digits]",)),
    Mutant("sp-params-unit-check", "src/phicong/rationals.py",
           "or v % p == 0:", "or v == 0:",
           ("tests/test_symplectic.py::TestRho::test_params_validation",)),
    Mutant("epsilons-loads-symplectic", "src/phicong/cli_symplectic.py",
           "    from .rationals import SpParams\n    return SpParams(p, x)",
           "    from .symplectic import SpParams\n    return SpParams(p, x)",
           ("tests/test_cli.py::TestImports::test_verb_does_not_load_numpy"
            "[grassmannian-epsilons]",)),
    Mutant("dims-gp-index-admitted", "src/phicong/cli_symplectic.py",
           'unread(args, "--family gp", "index", ', 'unread(args, "--family gp", ',
           ("tests/test_cli.py::TestInvalidInput",)),
    Mutant("miller-rabin-base-41-dropped", "src/phicong/rationals.py",
           "31, 37, 41)", "31, 37)",
           ("tests/test_rationals.py::test_is_prime_strong_pseudoprimes",)),
    Mutant("miller-rabin-squaring-dropped", "src/phicong/rationals.py",
           "            x = x * x % n\n", "",
           ("tests/test_rationals.py::test_is_prime_agrees_with_trial_division",)),
    Mutant("profile-range-unbounded", "src/phicong/divpoly.py",
           "range(1, min((p - 1) // 2, N * N))", "range(1, (p - 1) // 2)",
           ("tests/test_cli.py::TestLargePrimes::test_exits_0",)),
    Mutant("entry-no-freeze", "src/phicong/__main__.py", "    gc.freeze()\n", "",
           ("tests/test_cli.py::TestProcessEntry::test_run_freezes_the_heap",)),
    Mutant("freeze-in-cli-main", "src/phicong/cli.py",
           "    saved = getattr(sys, ",
           "    __import__(\"gc\").freeze()\n    saved = getattr(sys, ",
           ("tests/test_cli.py::TestProcessEntry::test_main_does_not_freeze",)),
    # likewise at the end of cli, after the names its handlers import
    Mutant("family-loaded-with-cli", "src/phicong/cli.py",
           _CLI_END, "from . import cli_symplectic\n\n\n" + _CLI_END,
           ("tests/test_cli.py::TestImports::test_cli_import_loads_no_library_module",)),
)

#: Seconds a mutant's tests may run; a mutant that makes them hang is killed.
TIMEOUT = 300


def _pytest(root: Path, tests) -> str:
    """'pass', 'fail', 'timeout' or 'error' for the tests in the copy at
    root; pytest exits 1 exactly when a test failed."""
    # no bytecode cache: a mutant of the same size written within the same
    # second as its original would load the original's .pyc
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                               "-p", "no:cacheprovider", *tests],
                              cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "pass", 1: "fail"}.get(done.returncode, "error")


def main(names) -> int:
    checkout = Path(__file__).resolve().parent.parent
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(checkout / part, root / part, ignore=ignore)
        shutil.copy(checkout / "pyproject.toml", root)
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(root, tests) != "pass":
            print("the listed tests do not pass on the unchanged copy", file=sys.stderr)
            return 2
        bad = 0
        for m in chosen:
            path = root / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: its text is not in {m.path} exactly once")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                outcome = _pytest(root, m.tests)
            finally:
                path.write_text(text)
            verdict = {"pass": "SURVIVED", "error": "ERROR"}.get(outcome, "killed")
            bad += verdict != "killed"
            print(f"{verdict:9} {m.name} ({outcome}, {time.perf_counter() - start:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
