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
_MEMBERSHIP = """    if not all((inverse(g) * g).is_identity() for g in gens):
        raise error("matrix is not symplectic for J")
"""
_KERNEL = "tests/test_matrices.py::TestProductKernel"
_CERTIFICATE = "tests/test_symplectic.py::TestCertificate"
_FIXED = "tests/test_symplectic.py::TestFixedLagrangians"
_DIVPOLY_ORACLE = "tests/test_divpoly.py::TestOracle"
_BOUNDARY = "tests/test_rationals.py::test_float_refused_at_the_boundary"
_CHAIN = "tests/test_symplectic.py::TestMatrixChain"
_QUADRIC = "tests/test_symplectic.py::TestQuadricZeros"

MUTANTS = (
    Mutant("ceiling-off-by-one", "src/phicong/symplectic.py",
           "if p > MAX_P:", "if p >= MAX_P:",
           ("tests/test_cli.py::TestResourceGuard::test_ceiling_sweep",)),
    Mutant("ceiling-not-in-sp-params", "src/phicong/cli.py",
           "    require_max_p(p)\n    return SpParams(p, x)", "    return SpParams(p, x)",
           ("tests/test_cli.py::TestResourceGuard::test_refused_before_allocating",)),
    Mutant("ceiling-not-in-verdict", "src/phicong/symplectic.py",
           "        require_max_p(p)\n        from .schreier", "        from .schreier",
           ("tests/test_symplectic.py::TestMatrixChain"
            "::test_uncertified_verdict_refused_above_memory_limit",)),
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
           "    require_int(n, \"n\")\n    return INF", "    return INF",
           ("tests/test_rationals.py::test_padic_val_refuses_non_int",)),
    Mutant("require-int-any-type", "src/phicong/rationals.py",
           "if not isinstance(value, int) or least is not None",
           "if least is not None", (_BOUNDARY,)),
    Mutant("xtilde-cache-untyped", "src/phicong/qexp.py",
           "@lru_cache(maxsize=64, typed=True)", "@lru_cache(maxsize=64)",
           (_BOUNDARY + "[xtilde_terms_int_then_float]",)),
    Mutant("outside-a-zero-admitted", "src/phicong/symplectic.py",
           "return a != 0 and legendre(", "return legendre(", (_CERTIFICATE,)),
    Mutant("outside-non-squares-admitted", "src/phicong/symplectic.py",
           "legendre(a * a - 4 * b + 8, g.m) == 1", "legendre(a * a - 4 * b + 8, g.m) != 0",
           (_CERTIFICATE,)),
    Mutant("ppd-factor-p-dropped", "src/phicong/symplectic.py",
           "e = p * (p ** 4 - 1) //", "e = (p ** 4 - 1) //", (_CERTIFICATE,)),
    Mutant("ppd-factor-5-kept", "src/phicong/symplectic.py",
           "split_power(split_power(p * p + 1, 2)[1], 5)[1]",
           "split_power(p * p + 1, 2)[1]", (_CERTIFICATE,)),
    Mutant("numpy-in-src", "src/phicong/symplectic.py",
           "import random\n", "import random\nimport numpy\n",
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
    Mutant("quartic-sign-of-b", "src/phicong/symplectic.py",
           "[1, 2 - b, a * a - 2 * b + 2, 2 - b, 1]",
           "[1, b - 2, a * a - 2 * b + 2, b - 2, 1]", (_FIXED,)),
    Mutant("trace-pair-not-halved", "src/phicong/symplectic.py",
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
    Mutant("chain-last-level-compare-inverted", "src/phicong/schreier.py",
           "None if g == level.reps[k] else", "None if g != level.reps[k] else",
           (_CHAIN,)),
    Mutant("chain-orbit-open-under-old-generators", "src/phicong/schreier.py",
           "for h in (g,) if k < old else self.gens:", "for h in (g,):", (_CHAIN,)),
    Mutant("chain-schreier-generators-of-base-only", "src/phicong/schreier.py",
           "for k, y in enumerate(level.points):",
           "for k, y in enumerate(level.points[:1]):", (_CHAIN,)),
    Mutant("chain-strong-generator-own-level-only", "src/phicong/schreier.py",
           "for level in chain[:lvl + 1]:", "for level in chain[lvl:lvl + 1]:",
           (_CHAIN,)),
    Mutant("chain-order-not-halved", "src/phicong/symplectic.py",
           "order, odd = divmod(group_order([S4, T4]), 2)",
           "order, odd = group_order([S4, T4]), 0", (_CHAIN,)),
    Mutant("inverse-weights-swapped", "src/phicong/symplectic.py",
           "c[j] * pow(c[i], -1, p)", "c[i] * pow(c[j], -1, p)",
           (_FIXED, _CHAIN + "::test_inverse_is_J_conjugate_transpose")),
    Mutant("symplectic-check-dropped", "src/phicong/symplectic.py",
           _MEMBERSHIP, "", (_FIXED + "::test_rejects", _CHAIN + "::test_rejects")),
    Mutant("power-exponent-unchecked", "src/phicong/rationals.py",
           "    require_int(e, \"exponent\", 0)\n", "", (_BOUNDARY,)),
    Mutant("row-reduce-swap-sign-dropped", "src/phicong/rationals.py",
           "rows[r], rows[hit], det = rows[hit], rows[r], -det",
           "rows[r], rows[hit] = rows[hit], rows[r]", (_QUADRIC, _FIXED)),
    Mutant("quadric-disc-of-whole-gram", "src/phicong/symplectic.py",
           "row_reduce([[G[i][j] for j in P] for i in P], p)[2]", "row_reduce(G, p)[2]",
           (_QUADRIC,)),
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
