"""Self-test of the output checks in checks.py.

Usage (from the root of a checkout): python3 perfbench/selftest.py

For each workload it runs a few small ops, requires the check to accept
the real output, and requires it to reject each corrupted copy: one
coefficient changed, a term dropped, the group order off by one, a cusp
width moved, a membership flipped, and so on.  It also compares the
checks' own membership decision with the program's library on sampled
words, and confirms that every `x` in the op lists is a primitive root.
Lists every disagreement and exits 1 if there is one, else exits 0.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction

import checks
import run
import workloads
from workloads import Op


def _bump(text: str) -> str:
    return str(Fraction(text) + 1)


def _set(*path_and_value):
    *path, value = path_and_value

    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value(doc[path[-1]]) if callable(value) else value
    return corrupt


def _move_width(key):
    """Move one cusp of width 1 to another width; the total is unchanged."""
    def corrupt(doc):
        widths = doc[key]["widths"] if key else doc["widths"]
        widths["1"] -= 1
        widths["5"] = widths.get("5", 0) + 1
    return corrupt


def _coeff(i):
    return _set("terms", i, "coeff", _bump)


def _drop_last(doc):
    doc["terms"].pop()


def _flip_member(doc):
    doc["member"] = not doc["member"]


def _den(prime_index, field, value):
    return _set("denominators", prime_index, field, value)


QEXP_CORRUPTIONS = {
    "leading coefficient": _coeff(0),
    "golden coefficient at q^10": _coeff(2),
    "coefficient past the golden table": _coeff(10),
    "last coefficient": _coeff(-1),
    "last term dropped": _drop_last,
    "exponent off by one": _set("terms", 3, "exp", lambda e: e + 1),
}
CASES = [
    (workloads._qexp(5, 30, True), {
        **QEXP_CORRUPTIONS,
        "5-adic minimum": _den(2, "minValuations", lambda m: [m[0] + 1] + m[1:]),
        "boundOk flipped": _den(2, "boundOk", False),
        "integral flipped": _den(0, "integral", False),
    }),
    (workloads._qexp(10, 12, False), QEXP_CORRUPTIONS),
    (workloads._grass("surjectivity", 11, 2), {
        "group order off by one": _set("permGroupOrder", lambda s: str(int(s) + 1)),
        "epsilon2": _set("epsilon2", lambda e: e + 1),
        "epsilon3": _set("epsilon3", lambda e: e - 1),
        "order of rho(T)": _set("orderT", lambda e: e + 1),
        "surjectivity flag": _set("surjectivePSp4", False),
    }),
    (workloads._grass("epsilons", 13, 2), {
        "epsilon2": _set("epsilon2", lambda e: e + 1),
        "epsilon3": _set("epsilon3", lambda e: e - 1),
    }),
    (workloads._grass("cycles", 11, 2), {
        "cusp width moved": _move_width(None),
        "total": _set("total", lambda t: t + 1),
    }),
    (Op(("cusps", "--p", "13", "--oracle", "cycles", "--x", "2"), "cycles",
        {"p": 13, "x": 2}), {"cusp width moved": _move_width(None)}),
    (Op(("cusps", "--p", "23"), "cusps", {"p": 23}),
     {"cusp width moved": _move_width(None)}),
    (Op(("genus", "--p", "23"), "genus", {"p": 23}), {
        "genus off by one": _set("genus", lambda g: g + 1),
        "cusp width moved": _move_width("cusps"),
        "epsilon2": _set("epsilon2", lambda e: e + 1),
    }),
]


def _short_member_ops(rng):
    return [workloads.member_op(spec, extra, word)
            for spec, extra, modulus in workloads.MEMBER_SPECS
            for word in (workloads._random_word(rng, 12),
                         workloads._member_word(rng, modulus, 12))]


def check_cases(env, problems):
    cases = CASES + [(op, {"membership flipped": _flip_member})
                     for op in _short_member_ops(random.Random(7))]
    for op, corruptions in cases:
        r = run.run_op([sys.executable, "-m", "phicong", *op.argv], env)
        label = " ".join(op.argv)[:60]
        try:
            checks.check(op, r.stdout)
        except checks.CheckError as exc:
            problems.append(f"{label}: real output rejected: {exc}")
            continue
        for what, corrupt in corruptions.items():
            doc = copy.deepcopy(json.loads(r.stdout))
            corrupt(doc)
            try:
                checks.check(op, json.dumps(doc))
                problems.append(f"{label}: accepted with {what} corrupted")
            except checks.CheckError:
                print(f"ok  {label}: rejects {what}")


def check_invalid_input_rule(problems):
    cases = [((2, "error: p must be prime\n"), True),
             ((3, "internal consistency failure: c_21\n"), False),
             ((1, "Traceback (most recent call last):\nValueError\n"), False),
             ((2, "Traceback (most recent call last):\nerror\n"), False),
             ((2, ""), False), ((0, "{}"), False)]
    for (rc, err), want in cases:
        if checks.invalid_input_handled(rc, err) is not want:
            problems.append(f"invalid-input rule wrong for exit {rc}, {err!r}")
    print("checked the invalid-input rule")


def check_member_against_library(problems, samples=1200):
    """The checks' integer phi against the program's Cyc12 phi."""
    from phicong.words import SubgroupSpec, Word, subgroup_member
    kinds = {"gamma-prime": "GammaPrime", "gamma-double-prime": "GammaDoublePrime",
             "gamma-prime-n": "GammaPrimeN", "phicong": "PhiCong", "gp": "Gp"}
    rng = random.Random(11)
    specs = [("gamma-prime", None), ("gamma-double-prime", None),
             ("gamma-prime-n", 5), ("gamma-prime-n", 2), ("phicong", 12),
             ("phicong", 3), ("gp", 17), ("gp", 5)]
    hits = 0
    for i in range(samples):
        spec, n = specs[i % len(specs)]
        a, b = workloads._random_word(rng, 2), workloads._random_word(rng, 2)
        word = [workloads._random_word(rng, rng.randint(1, 10)),
                workloads._commutator(a, b) * (n or 1),
                workloads._commutator(workloads._commutator(a[:1], b[:1]),
                                      workloads._commutator(a[1:], b[1:]))][i % 3]
        ours = checks.member(spec, word, n or 0, n or 0)
        theirs = subgroup_member(Word(word), SubgroupSpec(kinds[spec], n))
        hits += ours
        if ours != theirs:
            problems.append(f"membership differs for {spec} {n} {word}")
    print(f"compared membership with the library on {samples} words "
          f"({hits} members)")


def check_primitive_roots(problems):
    ops = workloads.surjectivity() + workloads.lagrangian_action()
    for op in ops:
        p, x = op.params.get("p"), op.params.get("x")
        if x is not None and any(pow(x, (p - 1) // q, p) == 1
                                 for q in range(2, p) if (p - 1) % q == 0
                                 and all(q % d for d in range(2, q))):
            problems.append(f"x = {x} is not a primitive root mod {p}")
    print("checked that every x is a primitive root")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    env = run.child_env()
    sys.path.insert(0, env["PYTHONPATH"])
    problems = []
    check_cases(env, problems)
    check_invalid_input_rule(problems)
    check_member_against_library(problems)
    check_primitive_roots(problems)
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
