"""The four workloads: lists of `phicong` CLI calls ("ops").

Only the words of `member-words` depend on the seed; every other op list
is fixed.  Ops are sized to take about 0.2-2 s each, so that a run holds
several rounds and each op's time is taken next to a reference probe (see
run.py); the README names the larger sizes the roadmap's targets use.
Every `x` is a primitive root mod its `p`: with other `x` the cycle-type
cusp data differs from the closed form the checks use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

@dataclass(frozen=True)
class Op:
    """One CLI call: `argv` follows the program name, `check` names the
    output check in checks.py, `params` are the inputs that check needs.
    `largest` marks the op whose time is the workload's `max_op_s`; it
    runs twice in each round (see with_largest_twice)."""

    argv: Tuple[str, ...]
    check: str
    params: Dict = field(default_factory=dict, hash=False, compare=False)
    largest: bool = False


def _qexp(level: int, terms: int, denominators: bool, largest=False) -> Op:
    argv = ("qexp", "--level", str(level), "--terms", str(terms))
    if denominators:
        argv += ("--denominators",)
    return Op(argv, "qexp", {"N": level, "terms": terms,
                             "denominators": denominators}, largest)


def _grass(mode: str, p: int, x: int, largest=False) -> Op:
    return Op(("grassmannian", "--p", str(p), "--x", str(x), f"--{mode}"),
              mode, {"p": p, "x": x}, largest)


def with_largest_twice(ops: List[Op]) -> List[Op]:
    """The op list with its largest op run once more at the end, so that
    a run times it twice as often as the others: one op's time swings
    more with the host's load than a whole round's."""
    return ops + [op for op in ops if op.largest]


def qexp_series() -> List[Op]:
    return [_qexp(3, 30, True), _qexp(4, 30, True), _qexp(5, 30, True),
            _qexp(10, 40, False), _qexp(5, 60, False, largest=True)]


def surjectivity() -> List[Op]:
    return [_grass("surjectivity", 11, x, largest=x == 2) for x in (2, 6, 7)]


def lagrangian_action() -> List[Op]:
    ops = [_grass("epsilons", 23, 5), _grass("epsilons", 29, 2, largest=True)]
    ops.append(_grass("cycles", 29, 2))
    ops.append(Op(("cusps", "--p", "23", "--oracle", "cycles", "--x", "5"),
                  "cycles", {"p": 23, "x": 5}))
    # `genus` also emits the character-route cusp data that `cusps --p`
    # would, and its check covers both
    ops += [Op(("genus", "--p", str(p)), "genus", {"p": p}) for p in (23, 29, 31)]
    # Invalid input: both must exit 2 with a message.  Today `genus` exits
    # 3 and `grassmannian` dies with a ValueError traceback, so they count
    # as failed ops on every run.
    ops.append(Op(("genus", "--p", "15"), "invalid"))
    ops.append(Op(("grassmannian", "--p", "15", "--x", "2", "--epsilons"),
                  "invalid"))
    return ops


# (spec, extra CLI arguments, modulus m): a word made of commutators of
# commutators and m-th powers of commutators is a member; Gamma'' admits
# no powers, since a commutator's v coordinate is not 0 in general.
MEMBER_SPECS = (
    ("gamma-prime", (), 1),
    ("gamma-double-prime", (), None),
    ("gamma-prime-n", ("--n", "5"), 5),
    ("phicong", ("--n", "12"), 12),
    ("gp", ("--p", "17"), 17),
)
WORD_SYLLABLES = 160
LARGEST_WORD_SYLLABLES = 300           # the random word of the gp op
_T_EXPONENTS = (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)


def _random_word(rng: random.Random, n: int) -> List[Tuple[str, int]]:
    """n syllables alternating between S and T, so none merge."""
    gens = "ST" if rng.random() < 0.5 else "TS"
    return [(gens[i % 2], rng.choice((1, -1)) if gens[i % 2] == "S"
             else rng.choice(_T_EXPONENTS)) for i in range(n)]


def _inverse(w):
    return [(g, -e) for g, e in reversed(w)]


def _commutator(a, b):
    return a + b + _inverse(a) + _inverse(b)


def _member_word(rng: random.Random, modulus, n: int) -> List[Tuple[str, int]]:
    """At least n syllables; parts alternate between [[a,b],[c,d]] and
    [a,b]^modulus, so the part sizes, and the length, do not depend on
    the seed."""
    word: List[Tuple[str, int]] = []
    use_power = False
    while len(word) < n:
        if use_power:
            word += _commutator(_random_word(rng, 2), _random_word(rng, 2)) * modulus
        else:
            word += _commutator(
                _commutator(_random_word(rng, 3), _random_word(rng, 3)),
                _commutator(_random_word(rng, 3), _random_word(rng, 3)))
        use_power = modulus is not None and not use_power
    return word


def format_word(word) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in word)


def member_op(spec: str, extra: Tuple[str, ...], word, largest=False) -> Op:
    params = {"spec": spec, "word": tuple(word)}
    if extra:
        params[extra[0][2:]] = int(extra[1])
    return Op(("member", "--spec", spec, *extra, "--word", format_word(word)),
              "member", params, largest)


def member_words(seed: int) -> List[Op]:
    rng = random.Random(seed)
    ops = []
    for spec, extra, modulus in MEMBER_SPECS:
        largest = spec == "gp"         # gp evaluates its word twice
        ops.append(member_op(spec, extra, _random_word(
            rng, LARGEST_WORD_SYLLABLES if largest else WORD_SYLLABLES), largest))
        ops.append(member_op(spec, extra, _member_word(rng, modulus, WORD_SYLLABLES)))
    return ops


WORKLOADS = {
    "qexp-series": lambda seed: with_largest_twice(qexp_series()),
    "surjectivity": lambda seed: with_largest_twice(surjectivity()),
    "lagrangian-action": lambda seed: with_largest_twice(lagrangian_action()),
    "member-words": lambda seed: with_largest_twice(member_words(seed)),
}
