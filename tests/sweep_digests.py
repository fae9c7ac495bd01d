"""Digests of every verb's output over fixed sweeps: a refactor that
claims the same output must reproduce them.

Run it from the root of a checkout, to check the output against
tests/sweep_digests.json or to write that file anew:

    PYTHONPATH=src python tests/sweep_digests.py
    PYTHONPATH=src python tests/sweep_digests.py --record

Each sweep runs cli.main in process on one command line per prime p of
its own range and value v at p:
- the Grassmannian modes and `cusps --oracle cycles` on every pair
  (p, x), p a prime with 11 <= p <= 113 and 1 <= x < p, 1 550 pairs;
- `cusps --oracle character` on the same primes, one line each;
- `genus` on every prime 11 <= p < 2000, one line each;
- `dims --family gp` on every prime p = 5 (mod 12) below 2000, at
  k = 1 to 4;
- `divpoly` plain, `--rescaled` and `--profile 5` at every level 1 to 42;
- `qexp` with and without `--denominators` at every level 2 to 13, at 30
  and 300 terms;
- `member` for every `--spec` on eight seeded words at each key: the
  seeds 1 to 12 for the specs with no parameter, the levels 1 to 12 for
  `gamma-prime-n` and `phicong`, the primes p = 5 (mod 12) below 300
  for `gp`.
For the unipotent verbs a sweep's "primes" are these levels and seeds.
A line's record is its argv, exit code, stdout and stderr; a sweep's
SHA-256 is that of its records in order, and each prime's that of its
own records, with the count of lines and of exits 0 and 2 (and any other
code that occurs), so that a test can check a slice of a sweep (test_cli's
TestSweepDigests) against the digests of the whole run.  The exit
status is 1 when a digest or a count differs.  pytest does not collect
this file, whose name does not start with test_.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path
from typing import Callable, Iterable, List, NamedTuple, Optional

from phicong.cli import SPEC_NAMES, main as cli_main
from phicong.rationals import is_prime

PATH = Path(__file__).with_name("sweep_digests.json")
PAIR_PRIMES = [p for p in range(11, 114) if is_prime(p)]
GENUS_PRIMES = [p for p in range(11, 2000) if is_prime(p)]
GP_PRIMES = [p for p in range(5, 2000, 12) if is_prime(p)]
LEVELS = list(range(1, 43))
KEYS = list(range(1, 13))


class Sweep(NamedTuple):
    line: str                           # the command line, {p} and {v} to fill in
                                        # token by token, so a word stays one argument
    primes: List[int]
    values: Callable[[int], Iterable]   # the values of v at a prime p


def _units(p: int) -> range:
    return range(1, p)


def _none(p: int) -> List[None]:
    return [None]


def _words(seed: int) -> List[str]:
    """Eight words of 1 to 30 syllables S^e, T^e, |e| <= 40, from seed."""
    rng = random.Random(seed)
    return [" ".join(f"{rng.choice('ST')}^{rng.randint(-40, 40)}"
                     for _ in range(rng.randint(1, 30))) for _ in range(8)]


SWEEPS = {
    **{f"grassmannian --{mode}": Sweep(f"grassmannian --p {{p}} --x {{v}} --{mode}",
                                       PAIR_PRIMES, _units)
       for mode in ("epsilons", "cycles", "surjectivity", "lift-check")},
    "cusps --oracle cycles": Sweep("cusps --p {p} --oracle cycles --x {v}",
                                   PAIR_PRIMES, _units),
    "cusps --oracle character": Sweep("cusps --p {p} --oracle character",
                                      PAIR_PRIMES, _none),
    "genus": Sweep("genus --p {p}", GENUS_PRIMES, _none),
    "dims --family gp": Sweep("dims --family gp --k {v} --p {p}", GP_PRIMES,
                              lambda p: range(1, 5)),
    **{f"divpoly{mode}": Sweep(f"divpoly --level {{p}}{mode}", LEVELS, _none)
       for mode in ("", " --rescaled", " --profile 5")},
    **{f"qexp{mode}": Sweep(f"qexp --level {{p}} --terms {{v}}{mode}", LEVELS[1:13],
                            lambda p: (30, 300))   # levels 2 to 13
       for mode in ("", " --denominators")},
    **{f"member --spec {spec}": Sweep(
        f"member --spec {spec}" + (f" --{opt} {{p}}" if opt else "") + " --word={v}",
        [p for p in GP_PRIMES if p < 300] if opt == "p" else KEYS, _words)
       for spec, (_, opt) in SPEC_NAMES.items()},
}


def slice_primes(name: str) -> List[int]:
    """The primes of a sweep that tier 1 checks: its first two and its last."""
    primes = SWEEPS[name].primes
    return primes[:2] + primes[-1:]


def _record(argv):
    """(the record of a command line, its exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return "\0".join([" ".join(argv), str(code), out.getvalue(),
                      err.getvalue()]).encode() + b"\n", code


def digest(name: str, primes: Optional[List[int]] = None) -> dict:
    """{"lines", "exits", "sha256", "primes"} of the sweep name over primes,
    all of its own by default: the count of command lines and of each exit
    code, the digest of all its records, and that of each prime's."""
    sweep = SWEEPS[name]
    whole, exits, per_prime = hashlib.sha256(), {"0": 0, "2": 0}, {}
    for p in sweep.primes if primes is None else primes:
        one = hashlib.sha256()
        for v in sweep.values(p):
            record, code = _record([t.format(p=p, v=v) for t in sweep.line.split()])
            whole.update(record)
            one.update(record)
            exits[str(code)] = exits.get(str(code), 0) + 1
        per_prime[str(p)] = one.hexdigest()
    return {"lines": sum(exits.values()), "exits": dict(sorted(exits.items())),
            "sha256": whole.hexdigest(), "primes": per_prime}


def main(argv) -> int:
    found = {name: digest(name) for name in SWEEPS}
    if argv == ["--record"]:
        PATH.write_text(json.dumps(found, indent=1) + "\n")
        return 0
    recorded = json.loads(PATH.read_text())
    bad = 0
    for name in SWEEPS:
        same = found[name] == recorded.get(name)
        bad += not same
        print(f"{'same' if same else 'CHANGED':8} {name}: {found[name]['lines']} lines, "
              f"exits {found[name]['exits']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
