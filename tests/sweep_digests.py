"""Digests of the Grassmannian, genus and dims verbs' output over fixed
sweeps: a refactor that claims the same output must reproduce them.

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
  k = 1 to 4.
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
import sys
from pathlib import Path
from typing import Callable, Iterable, List, NamedTuple, Optional

from phicong.cli import main as cli_main
from phicong.rationals import is_prime

PATH = Path(__file__).with_name("sweep_digests.json")
PAIR_PRIMES = [p for p in range(11, 114) if is_prime(p)]
GENUS_PRIMES = [p for p in range(11, 2000) if is_prime(p)]
GP_PRIMES = [p for p in range(5, 2000, 12) if is_prime(p)]


class Sweep(NamedTuple):
    line: str                           # the command line, {p} and {v} to fill in
    primes: List[int]
    values: Callable[[int], Iterable]   # the values of v at a prime p


def _units(p: int) -> range:
    return range(1, p)


def _none(p: int) -> List[None]:
    return [None]


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
            record, code = _record(sweep.line.format(p=p, v=v).split())
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
