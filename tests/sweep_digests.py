"""Digests of the Grassmannian verbs' output over fixed sweeps: a refactor
that claims the same output must reproduce them.

Run it from the root of a checkout, to check the output against
tests/sweep_digests.json or to write that file anew:

    PYTHONPATH=src python tests/sweep_digests.py
    PYTHONPATH=src python tests/sweep_digests.py --record

Each sweep runs cli.main in process on one command line per pair (p, x),
p a prime with 11 <= p <= 113 and 1 <= x < p, 1 550 pairs, except
`cusps --oracle character`, which reads no x: one line per prime.  A
line's record is its argv, exit code, stdout and stderr; a sweep's
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

from phicong.cli import main as cli_main
from phicong.rationals import is_prime

PATH = Path(__file__).with_name("sweep_digests.json")
PRIMES = [p for p in range(11, 114) if is_prime(p)]

#: sweep name -> its command line, with {p} and {x} to fill in
SWEEPS = {
    **{f"grassmannian --{mode}": f"grassmannian --p {{p}} --x {{x}} --{mode}"
       for mode in ("epsilons", "cycles", "surjectivity", "lift-check")},
    "cusps --oracle cycles": "cusps --p {p} --oracle cycles --x {x}",
    "cusps --oracle character": "cusps --p {p} --oracle character",
}


def _record(argv):
    """(the record of a command line, its exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return "\0".join([" ".join(argv), str(code), out.getvalue(),
                      err.getvalue()]).encode() + b"\n", code


def digest(name: str, primes=PRIMES) -> dict:
    """{"lines", "exits", "sha256", "primes"} of the sweep name over primes:
    the count of command lines and of each exit code, the digest of all
    its records, and that of each prime's."""
    whole, exits, per_prime = hashlib.sha256(), {"0": 0, "2": 0}, {}
    for p in primes:
        one = hashlib.sha256()
        for x in range(1, p) if "{x}" in SWEEPS[name] else [None]:
            record, code = _record(SWEEPS[name].format(p=p, x=x).split())
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
