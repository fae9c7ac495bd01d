"""Command-line front end.

The handlers, thin adapters over the library modules, are in one module
per family, cli_unipotent and cli_symplectic; a call imports only its
verb's, once the command line has parsed.  All output is machine readable
(JSON by default, CSV for series).  `_VERBS` is the one grammar and help:
options take full names, as `--name value` or `--name=value`, `-h` or
`--help` prints the usage, and a line the table does not admit exits 2.
Each verb returns its document and `main` is the only writer: it writes
it at once, so a failed call leaves stdout empty, and it prints integers
of any size.  Exit codes: 0 success, 1 the result could not be written,
2 validation error, 3 internal consistency failure; a closed or full
stderr loses the message, not the code.  A verb imports only
the modules it uses, and none loads argparse or json.  `main` is the
in-process entry and never freezes the heap, so a caller's objects stay
collectable; the process entry, `phicong.__main__.run`, freezes the
start-up heap and then calls it.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .errors import DomainError, InternalConsistencyError, PhicongError

#: Largest ``qexp --terms``: about 8 s for --level 13, the slowest to 15.
#: The time grows about as terms^2 times the bits of the level, so a level
#: of b > 4 bits admits the terms with terms^2 * b <= MAX_TERMS^2 * 4.
MAX_TERMS = 750
#: Largest ``divpoly --level``: on a 2-vCPU host --level 42 takes 1.3-2.0 s
#: plain or with --profile 5; the output grows about as N^4 (3.4 MB at 42).
MAX_LEVEL = 42
#: Largest p of the Grassmannian verbs.  No call builds a matrix or
#: allocates per point of X(F_p); what grows with p is the factorization
#: of p - 1, by trial division, for the order of x or of x^2.  The
#: library's surjectivity_verdict and cusp data read no ceiling.
MAX_P = 113


def option(args, name: str, rule: str):
    """The value of --name, which rule (say "--spec gp") requires."""
    value = getattr(args, name)
    if value is None:
        raise DomainError(f"{rule} requires --{name}")
    return value


def unread(args, rule: str, *names: str) -> None:
    """DomainError if an option among names, which rule does not read, is given."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:
            raise DomainError(f"{rule} takes no --{name.replace('_', '-')}")


#: --spec name -> (SubgroupSpec kind, the option that carries its parameter)
SPEC_NAMES = {
    "gamma-prime": ("GammaPrime", None),
    "gamma-double-prime": ("GammaDoublePrime", None),
    "gamma-prime-n": ("GammaPrimeN", "n"),
    "gp": ("Gp", "p"),
    "phicong": ("PhiCong", "n"),
}


#: verb -> (family, summary, {--name: (kind, default)}), the grammar and
#: the help.  The handler of a verb is cmd_VERB in the module cli_FAMILY,
#: imported once its command line has parsed.  A kind is int, str, a tuple
#: of choices or bool (a flag); the default ... marks a required option, or
#: a mode among required flags.
_VERBS = {
    "qexp": ("unipotent", "q-expansion of xtilde", {
        "level": (int, ...), "terms": (int, 6), "denominators": (bool, False),
        "format": (("json", "csv"), "json")}),
    "divpoly": ("unipotent", "division polynomials", {
        "level": (int, ...), "rescaled": (bool, False), "profile": (int, None)}),
    "member": ("unipotent", "subgroup membership of a word", {"word": (str, ...),
        "spec": (tuple(sorted(SPEC_NAMES)), ...), "n": (int, None), "p": (int, None)}),
    "grassmannian": ("symplectic", "Lagrangian Grassmannian actions", {
        "p": (int, ...), "x": (int, ...), **dict.fromkeys(
            ("epsilons", "cycles", "surjectivity", "lift-check"), (bool, ...))}),
    "genus": ("symplectic", "genus of the point stabilizer", {"p": (int, ...)}),
    "cusps": ("symplectic", "cusp data", {"p": (int, ...), "x": (int, None),
        "oracle": (("character", "cycles"), "character")}),
    "dims": ("symplectic", "dimension formulas", {
        "family": (("unipotent", "gp"), ...), "k": (int, ...),
        "index": (int, None), "p": (int, None),
        "nontrivial-character": (bool, False)}),
}


def _usage(verb: str | None) -> str:
    """The help of verb, or of every verb, read off the verb table."""
    text = "usage: phicong VERB [--name value | --name=value]...\n"
    for name in [verb] if verb else _VERBS:
        text += f"\n{name}: {_VERBS[name][1]}\n" + "".join(
            f"  --{opt}" + ("" if kind is bool else " " + (
                "|".join(kind) if isinstance(kind, tuple) else kind.__name__.upper()))
            + {...: "  (required)" if kind is not bool else "  (mode: give one)",
               None: "", False: ""}.get(d, f"  (default {d})")
            + "\n" for opt, (kind, d) in _VERBS[name][2].items())
    return text


def parse_args(argv: list[str]):
    """(handler, arguments) of a command line by the verb table, or DomainError;
    -h or --help gives the handler that returns the usage, and its verb."""
    if not argv or argv[0] not in _VERBS:
        if argv[:1] in (["-h"], ["--help"]):
            return _usage, None
        raise DomainError(f"expected a verb, one of {', '.join(_VERBS)}"
                          + (f"; got {argv[0]!r}" if argv else ""))
    verb, rest = argv[0], iter(argv[1:])
    family, _, opts = _VERBS[verb]
    args = {n: False if kind is bool else d for n, (kind, d) in opts.items()}
    for arg in rest:
        if arg in ("-h", "--help"):
            return _usage, verb
        name, eq, value = arg.partition("=")
        kind = opts[name[2:]][0] if name[:2] == "--" and name[2:] in opts else None
        if kind is None or (kind is bool and eq):
            raise DomainError(f"{verb}: unrecognized argument {arg!r}")
        value = True if kind is bool else value if eq else next(rest, None)
        if value is None:
            raise DomainError(f"{name} needs a value")
        if kind is int:
            # an optional '-' and ASCII digits, as a word's exponent
            try:
                if not (value.isascii() and value.removeprefix("-").isdigit()):
                    raise ValueError
                value = int(value)
            except ValueError:
                raise DomainError(f"{name} takes an integer, got {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise DomainError(f"{name} takes one of {', '.join(kind)}, got {value!r}")
        args[name[2:]] = value
    modes = [n for n, (kind, d) in opts.items() if kind is bool and d is ...]
    missing = [n for n, v in args.items() if v is ...]
    if missing or (modes and sum(args[n] for n in modes) != 1):
        raise DomainError(f"{verb} requires --{' --'.join(missing)}" if missing else
                          f"{verb} takes exactly one of --{' --'.join(modes)}")
    if family == "unipotent":
        from . import cli_unipotent as handlers
    else:
        from . import cli_symplectic as handlers
    return (getattr(handlers, f"cmd_{verb}"),
            SimpleNamespace(**{n.replace("-", "_"): v for n, v in args.items()}))


def _json(doc, indent: str = "\n") -> str:
    """json.dumps(doc, indent=2) without json for str-keyed dicts, lists,
    tuples, ints, bools, None and printable-ASCII strings with no '"' or '\\'."""
    inner = indent + "  "
    if isinstance(doc, dict):
        return "{" + ",".join(f"{inner}{_json(k)}: {_json(v, inner)}"
                              for k, v in doc.items()) + indent + "}" if doc else "{}"
    if isinstance(doc, (list, tuple)):
        return "[" + ",".join(inner + _json(v, inner) for v in doc) + indent + "]" \
            if doc else "[]"
    if doc is None or isinstance(doc, int):      # str(True).lower() == "true"
        return "null" if doc is None else str(doc).lower()
    if (isinstance(doc, str) and doc.isascii() and doc.isprintable()
            and '"' not in doc and "\\" not in doc):
        return f'"{doc}"'
    import json
    return json.dumps(doc)


def _complain(message: str) -> None:
    """Print message on stderr; a closed or full stderr loses it, not the code."""
    if sys.stderr is not None:              # started with no stderr (2>&-)
        try:
            print(message, file=sys.stderr, flush=True)
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    # an exact result may have more digits than the 4300 that CPython
    # (3.10.7 and later) converts to str by default; the limit is lifted
    # only after parsing, so a longer argument still exits 2
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        if saved is not None:
            sys.set_int_max_str_digits(0)
        doc = handler(args)
        text = doc if isinstance(doc, str) else _json(doc) + "\n"
        try:
            if sys.stdout is None:          # started with no stdout (>&-)
                raise OSError("stdout is closed")
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # what is left in its buffer would fail again at exit
            sys.stdout = None
            _complain(f"error: cannot write the result: {exc}")
            return 1
        return 0
    except InternalConsistencyError as exc:
        _complain(f"internal consistency failure: {exc}")
        return 3
    except PhicongError as exc:
        _complain(f"error: {exc}")
        return 2 if isinstance(exc, DomainError) else 3
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
