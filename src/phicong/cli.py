"""Command-line front end.

Thin adapters over the library modules; all output is machine readable
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

import math
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
#: Largest p of the Grassmannian verbs.  No call allocates per point of
#: X(F_p); what grows with p is the factorization of p(p - 1) and, on the
#: cycle route only, the O(p) scan of F_p* in rationals.roots_mod_p.  The
#: library's surjectivity_verdict reads no ceiling.
MAX_P = 113


def _poly_json(poly) -> list[str]:
    return [str(c) for c in poly]


def _option(args, name: str, rule: str):
    """The value of --name, which rule (say "--spec gp") requires."""
    value = getattr(args, name)
    if value is None:
        raise DomainError(f"{rule} requires --{name}")
    return value


def _unread(args, rule: str, *names: str) -> None:
    """DomainError if an option among names, which rule does not read, is given."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:
            raise DomainError(f"{rule} takes no --{name.replace('_', '-')}")


def _cmd_qexp(args) -> dict | str:
    if args.denominators and args.format == "csv":
        raise DomainError("--denominators cannot be written as --format csv")
    most = math.isqrt(MAX_TERMS ** 2 * 4 // max(4, args.level.bit_length()))
    need = max(args.terms, 30 if args.denominators else 0)
    if args.terms < 1 or need > most:
        raise DomainError(f"--level {args.level} admits 1 to {most} terms "
                          f"(--denominators takes 30), got --terms {args.terms}")
    from .qexp import denominator_report, xtilde_terms
    prec = max(17, 6 * need - 7)
    terms = xtilde_terms(args.level, prec)[:args.terms]
    if args.format == "csv":
        return "exp,numerator,denominator\n" + "".join(
            f"{e},{num},{den}\n" for e, num, den in terms)
    doc = {"N": args.level, "prec": prec, "terms": [
        {"exp": e, "coeff": f"{num}/{den}" if den > 1 else str(num)}
        for e, num, den in terms]}
    if args.denominators:
        doc["denominators"] = [{
            "p": r.p, "minValuations": list(r.min_vals), "integral": r.integral,
            "expectedIntegral": r.expected_integral,
            "unboundedTrend": r.unbounded_trend, "boundOk": r.bound_ok,
        } for r in denominator_report(args.level, prec)]
    return doc


def _cmd_divpoly(args) -> dict:
    if args.level > MAX_LEVEL:
        raise DomainError(f"N must be at most {MAX_LEVEL}, got {args.level}")
    from .divpoly import division_polynomials, reduction_profile, rescaled
    doc = {"N": args.level}
    if args.rescaled:
        psi_hat, phi_hat = rescaled(args.level)
        doc["psiHat"] = _poly_json(psi_hat)
        doc["phiHat"] = _poly_json(phi_hat)
    else:
        triple = division_polynomials(args.level)
        doc["psiSq"] = _poly_json(triple.psiSq)
        doc["phiPol"] = _poly_json(triple.phiPol)
        doc["omega"] = {"coeffs": _poly_json(triple.omega[0]),
                        "yParity": triple.omega[1]}
    if args.profile is not None:
        prof = reduction_profile(args.level, args.profile)
        doc["profile"] = {
            "p": args.profile,
            "r": prof.r,
            "psiSqValuations": prof.psi_sq_valuations,
            "supersingular": prof.supersingular,
            "supersingularConst": prof.supersingular_const,
            "ordinaryTail": prof.ordinary_tail,
            "topValuations2r": prof.top_valuations_2r,
        }
    return doc


#: --spec name -> (SubgroupSpec kind, the option that carries its parameter)
_SPEC_NAMES = {
    "gamma-prime": ("GammaPrime", None),
    "gamma-double-prime": ("GammaDoublePrime", None),
    "gamma-prime-n": ("GammaPrimeN", "n"),
    "gp": ("Gp", "p"),
    "phicong": ("PhiCong", "n"),
}


def _cmd_member(args) -> dict:
    kind, name = _SPEC_NAMES[args.spec]
    _unread(args, f"--spec {args.spec}", *(n for n in ("n", "p") if n != name))
    from .words import SubgroupSpec, parse_word, subgroup_member
    spec = SubgroupSpec(kind, _option(args, name, f"--spec {args.spec}")
                        if name else None)
    w = parse_word(args.word)
    return {"spec": args.spec, "n": args.n, "p": args.p,
            "word": args.word, "member": subgroup_member(w, spec)}


def _sp_params(p: int, x: int):
    """SpParams(p, x) for a verb on X(F_p), once p is at most MAX_P: the
    ceiling comes before anything that grows with p runs."""
    if p > MAX_P:
        raise DomainError(f"the Lagrangian Grassmannian takes a prime "
                          f"p <= {MAX_P}, got {p}")
    from .rationals import SpParams
    return SpParams(p, x)


def _cusp_doc(data) -> dict:
    return {"total": data.total,
            "widths": {str(w): m for w, m in sorted(data.widths.items())}}


def _cmd_grassmannian(args) -> dict:
    from .rationals import SpParams, elliptic_counts
    head = {"p": args.p, "x": args.x}
    if args.lift_check:
        params = SpParams(args.p, args.x)
        from .symplectic import lift_witness_mod_p2
        return {**head, "liftWitness": lift_witness_mod_p2(params)}
    params = _sp_params(args.p, args.x)
    if args.cycles:
        from .invariants import cusp_data_cycles
        return {**head, **_cusp_doc(cusp_data_cycles(params))}
    eps = dict(zip(("epsilon2", "epsilon3"), elliptic_counts(args.p)))
    if args.epsilons:
        return {**head, **eps}
    from .symplectic import surjectivity_verdict
    v = surjectivity_verdict(params)
    return {**head, "orderT": v.order_T, "permGroupOrder": str(v.perm_group_order),
            "surjectivePSp4": v.surjective_psp4, **eps}


def _cmd_genus(args) -> dict:
    from .invariants import cusp_data_character, elliptic_counts, genus_pointstab
    eps2, eps3 = elliptic_counts(args.p)
    return {"p": args.p, "epsilon2": eps2, "epsilon3": eps3,
            "cusps": _cusp_doc(cusp_data_character(args.p)),
            "genus": genus_pointstab(args.p)}


def _cmd_cusps(args) -> dict:
    params = (_sp_params(args.p, _option(args, "x", "--oracle cycles"))
              if args.oracle == "cycles" else None)
    if params is None and args.x is not None:
        raise DomainError("cusps takes --x only with --oracle cycles")
    from .invariants import cusp_data_character, cusp_data_cycles
    data = cusp_data_character(args.p) if params is None else cusp_data_cycles(params)
    return {"p": args.p, "oracle": args.oracle, **_cusp_doc(data)}


def _cmd_dims(args) -> dict:
    from .invariants import dims_Gp, dims_unipotent
    if args.family == "unipotent":
        _unread(args, "--family unipotent", "p")
        d = dims_unipotent(args.k, _option(args, "index", "--family unipotent"),
                           not args.nontrivial_character)
        return {"family": "unipotent", "k": args.k, "index": args.index,
                "characterTrivial": not args.nontrivial_character,
                "dimM": d.dim_M, "dimMPerCharacter": d.dim_M_char,
                "dimSPerCharacter": d.dim_S_char,
                "dimEisPerCharacter": d.dim_eis_char}
    _unread(args, "--family gp", "index", "nontrivial_character")
    d = dims_Gp(args.k, _option(args, "p", "--family gp"))
    return {"family": "gp", "k": args.k, "p": args.p, "dimM": d.dim_M,
            "genus": d.genus, "cusps": d.cusps,
            "ellipticOrder2": d.elliptic2}


#: verb -> (handler, summary, {--name: (kind, default)}), the grammar and
#: the help.  A kind is int, str, a tuple of choices or bool (a flag); the
#: default ... marks a required option, or a mode among required flags.
_VERBS = {
    "qexp": (_cmd_qexp, "q-expansion of xtilde", {
        "level": (int, ...), "terms": (int, 6), "denominators": (bool, False),
        "format": (("json", "csv"), "json")}),
    "divpoly": (_cmd_divpoly, "division polynomials", {
        "level": (int, ...), "rescaled": (bool, False), "profile": (int, None)}),
    "member": (_cmd_member, "subgroup membership of a word", {"word": (str, ...),
        "spec": (tuple(sorted(_SPEC_NAMES)), ...), "n": (int, None), "p": (int, None)}),
    "grassmannian": (_cmd_grassmannian, "Lagrangian Grassmannian actions", {
        "p": (int, ...), "x": (int, ...), **dict.fromkeys(
            ("epsilons", "cycles", "surjectivity", "lift-check"), (bool, ...))}),
    "genus": (_cmd_genus, "genus of the point stabilizer", {"p": (int, ...)}),
    "cusps": (_cmd_cusps, "cusp data", {"p": (int, ...), "x": (int, None),
        "oracle": (("character", "cycles"), "character")}),
    "dims": (_cmd_dims, "dimension formulas", {
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
    handler, _, opts = _VERBS[verb]
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
            try:
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
    return handler, SimpleNamespace(**{n.replace("-", "_"): v for n, v in args.items()})


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
