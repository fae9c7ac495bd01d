"""The verbs of the quasi-unipotent family: qexp, divpoly and member.

cli imports this module once a command line for one of them has parsed;
each handler takes the parsed arguments and returns its document.
"""

from __future__ import annotations

import math

from .cli import MAX_LEVEL, MAX_TERMS, SPEC_NAMES, option, unread
from .errors import DomainError


def _poly_json(poly) -> list[str]:
    return [str(c) for c in poly]


def cmd_qexp(args) -> dict | str:
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


def cmd_divpoly(args) -> dict:
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


def cmd_member(args) -> dict:
    kind, name = SPEC_NAMES[args.spec]
    unread(args, f"--spec {args.spec}", *(n for n in ("n", "p") if n != name))
    from .words import SubgroupSpec, parse_word, subgroup_member
    spec = SubgroupSpec(kind, option(args, name, f"--spec {args.spec}")
                        if name else None)
    w = parse_word(args.word)
    return {"spec": args.spec, "n": args.n, "p": args.p,
            "word": args.word, "member": subgroup_member(w, spec)}
