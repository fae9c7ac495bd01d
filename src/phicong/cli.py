"""Command-line front end.

Thin adapters over the library modules; all output is machine readable
(JSON by default, CSV for series).  Each verb returns its document and
`main` is the only writer: it writes the whole document at once, so a
failed call leaves nothing on stdout, and it prints integers of any
size.  Exit codes: 0 success, 2 validation error, 3 internal consistency
failure.  Each verb imports the modules it uses, so a verb loads nothing
that only another verb needs.  numpy loads only for the exact group
order of `grassmannian --surjectivity` when the matrix certificate finds
no proof.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from .errors import DomainError, InternalConsistencyError, PhicongError

#: Largest ``qexp --terms``: about 10 s for --level 10 on a 2-vCPU host.
#: The time grows about as terms^2 times the bits of the level, so a level
#: of b > 4 bits admits the terms with terms^2 * b <= MAX_TERMS^2 * 4.
MAX_TERMS = 450


def _poly_json(poly) -> List[str]:
    return [str(c) for c in poly.coeffs]


def _option(args, name: str, rule: str):
    """The value of --name, which rule (say "--spec gp") requires."""
    value = getattr(args, name)
    if value is None:
        raise DomainError(f"{rule} requires --{name}")
    return value


def _cmd_qexp(args) -> dict | str:
    most = math.isqrt(MAX_TERMS ** 2 * 4 // max(4, args.level.bit_length()))
    need = max(args.terms, 30 if args.denominators else 0)
    if args.terms < 1 or need > most:
        raise DomainError(f"--level {args.level} admits 1 to {most} terms "
                          f"(--denominators takes 30), got --terms {args.terms}")
    from .qexp import denominator_report, xtilde
    from .rationals import format_fraction
    prec = max(17, 6 * need - 7)
    xt = xtilde(args.level, prec)
    terms = xt.items()[:args.terms]
    if args.format == "csv":
        return "exp,numerator,denominator\n" + "".join(
            f"{e},{c.numerator},{c.denominator}\n" for e, c in terms)
    doc = {
        "N": args.level,
        "prec": xt.prec,
        "terms": [{"exp": e, "coeff": format_fraction(c)} for e, c in terms],
    }
    if args.denominators:
        rep = denominator_report(args.level, prec)
        doc["denominators"] = [
            {
                "p": r.p,
                "minValuations": list(r.min_vals),
                "integral": r.integral,
                "expectedIntegral": r.expected_integral,
                "unboundedTrend": r.unbounded_trend,
                "boundOk": r.bound_ok,
            }
            for r in rep.primes
        ]
    return doc


def _cmd_divpoly(args) -> dict:
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
            "p": prof.p,
            "r": prof.r,
            "psiSqValuations": [None if v == float("inf") else v
                                for v in prof.psi_sq_valuations],
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
    from .words import SubgroupSpec, parse_word, subgroup_member
    kind, name = _SPEC_NAMES[args.spec]
    spec = SubgroupSpec(kind, _option(args, name, f"--spec {args.spec}")
                        if name else None)
    w = parse_word(args.word)
    return {"spec": args.spec, "n": args.n, "p": args.p,
            "word": args.word, "member": subgroup_member(w, spec)}


def _sp_params(p: int, x: int):
    """SpParams(p, x) for a verb on the (p^2+1)(p+1) points of X(F_p): the
    memory estimate of the uncertified --surjectivity comes before the
    primality test, so a large prime is refused at once, by every such
    verb while primality is tested by trial division."""
    from .symplectic import SpParams, grassmannian_size, require_memory
    require_memory(grassmannian_size(p))
    return SpParams(p, x)


def _cusp_doc(data) -> dict:
    return {"total": data.total,
            "widths": {str(w): m for w, m in sorted(data.widths.items())}}


def _cycle_cusps(p: int, x: int) -> dict:
    """The cusp document of the cycle type of rho(T) on X(F_p), from the
    Lagrangians that each power of rho(T) fixes."""
    from .invariants import cusp_data_fixed
    from .symplectic import fixed_lagrangians, rho_matrices
    T4 = rho_matrices(_sp_params(p, x))[1]
    return _cusp_doc(cusp_data_fixed(p, lambda d: fixed_lagrangians(T4 ** d)))


def _cmd_grassmannian(args) -> dict:
    head = {"p": args.p, "x": args.x}
    if args.lift_check:
        from .symplectic import SpParams, lift_witness_mod_p2
        return {**head, "liftWitness": lift_witness_mod_p2(SpParams(args.p, args.x))}
    if args.cycles:
        return {**head, **_cycle_cusps(args.p, args.x)}
    from .symplectic import fixed_lagrangians, rho_matrices, surjectivity_verdict
    params = _sp_params(args.p, args.x)
    S4, T4 = rho_matrices(params)
    eps = {"epsilon2": fixed_lagrangians(S4),
           "epsilon3": fixed_lagrangians(S4 * T4)}
    if args.epsilons:
        return {**head, **eps}
    v = surjectivity_verdict(params)
    return {"p": v.p, "x": v.x, "orderT": v.order_T,
            "permGroupOrder": str(v.perm_group_order),
            "surjectivePSp4": v.surjective_psp4, **eps}


def _cmd_genus(args) -> dict:
    from .invariants import cusp_data_character, elliptic_counts, genus_pointstab
    eps2, eps3 = elliptic_counts(args.p)
    return {"p": args.p, "epsilon2": eps2, "epsilon3": eps3,
            "cusps": _cusp_doc(cusp_data_character(args.p)),
            "genus": genus_pointstab(args.p)}


def _cmd_cusps(args) -> dict:
    head = {"p": args.p, "oracle": args.oracle}
    if args.oracle == "cycles":
        return {**head, **_cycle_cusps(args.p, _option(args, "x", "--oracle cycles"))}
    from .invariants import cusp_data_character
    return {**head, **_cusp_doc(cusp_data_character(args.p))}


def _cmd_dims(args) -> dict:
    from .invariants import dims_Gp, dims_unipotent
    if args.family == "unipotent":
        d = dims_unipotent(args.k, _option(args, "index", "--family unipotent"),
                           not args.nontrivial_character)
        return {"family": "unipotent", "k": d.k, "index": d.index,
                "characterTrivial": d.character_trivial,
                "dimM": d.dim_M, "dimMPerCharacter": d.dim_M_char,
                "dimSPerCharacter": d.dim_S_char,
                "dimEisPerCharacter": d.dim_eis_char}
    d = dims_Gp(args.k, _option(args, "p", "--family gp"))
    return {"family": "gp", "k": d.k, "p": d.p, "dimM": d.dim_M,
            "genus": d.genus, "cusps": d.cusps,
            "ellipticOrder2": d.elliptic2}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phicong",
        description="Exact computations for two families of phi-congruence "
                    "subgroups of the modular group.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_qexp = sub.add_parser("qexp", help="q-expansion of xtilde")
    p_qexp.add_argument("--level", type=int, required=True)
    p_qexp.add_argument("--terms", type=int, default=6)
    p_qexp.add_argument("--denominators", action="store_true")
    p_qexp.add_argument("--format", choices=["json", "csv"], default="json")
    p_qexp.set_defaults(func=_cmd_qexp)

    p_div = sub.add_parser("divpoly", help="division polynomials")
    p_div.add_argument("--level", type=int, required=True)
    p_div.add_argument("--rescaled", action="store_true")
    p_div.add_argument("--profile", type=int, default=None, metavar="P")
    p_div.set_defaults(func=_cmd_divpoly)

    p_mem = sub.add_parser("member", help="subgroup membership of a word")
    p_mem.add_argument("--spec", choices=sorted(_SPEC_NAMES), required=True)
    p_mem.add_argument("--n", type=int, default=None)
    p_mem.add_argument("--p", type=int, default=None)
    p_mem.add_argument("--word", required=True)
    p_mem.set_defaults(func=_cmd_member)

    p_gr = sub.add_parser("grassmannian", help="Lagrangian Grassmannian actions")
    p_gr.add_argument("--p", type=int, required=True)
    p_gr.add_argument("--x", type=int, required=True)
    mode = p_gr.add_mutually_exclusive_group(required=True)
    mode.add_argument("--epsilons", action="store_true")
    mode.add_argument("--cycles", action="store_true")
    mode.add_argument("--surjectivity", action="store_true")
    mode.add_argument("--lift-check", action="store_true")
    p_gr.set_defaults(func=_cmd_grassmannian)

    p_gen = sub.add_parser("genus", help="genus of the point stabilizer")
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.set_defaults(func=_cmd_genus)

    p_cusp = sub.add_parser("cusps", help="cusp data")
    p_cusp.add_argument("--p", type=int, required=True)
    p_cusp.add_argument("--oracle", choices=["character", "cycles"],
                        default="character")
    p_cusp.add_argument("--x", type=int, default=None)
    p_cusp.set_defaults(func=_cmd_cusps)

    p_dims = sub.add_parser("dims", help="dimension formulas")
    p_dims.add_argument("--family", choices=["unipotent", "gp"], required=True)
    p_dims.add_argument("--k", type=int, required=True)
    p_dims.add_argument("--index", type=int, default=None)
    p_dims.add_argument("--p", type=int, default=None)
    p_dims.add_argument("--nontrivial-character", action="store_true")
    p_dims.set_defaults(func=_cmd_dims)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    # an exact result may have more digits than the 4300 that CPython
    # (3.10.7 and later) converts to str by default; the limit is lifted
    # only after parsing, so a longer argument still exits 2
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        doc = args.func(args)
        sys.stdout.write(doc if isinstance(doc, str)
                         else json.dumps(doc, indent=2) + "\n")
        return 0
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhicongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
