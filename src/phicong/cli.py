"""Command-line front end.

Thin adapters over the library modules; all output is machine readable
(JSON by default, CSV for series).  Exit codes: 0 success, 2 validation
error, 3 internal consistency failure.  Each verb imports the modules it
uses, so a verb loads nothing that only another verb needs.  numpy loads
only for the exact group order of `grassmannian --surjectivity` when the
matrix certificate finds no proof.
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


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _poly_json(poly) -> List[str]:
    return [str(c) for c in poly.coeffs]


def _cmd_qexp(args) -> int:
    most = math.isqrt(MAX_TERMS ** 2 * 4 // max(4, args.level.bit_length()))
    need = max(args.terms, 30 if args.denominators else 0)
    if args.terms < 1 or need > most:
        raise DomainError(f"--level {args.level} admits 1 to {most} terms "
                          f"(--denominators takes 30), got --terms {args.terms}")
    # an exact coefficient at a large level has more digits than the 4300
    # that CPython (3.10.7 and later) converts to str by default
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _write_qexp(args, need)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def _write_qexp(args, need: int) -> int:
    from .qexp import denominator_report, xtilde
    from .rationals import format_fraction
    prec = max(17, 6 * need - 7)
    xt = xtilde(args.level, prec)
    terms = xt.items()[:args.terms]
    if args.format == "csv":
        sys.stdout.write("exp,numerator,denominator\n")
        for e, c in terms:
            sys.stdout.write(f"{e},{c.numerator},{c.denominator}\n")
        return 0
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
    _emit(doc)
    return 0


def _cmd_divpoly(args) -> int:
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
    _emit(doc)
    return 0


_SPEC_NAMES = {
    "gamma-prime": "GammaPrime",
    "gamma-double-prime": "GammaDoublePrime",
    "gamma-prime-n": "GammaPrimeN",
    "gp": "Gp",
    "phicong": "PhiCong",
}


def _cmd_member(args) -> int:
    from .words import SubgroupSpec, parse_word, subgroup_member
    kind = _SPEC_NAMES[args.spec]
    if kind in ("GammaPrimeN", "PhiCong"):
        if args.n is None:
            raise DomainError(f"--spec {args.spec} requires --n")
        spec = SubgroupSpec(kind, args.n)
    elif kind == "Gp":
        if args.p is None:
            raise DomainError("--spec gp requires --p")
        spec = SubgroupSpec(kind, args.p)
    else:
        spec = SubgroupSpec(kind)
    w = parse_word(args.word)
    _emit({"spec": args.spec, "n": args.n, "p": args.p,
           "word": args.word, "member": subgroup_member(w, spec)})
    return 0


def _cmd_grassmannian(args) -> int:
    from .symplectic import (SpParams, fixed_points, grassmannian_size,
                             lift_witness_mod_p2, permutation, require_memory,
                             rho_matrices, surjectivity_verdict)
    if not args.lift_check:             # the size check comes before primality
        require_memory(grassmannian_size(args.p))
    params = SpParams(args.p, args.x)
    if args.surjectivity or args.epsilons:
        perm_s, perm_t = map(permutation, rho_matrices(params))
        # rho(ST) acts as rho(S) after rho(T)
        eps = {"epsilon2": fixed_points(perm_s),
               "epsilon3": fixed_points(map(perm_s.__getitem__, perm_t))}
    if args.surjectivity:
        v = surjectivity_verdict(params, perm_s, perm_t)
        _emit({"p": v.p, "x": v.x, "orderT": v.order_T,
               "permGroupOrder": str(v.perm_group_order),
               "surjectivePSp4": v.surjective_psp4, **eps})
    elif args.epsilons:
        _emit({"p": args.p, "x": args.x, **eps})
    elif args.cycles:
        from .invariants import cusp_data_cycles
        data = cusp_data_cycles(permutation(rho_matrices(params)[1]))
        _emit({"p": args.p, "x": args.x, "total": data.total,
               "widths": {str(w): m for w, m in sorted(data.widths.items())}})
    elif args.lift_check:
        _emit({"p": args.p, "x": args.x,
               "liftWitness": lift_witness_mod_p2(params)})
    return 0


def _cmd_genus(args) -> int:
    from .invariants import cusp_data_character, elliptic_counts, genus_pointstab
    eps2, eps3 = elliptic_counts(args.p)
    cd = cusp_data_character(args.p)
    _emit({"p": args.p, "epsilon2": eps2, "epsilon3": eps3,
           "cusps": {"total": cd.total,
                     "widths": {str(w): m for w, m in sorted(cd.widths.items())}},
           "genus": genus_pointstab(args.p)})
    return 0


def _cmd_cusps(args) -> int:
    from .invariants import cusp_data_character, cusp_data_cycles
    if args.oracle == "cycles":
        if args.x is None:
            raise DomainError("--oracle cycles requires --x")
        from .symplectic import (SpParams, grassmannian_size, permutation,
                                 require_memory, rho_matrices)
        require_memory(grassmannian_size(args.p))
        data = cusp_data_cycles(permutation(rho_matrices(SpParams(args.p, args.x))[1]))
    else:
        data = cusp_data_character(args.p)
    _emit({"p": args.p, "oracle": args.oracle, "total": data.total,
           "widths": {str(w): m for w, m in sorted(data.widths.items())}})
    return 0


def _cmd_dims(args) -> int:
    from .invariants import dims_Gp, dims_unipotent
    if args.family == "unipotent":
        if args.index is None:
            raise DomainError("--family unipotent requires --index")
        d = dims_unipotent(args.k, args.index, not args.nontrivial_character)
        _emit({"family": "unipotent", "k": d.k, "index": d.index,
               "characterTrivial": d.character_trivial,
               "dimM": d.dim_M, "dimMPerCharacter": d.dim_M_char,
               "dimSPerCharacter": d.dim_S_char,
               "dimEisPerCharacter": d.dim_eis_char})
    else:
        if args.p is None:
            raise DomainError("--family gp requires --p")
        d = dims_Gp(args.k, args.p)
        _emit({"family": "gp", "k": d.k, "p": d.p, "dimM": d.dim_M,
               "genus": d.genus, "cusps": d.cusps,
               "ellipticOrder2": d.elliptic2})
    return 0


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
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhicongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
