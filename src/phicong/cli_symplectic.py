"""The verbs of the symplectic family: grassmannian, genus and cusps, and
dims, whose formulas cover both families from invariants.

cli imports this module once a command line for one of them has parsed;
each handler takes the parsed arguments and returns its document.  The
library modules load inside the handlers, after the checks that refuse
an input, so a refusal loads no matrix code.
"""

from __future__ import annotations

from .cli import MAX_P, option, unread
from .errors import DomainError


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


def cmd_grassmannian(args) -> dict:
    from .rationals import SpParams, elliptic_counts
    head = {"p": args.p, "x": args.x}
    if args.lift_check:
        params = SpParams(args.p, args.x)
        from .invariants import lift_witness_mod_p2
        return {**head, "liftWitness": lift_witness_mod_p2(params)}
    params = _sp_params(args.p, args.x)
    if args.cycles:
        from .invariants import cusp_data_cycles
        return {**head, **_cusp_doc(cusp_data_cycles(params))}
    eps = dict(zip(("epsilon2", "epsilon3"), elliptic_counts(args.p)))
    if args.epsilons:
        return {**head, **eps}
    from .invariants import surjectivity_verdict
    v = surjectivity_verdict(params)
    return {**head, "orderT": v.order_T, "permGroupOrder": str(v.perm_group_order),
            "surjectivePSp4": v.surjective_psp4, **eps}


def cmd_genus(args) -> dict:
    from .rationals import require_prime
    require_prime(args.p, 7)
    from .invariants import cusp_data_character, elliptic_counts, genus_pointstab
    eps2, eps3 = elliptic_counts(args.p)
    return {"p": args.p, "epsilon2": eps2, "epsilon3": eps3,
            "cusps": _cusp_doc(cusp_data_character(args.p)),
            "genus": genus_pointstab(args.p)}


def cmd_cusps(args) -> dict:
    params = (_sp_params(args.p, option(args, "x", "--oracle cycles"))
              if args.oracle == "cycles" else None)
    if params is None:
        if args.x is not None:
            raise DomainError("cusps takes --x only with --oracle cycles")
        from .rationals import require_prime
        require_prime(args.p, 7)
    from .invariants import cusp_data_character, cusp_data_cycles
    data = cusp_data_character(args.p) if params is None else cusp_data_cycles(params)
    return {"p": args.p, "oracle": args.oracle, **_cusp_doc(data)}


def cmd_dims(args) -> dict:
    from .invariants import dims_Gp, dims_unipotent
    if args.family == "unipotent":
        unread(args, "--family unipotent", "p")
        d = dims_unipotent(args.k, option(args, "index", "--family unipotent"),
                           not args.nontrivial_character)
        return {"family": "unipotent", "k": args.k, "index": args.index,
                "characterTrivial": not args.nontrivial_character,
                "dimM": d.dim_M, "dimMPerCharacter": d.dim_M_char,
                "dimSPerCharacter": d.dim_S_char,
                "dimEisPerCharacter": d.dim_eis_char}
    unread(args, "--family gp", "index", "nontrivial_character")
    d = dims_Gp(args.k, option(args, "p", "--family gp"))
    return {"family": "gp", "k": args.k, "p": args.p, "dimM": d.dim_M,
            "genus": d.genus, "cusps": d.cusps,
            "ellipticOrder2": d.elliptic2}
