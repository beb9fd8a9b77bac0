"""Command-line front end.

One subcommand per operation family, stable machine-readable output via
--machine (JSON without timing, byte-identical across runs for identical
inputs).  Exit codes: 0 success with all requested verdicts true, 1
computation error or false verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import BoundExceededError, ClosureCapError, InvForgeError
from .fields import FieldSpec, parse_field_spec
from .cohomology import h1_classes, load_action_file, square_class_forms
from .geometry import (check_claim_51, check_parabolic_claim,
                       perm_module_irreducible, projective_fixed_points,
                       rank_obstruction)
from .groups import (DEFAULT_AUT_BOUND, close_group, is_absolutely_irreducible,
                     is_diagonalizable_over_k, load_group_file,
                     pseudo_reflections)
from .invariants import (check_degree_bound, find_relation, hilbert_dims,
                         minimal_generators, molien_series,
                         scaled_torus_exponents)
from .normalizer import normalizer_report
from .poly import parse_polynomial
from . import corpus


def build_parser():
    # --machine is accepted before and after the subcommand.  Without
    # SUPPRESS the subcommand's parser would write its default (False) over
    # a --machine given before the subcommand; main() supplies the default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--machine", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit stable machine-readable JSON")
    parser = argparse.ArgumentParser(
        prog="invforge",
        parents=[common],
        description="Exact invariant rings of finite matrix groups: generators, "
                    "graded automorphism data, finite-geometry multiplicity "
                    "checks, and cocycle-enumerated H^1.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("info", parents=[common],
                       help="order, center, reflections, irreducibility")
    p.add_argument("--group", required=True)

    p = sub.add_parser("hilbert", parents=[common],
                       help="dimension table of the invariant ring")
    p.add_argument("--group", required=True)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("molien", parents=[common],
                       help="Molien series coefficients (char 0)")
    p.add_argument("--group", required=True)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("generators", parents=[common],
                       help="minimal generators and degree gcd")
    p.add_argument("--group", required=True)
    p.add_argument("--max-degree", type=int, default=None)

    p = sub.add_parser("relation", parents=[common],
                       help="lowest-degree relation among generators")
    p.add_argument("--group", required=True)
    p.add_argument("--wdeg-max", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None,
                   help="generator search bound (defaults to |G|)")

    p = sub.add_parser("normalizer", parents=[common],
                       help="commutant, torus, realized outer classes")
    p.add_argument("--group", required=True)
    p.add_argument("--aut-bound", type=int, default=None)

    p = sub.add_parser("fixed-points", parents=[common],
                       help="projective fixed points over the field")
    p.add_argument("--group", required=True)

    p = sub.add_parser("rank", parents=[common],
                       help="elementary abelian rank obstruction")
    p.add_argument("--group", required=True)
    p.add_argument("--ell", type=int, required=True)

    p = sub.add_parser("permmod", parents=[common],
                       help="deleted permutation module irreducibility")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("claim51", parents=[common],
                       help="multiplicity sum bound over F_q points")
    p.add_argument("--poly", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("parabolic", parents=[common],
                       help="hyperplane-stabilizer multiplicity bound")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", default=None,
                   help="defaults to the product of all projective linear forms")

    p = sub.add_parser("h1", parents=[common],
                       help="H^1 classes by cocycle enumeration")
    p.add_argument("--action", required=True)

    p = sub.add_parser("square-classes", parents=[common],
                       help="square classes and their forms")
    p.add_argument("--field", required=True, help="'reals' or a finite field spec")

    p = sub.add_parser("verify", parents=[common],
                       help="run a registered worked example")
    p.add_argument("example_id", nargs="?")
    p.add_argument("--all", action="store_true")

    sub.add_parser("list-examples", parents=[common],
                   help="registered worked examples")
    return parser


# ---------------------------------------------------------------------------
# command implementations: return (outputs dict, all verdicts true?)
# ---------------------------------------------------------------------------

def cmd_info(args):
    g = load_group_file(args.group)
    refl = pseudo_reflections(g)
    out = {
        "name": g.name,
        "field": g.spec.describe(),
        "dim": g.n,
        "order": g.order,
        "center_order": len(g.center_indices()),
        "pseudo_reflection_count": len(refl),
        "absolutely_irreducible": is_absolutely_irreducible(g),
        "diagonalizable_over_field": is_diagonalizable_over_k(g),
    }
    return out, True


def cmd_hilbert(args):
    g = load_group_file(args.group)
    dims = hilbert_dims(g, args.max_degree)
    return {"dims": list(dims.dims)}, True


def cmd_molien(args):
    g = load_group_file(args.group)
    dims = molien_series(g, args.max_degree)
    return {"dims": list(dims.dims)}, True


def cmd_generators(args):
    g = load_group_file(args.group)
    gs = minimal_generators(g, d_max=args.max_degree)
    return {
        "degrees": gs.degrees,
        "e": gs.e,
        "scaled_exponents": scaled_torus_exponents(gs),
        "generators": [p.render() for p in gs.polynomials],
    }, True


def cmd_relation(args):
    # refuse a bad bound before the generator search, not after it
    check_degree_bound(args.wdeg_max)
    g = load_group_file(args.group)
    gs = minimal_generators(g, d_max=args.max_degree)
    rel = find_relation(gs, args.wdeg_max)
    if rel is None:
        return {"relation": None, "wdeg_max": args.wdeg_max,
                "degrees": gs.degrees}, True
    names = tuple(f"y{i + 1}" for i in range(len(gs)))
    return {
        "relation": rel.poly.render(names),
        "weighted_degree": rel.weighted_degree,
        "degrees": gs.degrees,
        "support": [list(e) for e in rel.support()],
    }, True


def cmd_normalizer(args):
    # Aut(G) is searched only when |G| <= bound, so the closure stops at
    # the bound instead of building a larger group only to refuse it
    bound = DEFAULT_AUT_BOUND if args.aut_bound is None else args.aut_bound
    _, _, gens, name, cap = load_group_file(args.group, close=False)
    try:
        g = close_group(gens, cap=min(cap, bound), name=name)
    except ClosureCapError:
        if cap <= bound:
            raise
        raise BoundExceededError(
            f"automorphism bound {bound} exceeded (|G| > {bound})") from None
    rep = normalizer_report(g, aut_bound=bound)
    out = rep.as_dict()
    out["intertwiners"] = [
        [[c.render() for c in row] for row in ro.intertwiner.entries]
        for ro in rep.realized_outer
    ]
    return out, True


def cmd_fixed_points(args):
    g = load_group_file(args.group)
    pts = projective_fixed_points(g)
    return {"count": len(pts), "points": [p.render() for p in pts]}, True


def cmd_rank(args):
    g = load_group_file(args.group)
    rep = rank_obstruction(g, args.ell)
    return rep.as_dict(), rep.hypothesis_holds


def cmd_permmod(args):
    g = load_group_file(args.group)
    verdict = perm_module_irreducible(g, args.p)
    return {"p": args.p, "irreducible": verdict}, True


def cmd_claim51(args):
    spec = FieldSpec.finite_field(args.q)
    f = parse_polynomial(args.poly, args.n, spec)
    rep = check_claim_51(f, args.n)
    return rep.as_dict(), rep.verdict


def cmd_parabolic(args):
    h = (parse_polynomial(args.poly, args.n, FieldSpec.finite_field(args.q))
         if args.poly is not None else None)
    rep = check_parabolic_claim(h, q=args.q, n=args.n)
    return rep.as_dict(), rep.verdict


def cmd_h1(args):
    action, module = load_action_file(args.action)
    classes = h1_classes(action)
    return {
        "class_count": classes.count,
        "module_order": action.module.order,
        "gamma_order": action.gamma.order,
        "representatives": [list(r) for r in classes.representatives],
    }, True


def cmd_square_classes(args):
    field = "reals" if args.field == "reals" else parse_field_spec(args.field)
    forms = square_class_forms(field)
    return {
        "count": len(forms),
        "classes": [{"representative": str(f.representative),
                     "form": f.description} for f in forms],
    }, True


def cmd_verify(args):
    if args.all:
        reports = corpus.verify_all()
    elif args.example_id:
        reports = [corpus.verify_example(args.example_id)]
    else:
        raise InvForgeError("verify needs an example id or --all")
    ok = all(r.passed for r in reports)
    return {"passed": ok,
            "examples": [r.as_dict() for r in reports]}, ok


def cmd_list_examples(args):
    return {"examples": [
        {"id": eid, "description": desc, "source": src}
        for eid, desc, src in corpus.list_examples()
    ]}, True


_COMMANDS = {
    "info": cmd_info,
    "hilbert": cmd_hilbert,
    "molien": cmd_molien,
    "generators": cmd_generators,
    "relation": cmd_relation,
    "normalizer": cmd_normalizer,
    "fixed-points": cmd_fixed_points,
    "rank": cmd_rank,
    "permmod": cmd_permmod,
    "claim51": cmd_claim51,
    "parabolic": cmd_parabolic,
    "h1": cmd_h1,
    "square-classes": cmd_square_classes,
    "verify": cmd_verify,
    "list-examples": cmd_list_examples,
}


def _render_human(payload, elapsed):
    def walk(value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (dict, list)) and v:
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k} = {v}")
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    print()
                else:
                    print(f"{pad}- {v}")
        else:
            print(f"{pad}{value}")

    walk(payload["outputs"])
    print(f"[{payload['command']}: elapsed {elapsed:.2f}s]")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    handler = _COMMANDS.get(args.command)
    if handler is None:
        print(f"unknown command: {args.command}", file=sys.stderr)
        return 2
    start = time.time()
    try:
        outputs, verdicts_true = handler(args)
    except (InvForgeError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.time() - start
    exit_code = 0 if verdicts_true else 1
    inputs = {k: v for k, v in sorted(vars(args).items())
              if k not in ("machine", "command") and v is not None}
    payload = {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "exit_code": exit_code,
    }
    if getattr(args, "machine", False):
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _render_human(payload, elapsed)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
