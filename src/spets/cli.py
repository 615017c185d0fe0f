"""Command-line interface.

Subcommands: ``analyze``, ``uch``, ``series``, ``schur``, ``verify``,
``factors``.  All output is deterministic plain text.

Each subcommand imports only the layers it calls, since every command runs
in a fresh interpreter and ``factors`` needs none above ``laurent``.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_analyze(args) -> int:
    from .orders import order_poly, poincare
    from .reflection import build_group
    G = build_group(args.group)
    print(f"group {G.name}")
    print(f"order {G.order}")
    print(f"rank {G.rank}")
    print("degrees " + " ".join(
        f"({d},{z.serialize()})" for d, z in G.degrees))
    print(f"reflections {G.n_ref}")
    print(f"hyperplanes {G.n_hyp}")
    print(f"poincare {poincare(G).serialize()}")
    print(f"order_compact {order_poly(G, 'compact').serialize()}")
    print(f"order_noncompact {order_poly(G, 'noncompact').serialize()}")
    return 0


def _cmd_uch(args) -> int:
    from .tabledata import construct_uch, emit_uch
    from .uch import cyclic_uch
    if args.cyclic is not None:
        table, G = cyclic_uch(args.cyclic), None
    elif args.group:
        res = construct_uch(args.group)
        table, G = res.table, res.group
    else:
        raise ValueError("need a group name or --cyclic")
    sys.stdout.write(emit_uch(table, G))
    return 0


def _cmd_series(args) -> int:
    from .cyclotomic import zeta
    from .tabledata import construct_uch
    from .uch import determine_parameters
    d, _, a = args.zeta.partition("/")
    d, a = int(d), int(a) if a else 1
    res = construct_uch(args.group)
    det = res.specs.get((d, a))
    if det is None:
        det = determine_parameters(res.group, zeta(d, a), res.table)
    print(det.spec.serialize())
    for j in sorted(det.assignment):
        name = det.assignment[j] or "?"
        fr = det.frs[j].serialize() if det.frs[j] else "?"
        print(f"chi_{j} -> {name} (eps {det.epsilons[j]:+d}, fr {fr})")
    return 0


def _cmd_schur(args) -> int:
    from .hecke import CyclicHeckeParams, _split_top, schur_cyclic
    params = CyclicHeckeParams.of(_split_top(args.params))
    if params.e != args.cyclic:
        raise ValueError("parameter count does not match --cyclic")
    for j, s in enumerate(schur_cyclic(params)):
        print(f"S_{j} = {s.serialize()}")
    return 0


def _cmd_verify(args) -> int:
    from .tabledata import construct_uch, diff_tables, parse_uch
    from .uch import verify_axioms
    ref = None
    if args.ref:
        with open(args.ref, encoding="utf-8") as fh:
            ref = parse_uch(fh.read())
    res = construct_uch(args.group)
    failures = 0
    if ref is not None:
        diff = diff_tables(res.table, ref)
        print(diff.summary())
        failures += len(diff.mismatches)
    report = verify_axioms(res.table, res.group, res.fegs)
    print(report.summary())
    if not report.passed:
        failures += 1
    return 1 if failures else 0


def _cmd_factors(args) -> int:
    from .cyclotomic import field_from_name
    from .laurent import k_cyclotomic_factors
    field = field_from_name(args.field)
    for phi in k_cyclotomic_factors(args.d, field):
        exps = ",".join(str(k) for k in sorted(phi.root_exponents))
        print(f"Phi_{args.d}[{exps}] = {phi.poly.serialize()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(prog="spets")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="orders, degrees, hyperplane data")
    p.add_argument("group")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("uch", help="construct a unipotent character table")
    p.add_argument("group", nargs="?")
    p.add_argument("--cyclic", type=int, default=None, metavar="E")
    p.set_defaults(func=_cmd_uch)

    p = sub.add_parser("series", help="determine a principal zeta-series")
    p.add_argument("group")
    p.add_argument("--zeta", required=True, metavar="D/A")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("schur", help="Schur elements of a cyclic algebra")
    p.add_argument("--cyclic", type=int, required=True, metavar="E")
    p.add_argument("--params", required=True)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("verify", help="construct, diff and verify a table")
    p.add_argument("group")
    p.add_argument("--ref", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("factors", help="K-cyclotomic factor lists")
    p.add_argument("d", type=int)
    p.add_argument("--field", required=True)
    p.set_defaults(func=_cmd_factors)

    args = top.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
