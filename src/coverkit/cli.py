"""Command-line front door.

Exit codes: 0 success / covers, 1 negative answer, 2 unsupported or
refused or unknown (an internal error included), 3 input error (a usage
error or an unreadable file included).  All results are JSON on stdout,
errors JSON on stderr; ``--pretty`` indents results.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import gadgets
from .classify import analyze_target, verdict
from .covers import CoveringProjection, DEFAULT_BUDGET, oracle_cover, verify_cover
from .graphs import Graph, GraphError, parse_graph, serialize_graph
from .partition import degree_adjust, degree_partition, reduce_pair
from .solver import UnsupportedTarget, solve_cover

EXIT_OK = 0
EXIT_NO = 1
EXIT_REFUSED = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error: JSON on stderr, exit 3."""

    def error(self, message):
        print(json.dumps({"error": f"{self.prog}: {message}"}), file=sys.stderr)
        sys.exit(EXIT_INPUT)


def _load(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _emit(data, pretty: bool) -> None:
    print(json.dumps(data, indent=2 if pretty else None, sort_keys=True))


def cmd_classify(args) -> int:
    v = verdict(_load(args.target))
    classified = v.classified
    if classified is None:
        try:
            _, _, _, classified = analyze_target(v.graph)
        except GraphError:
            classified = []
    shapes = [
        {"blocks": list(bg.blocks), "colour": bg.colour, "shape": str(bg.shape), "class": cls}
        for bg, cls in classified
    ]
    out = {"verdict": v.kind, "reason": v.reason, "shapes": shapes}
    if v.witness is not None:
        out["witness"] = {"blocks": list(v.witness.blocks), "shape": str(v.witness.shape)}
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_solve(args) -> int:
    g, h = _load(args.graph), _load(args.target)
    try:
        res = solve_cover(g, h)
    except UnsupportedTarget as exc:
        _emit({"status": "refused", "reason": str(exc)}, args.pretty)
        return EXIT_REFUSED
    out = {"status": "covers" if res.yes else "does-not-cover"}
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(res.trace.to_dict(), fh, indent=2)
    if res.yes and args.certificate:
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(res.projection.to_json())
    if res.yes:
        out["certificate"] = {"fv": res.projection.fv, "fe": res.projection.fe}
    else:
        out["failure"] = res.trace.failure
    _emit(out, args.pretty)
    return EXIT_OK if res.yes else EXIT_NO


def cmd_oracle(args) -> int:
    g, h = _load(args.graph), _load(args.target)
    res = oracle_cover(g, h, budget=args.budget)
    out = {"status": res.status, "reason": res.reason, "nodes": res.nodes}
    if res.witness is not None:
        out["witness"] = res.witness
    if res.yes:
        out["certificate"] = {"fv": res.projection.fv, "fe": res.projection.fe}
        if args.certificate:
            with open(args.certificate, "w", encoding="utf-8") as fh:
                fh.write(res.projection.to_json())
    _emit(out, args.pretty)
    return EXIT_OK if res.yes else (EXIT_NO if res.no else EXIT_REFUSED)


def cmd_verify(args) -> int:
    g, h = _load(args.graph), _load(args.target)
    with open(args.map, encoding="utf-8") as fh:
        f = CoveringProjection.from_json(fh.read())
    res = verify_cover(g, h, f)
    _emit({"valid": res.ok, "violations": res.violations}, args.pretty)
    return EXIT_OK if res.ok else EXIT_NO


def cmd_partition(args) -> int:
    g = _load(args.graph)
    part, matrix = degree_partition(g)
    entries = [
        {"from": i, "to": j, "colour": c, "direction": d, "count": n}
        for (i, j, c, d), n in sorted(matrix.entries.items())
    ]
    _emit({"blocks": part.blocks, "matrix": entries}, args.pretty)
    return EXIT_OK


def cmd_reduce(args) -> int:
    g = _load(args.graph)
    if args.target:
        h = _load(args.target)
        gr, hr, record = reduce_pair(g, h)
        out = {"g": serialize_graph(gr), "h": serialize_graph(hr), "record": json.loads(record.to_json())}
    else:
        gr, record = degree_adjust(g)
        out = {"g": serialize_graph(gr), "record": json.loads(record.to_json())}
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_gen(args) -> int:
    def opt(name, default):
        # an option left unset takes the gadget's default; an explicit 0
        # goes to the builder, which refuses it
        value = getattr(args, name)
        return default if value is None else value

    def formula():
        with open(args.formula, encoding="utf-8") as fh:
            return gadgets.Formula.from_json(fh.read())

    name = args.gadget.lower()
    seed = opt("seed", 0)
    if name == "tripod":
        g = gadgets.limping_tripod()
    elif name == "fw2":
        g = gadgets.fw2_target()
    elif name in ("c0", "ck", "dk", "b1"):
        vg = gadgets.variable_gadget(name, opt("k", 1))
        g = gadgets.compose_claimA(vg, formula()) if args.formula else vg.graph
    elif name == "target":
        g = gadgets.gadget_target(args.case or "c0", opt("k", 1))
    elif name == "gphi":
        if args.formula:
            # c comes from the file; a --c that disagrees is refused
            f = formula()
            c = opt("c", f.c)
        else:
            c = opt("c", 3)
            f = gadgets.random_formula(c, opt("clauses", 3), c, seed)
        g = gadgets.build_gphi_fw(c, f)
    elif name == "fwtarget":
        g = gadgets.fw_target(opt("c", 3))
    elif name == "wdtarget":
        g = gadgets.wd_target(opt("b", 2), opt("c", 1))
    elif name == "wdlift":
        b, c = opt("b", 2), opt("c", 1)
        base, _ = gadgets.random_regular("bipartite", b + c, opt("m", 4), seed)
        g = gadgets.directed_lift_wd(base, b, c)
    elif name == "regular":
        g, _ = gadgets.random_regular(args.case or "even", opt("k", 2), opt("m", 6), seed)
    elif name == "formula":
        f = gadgets.random_formula(opt("c", 2), opt("clauses", 4), opt("k", 4), seed)
        text = f.to_json()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text)
        return EXIT_OK
    else:
        raise GraphError(f"unknown gadget {args.gadget!r}")
    text = serialize_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_dot(args) -> int:
    g = _load(args.graph)
    lines = [f"graph \"{g.name}\" {{"]
    colours = sorted(g.vertex_colours() | g.edge_colours())
    palette = ["black", "red", "blue", "green3", "orange", "purple", "brown", "cyan3"]
    cmap = {c: palette[i % len(palette)] for i, c in enumerate(colours)}
    for v in g.vertices():
        lines.append(f'  "{v}" [color={cmap[g.vertex_colour(v)]}];')
    stub = 0
    for e in g.edges():
        col = cmap[e.colour]
        if e.kind == "edge":
            lines.append(f'  "{e.u}" -- "{e.v}" [color={col}];')
        elif e.kind == "arc":
            lines.append(f'  "{e.tail}" -- "{e.head}" [color={col}, dir=forward];')
        elif e.kind == "loop":
            lines.append(f'  "{e.u}" -- "{e.u}" [color={col}];')
        elif e.kind == "dloop":
            lines.append(f'  "{e.u}" -- "{e.u}" [color={col}, dir=forward];')
        else:
            stub += 1
            lines.append(f'  "__stub{stub}" [style=invis, shape=point];')
            lines.append(f'  "{e.u}" -- "__stub{stub}" [color={col}];')
    lines.append("}")
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None) -> int:
    ap = _Parser(prog="coverkit", description="graph cover decision toolkit")
    ap.add_argument("--pretty", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="complexity verdict for a target graph")
    p.add_argument("target")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="polynomial decision for harmless targets")
    p.add_argument("graph")
    p.add_argument("target")
    p.add_argument("--certificate")
    p.add_argument("--trace")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive search, any target")
    p.add_argument("graph")
    p.add_argument("target")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--certificate")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="check a covering projection certificate")
    p.add_argument("graph")
    p.add_argument("target")
    p.add_argument("map")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("partition", help="degree partition and refinement matrix")
    p.add_argument("graph")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("reduce", help="degree-adjusting reduction")
    p.add_argument("graph")
    p.add_argument("target", nargs="?")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="generate gadgets, targets and instances")
    p.add_argument("gadget")
    p.add_argument("--c", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--clauses", type=int)
    p.add_argument("--case")
    p.add_argument("--formula")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dot", help="DOT export (semi-edges as half-edges)")
    p.add_argument("graph")
    p.set_defaults(func=cmd_dot)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # a crash is no answer: it must not read as exit 1, "does not cover"
        print(json.dumps({"error": f"internal error: {type(exc).__name__}: {exc}",
                          "traceback": traceback.format_exc()}), file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
