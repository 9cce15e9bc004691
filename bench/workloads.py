"""The three benchmark workloads: their operations and known answers.

An operation mirrors what a command-line user pays: it starts from
serialized graph text, parses it, decides, and ends with the certificate
JSON.  Operations reach coverkit through module attributes at call time,
so the tracer's patches take effect without the workloads knowing.

Known answers never come from the procedure being measured: lifts are
covers by construction, chain targets are polynomial because their
pendant trees prune away to a cycle or path, planted components are
judged by the oracle on the small component alone, and gadget instances
by brute force on the formula or the colouring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import instances

# lift-solve: two folds, so that every host is measured at r and 2r
LIFT_FOLD = 256
# chain-solve: chain length L and 2L, each lifted to this many sheets
CHAIN_LENGTH = 100
CHAIN_FOLD = 4
CHAINS_PER_SHAPE = 2
# deep pendant chains for classify-only operations; the last one is
# longer than the default recursion limit allows today
DEEP_TAILS = (400, 800, 1500)
# oracle-gadgets: node budget per instance, and formulas drawn per clause
# count; more at 4 and 8, the two sizes doubling_ratio compares
ORACLE_BUDGET = 2000
FORMULAS_PER_SIZE = {4: 5, 5: 3, 6: 3, 7: 3, 8: 5}
# unsatisfiable c=3, 8-clause formulas the oracle cannot refute today
FIXED_UNSAT_SEEDS = (31, 36)
WD_BASE_SIDES = (3, 4, 5, 6, 7, 8)  # bipartite 3-regular bases of 2m <= 16 vertices
WD_BASES_PER_SIDE = 6


@dataclass
class Op:
    kind: str  # "solve", "chain", "classify" or "oracle"
    label: str
    target: str
    graph: str | None
    size: str  # the doubling group: "1x" or "2x", "" when outside both
    edges: int  # input edges, target included
    expect: str | None = None
    truth: dict = field(default_factory=dict)  # what the ground truth needs


def decide(op: Op, ck) -> tuple[str, str | None, int]:
    """Run one operation; returns (answer, certificate JSON or None, oracle nodes)."""
    parse = ck.graphs.parse_graph
    if op.kind == "classify":
        return ck.classify.verdict(parse(op.target)).kind, None, 0
    if op.kind == "oracle":
        res = ck.covers.oracle_cover(parse(op.graph), parse(op.target), budget=ORACLE_BUDGET)
        return res.status, (res.projection.to_json() if res.yes else None), res.nodes
    h = parse(op.target)
    prefix = ""
    if op.kind == "chain":
        prefix = ck.classify.verdict(h).kind + "+"
    res = ck.solver.solve_cover(parse(op.graph), h)
    return prefix + res.status, (res.projection.to_json() if res.yes else None), 0


def _edges(*graphs) -> int:
    return sum(g.m for g in graphs)


# instance sets: (coverkit modules, seeded Random) -> list[Op] -----------------


def build_lift_solve(ck, rng) -> list[Op]:
    ser = ck.graphs.serialize_graph
    hosts = instances.harmless_hosts()
    ops = []
    for size, fold in (("1x", LIFT_FOLD), ("2x", 2 * LIFT_FOLD)):
        for name, h in hosts:
            g = instances.random_lift(h, fold, rng)
            ops.append(Op("solve", f"{name} x{fold}", ser(h), ser(g), size, _edges(g, h), expect="yes"))
        for name, h in hosts:
            small = instances.PLANTED.get(name)
            if small is None:
                continue
            g = instances.random_lift(h, fold, rng, extra=small)
            ops.append(Op("solve", f"{name} x{fold} + planted", ser(h), ser(g), size, _edges(g, h),
                          truth={"small": ser(small)}))
    return ops


def build_chain_solve(ck, rng) -> list[Op]:
    ser = ck.graphs.serialize_graph
    ops = []
    for size, n in (("1x", CHAIN_LENGTH), ("2x", 2 * CHAIN_LENGTH)):
        cycle = n // 2 + 1
        for _ in range(CHAINS_PER_SHAPE):
            for h in (instances.path_target(n), instances.tadpole_target(cycle, n - cycle),
                      instances.broom_cycle_target(cycle, n - cycle - 2)):
                g = instances.random_lift(h, CHAIN_FOLD, rng)
                ops.append(Op("chain", f"{h.name} x{CHAIN_FOLD}", ser(h), ser(g), size, _edges(g, h),
                              expect="polynomial+yes"))
    for tail in DEEP_TAILS:
        h = instances.tadpole_target(3 + rng.randrange(4), tail + rng.randrange(50))
        ops.append(Op("classify", h.name, ser(h), None, "", h.m, expect="polynomial"))
    return ops


def build_oracle_gadgets(ck, rng) -> list[Op]:
    gd = ck.gadgets
    ser = ck.graphs.serialize_graph
    fw = gd.fw_target(3)
    target = ser(fw)
    ops = []
    drawn = []
    for n_clauses, count in FORMULAS_PER_SIZE.items():
        pool = [s for s in range(1000) if not (n_clauses == 8 and s in FIXED_UNSAT_SEEDS)]
        drawn += [(n_clauses, s) for s in rng.sample(pool, count)]
    drawn += [(8, s) for s in FIXED_UNSAT_SEEDS]
    for n_clauses, seed in drawn:
        f = gd.random_formula(3, n_clauses, 3, seed)
        g = gd.build_gphi_fw(3, f)
        size = {4: "1x", 8: "2x"}.get(n_clauses, "")
        ops.append(Op("oracle", f"gphi c=3 clauses={n_clauses} seed={seed}", target, ser(g), size,
                      _edges(g, fw), truth={"formula": f.to_json()}))
    wd = gd.wd_target(2, 1)
    for m in WD_BASE_SIDES:
        for _ in range(WD_BASES_PER_SIDE):
            seed = rng.randrange(10**6)
            base, _ = gd.random_regular("bipartite", 3, m, seed=seed)
            g = gd.directed_lift_wd(base, 2, 1)
            ops.append(Op("oracle", f"wd-lift m={m} seed={seed}", ser(wd), ser(g), "", _edges(g, wd),
                          truth={"base": ser(base)}))
    return ops


GENERATORS = {
    "lift-solve": build_lift_solve,
    "chain-solve": build_chain_solve,
    "oracle-gadgets": build_oracle_gadgets,
}


def fill_known_answers(ops: list[Op], ck) -> None:
    """Set ``expect`` on every operation that lacks one, from an
    independent source: the oracle on a planted component, or brute force."""
    parse = ck.graphs.parse_graph
    for op in ops:
        if op.expect is not None:
            continue
        if "small" in op.truth:
            res = ck.covers.oracle_cover(parse(op.truth["small"]), parse(op.target))
            if res.status == "unknown":
                raise RuntimeError(f"oracle cannot judge the planted component of {op.label}")
            # a connected target is covered iff every component covers it;
            # the lift does, so the small component decides
            op.expect = res.status
        elif "formula" in op.truth:
            f = ck.gadgets.Formula.from_json(op.truth["formula"])
            op.expect = "yes" if ck.gadgets.brute_force_formula(f) is not None else "no"
        elif "base" in op.truth:
            base = parse(op.truth["base"])
            op.expect = "yes" if ck.gadgets.bc_colouring_brute(base, 2, 1) is not None else "no"
        else:
            raise RuntimeError(f"no source for the answer of {op.label}")
