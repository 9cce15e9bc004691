"""Hardness-instance generators and structural lifts.

Builders for the NP-hardness side: the limping tripod and the variable
gadgets built from it, the clause/variable instance composer for
exactly-2-in-4 formulas, the bipartite clause graph for hub targets with
c-bundles, the directed lift that turns (b,c)-colouring into a directed
two-vertex cover problem, plus the de-priming, spanning and
garbage-collection lifts that embed small hard block graphs into full
targets.  All generators emit simple graphs and assert it.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from .classify import recognize_shape
from .graphs import Graph, GraphError, bipartition, degree, is_connected, total_degree
from .partition import degree_partition, is_balanced


class GadgetError(GraphError):
    pass


VC_HUB = "P"  # vertex colour of the hub (singleton) block
VC_DOUBLET = "Q"  # vertex colour of the doublet block
ALPHA = "a"
BETA = "b"


def assert_simple(g: Graph) -> None:
    seen: set = set()
    for eid, kind, colour, u, v in zip(*g.columns()):
        if kind in ("loop", "dloop", "semi"):
            raise GadgetError(f"generator produced a non-simple edge {eid} ({kind})")
        key = (colour, frozenset((u, v)))
        if key in seen:
            raise GadgetError(f"generator produced parallel edges at {key}")
        seen.add(key)


# formulas -------------------------------------------------------------------


@dataclass
class Formula:
    """All-positive clauses of size 2c; satisfaction means exactly c true
    variables in every clause."""

    c: int
    clauses: list[tuple[str, ...]]

    def __post_init__(self):
        if isinstance(self.c, bool) or not isinstance(self.c, int) or self.c < 1:
            raise GadgetError(f"c must be an int of at least 1, got {self.c!r}")
        self.clauses = [tuple(cl) for cl in self.clauses]
        for cl in self.clauses:
            if len(cl) != 2 * self.c or len(set(cl)) != 2 * self.c:
                raise GadgetError(f"clause {cl} must have {2 * self.c} distinct variables")

    @property
    def variables(self) -> list[str]:
        out = []
        seen = set()
        for cl in self.clauses:
            for x in cl:
                if x not in seen:
                    seen.add(x)
                    out.append(x)
        return sorted(out)

    def occurrences(self) -> dict[str, int]:
        occ: dict[str, int] = {}
        for cl in self.clauses:
            for x in cl:
                occ[x] = occ.get(x, 0) + 1
        return occ

    def require_occurrences(self, k: int) -> None:
        occ = self.occurrences()
        bad = {x: n for x, n in occ.items() if n != k}
        if bad:
            raise GadgetError(f"every variable must occur exactly {k} times, got {bad}")

    def to_json(self) -> str:
        return json.dumps({"c": self.c, "clauses": [list(cl) for cl in self.clauses]}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Formula":
        data = json.loads(text)
        clauses = data.get("clauses") if isinstance(data, dict) else None
        if not (isinstance(clauses, list) and "c" in data and all(
                isinstance(cl, list) and all(isinstance(x, str) for x in cl) for cl in clauses)):
            raise GadgetError('a formula is a JSON object with an int "c" and "clauses", '
                              'a list of lists of variable names')
        return cls(data["c"], clauses)


def brute_force_formula(f: Formula) -> dict[str, bool] | None:
    """Exhaustive search for an assignment with exactly c true variables
    per clause; limited to 24 variables."""
    xs = f.variables
    if len(xs) > 24:
        raise GadgetError("brute force limited to 24 variables")
    for bits in itertools.product((True, False), repeat=len(xs)):
        val = dict(zip(xs, bits))
        if all(sum(val[x] for x in cl) == f.c for cl in f.clauses):
            return val
    return None


def random_formula(c: int, n_clauses: int, occurrences: int, seed: int) -> Formula:
    """An all-positive formula with 2c-variable clauses in which every
    variable occurs exactly ``occurrences`` times."""
    if c < 1:
        raise GadgetError(f"c must be an int of at least 1, got {c!r}")
    if n_clauses < 1:
        raise GadgetError(f"a formula needs at least one clause, got {n_clauses}")
    if occurrences < 1:
        raise GadgetError(f"every variable must occur at least once, got {occurrences}")
    if (2 * c * n_clauses) % occurrences != 0:
        raise GadgetError("clause slots not divisible by the occurrence count")
    n_vars = 2 * c * n_clauses // occurrences
    names = [f"x{i}" for i in range(n_vars)]
    rng = random.Random(seed)
    for _ in range(10_000):
        slots = [x for x in names for _ in range(occurrences)]
        rng.shuffle(slots)
        clauses = [slots[j * 2 * c:(j + 1) * 2 * c] for j in range(n_clauses)]
        if all(len(set(cl)) == 2 * c for cl in clauses):
            return Formula(c, [tuple(cl) for cl in clauses])
    raise GadgetError("could not sample an occurrence-disciplined formula")


# the limping tripod and its targets ------------------------------------------


def limping_tripod() -> Graph:
    """K_{2,3} plus two pendant vertices hung on the degree-3 side.

    Vertices p1, p2 belong to the hub block, u, v, m1, m2, m3 to the
    doublet block; 8 edges of the bundle colour.
    """
    g = Graph("tripod")
    for name in ("p1", "p2"):
        g.add_vertex(name, VC_HUB)
    for name in ("u", "v", "m1", "m2", "m3"):
        g.add_vertex(name, VC_DOUBLET)
    n = 0
    for p in ("p1", "p2"):
        for mname in ("m1", "m2", "m3"):
            n += 1
            g.add_edge("edge", f"e{n}", ALPHA, p, mname)
    g.add_edge("edge", "e7", ALPHA, "p1", "u")
    g.add_edge("edge", "e8", ALPHA, "p2", "v")
    return g


def fw2_target() -> Graph:
    """The dangerous interblock graph: hub joined to each doublet vertex by
    two parallel edges."""
    h = Graph("fw2")
    h.add_vertex("p", VC_HUB)
    h.add_vertex("r", VC_DOUBLET)
    h.add_vertex("g", VC_DOUBLET)
    h.add_edge("edge", "a1", ALPHA, "p", "r")
    h.add_edge("edge", "a2", ALPHA, "p", "r")
    h.add_edge("edge", "a3", ALPHA, "p", "g")
    h.add_edge("edge", "a4", ALPHA, "p", "g")
    return h


def gadget_target(case: str, k: int = 1) -> Graph:
    """The two-colour block graph each variable gadget is built for: the
    dangerous bundle graph plus one harmless doublet graph in a second
    colour (semi-edges for c0, semi-edge plus loops for ck, loops for dk,
    a single crossing edge for b1)."""
    case = case.lower()
    h = fw2_target()
    h.name = case if case in ("c0", "b1") else f"{case[0]}{k}"
    if case == "c0":
        h.add_edge("semi", "s1", BETA, "r")
        h.add_edge("semi", "s2", BETA, "g")
    elif case == "ck":
        if k < 1:
            raise GadgetError("ck needs k >= 1")
        h.add_edge("semi", "s1", BETA, "r")
        h.add_edge("semi", "s2", BETA, "g")
        for i in range(k):
            h.add_edge("loop", f"lr{i}", BETA, "r")
            h.add_edge("loop", f"lg{i}", BETA, "g")
    elif case == "dk":
        if k < 1:
            raise GadgetError("dk needs k >= 1")
        for i in range(k):
            h.add_edge("loop", f"lr{i}", BETA, "r")
            h.add_edge("loop", f"lg{i}", BETA, "g")
    elif case == "b1":
        h.add_edge("edge", "s1", BETA, "r", "g")
    else:
        raise GadgetError(f"unknown gadget case {case!r}")
    return h


@dataclass
class VariableGadget:
    case: str
    k: int
    graph: Graph
    ports_a: list[str]
    ports_b: list[str] = field(default_factory=list)
    target: Graph | None = None

    @property
    def occurrences(self) -> int:
        return len(self.ports_a)


def _paste(out: Graph, g: Graph, prefix: str) -> None:
    """Add g's vertices, then its edges, to ``out``, each id after ``prefix``."""
    for v in g.vertices():
        out.add_vertex(prefix + v, g.vertex_colour(v))
    for e in g.edges():
        out.add_edge(e.kind, prefix + e.id, e.colour, *[prefix + w for w in e.ends])


def _tripod_union(n_copies: int, name: str) -> Graph:
    g = Graph(name)
    for i in range(1, n_copies + 1):
        _paste(g, limping_tripod(), f"{i}.")
    return g


def variable_gadget(case: str, k: int = 1) -> VariableGadget:
    """The tripod-based variable gadgets.

    c0: two tripods, the u- and v-vertices tied by second-colour edges and
    the m-vertices matched.  ck/dk: 2k+2 tripods with a complete graph /
    2k-regular circulant in the second colour on every vertex family.
    b1: four tripods with the second-colour matching that forces the port
    images to split into two equal opposite halves.
    """
    case = case.lower()
    fam = ("u", "v", "m1", "m2", "m3")
    if case == "c0":
        g = _tripod_union(2, "c0-gadget")
        g.add_edge("edge", "bu", BETA, "1.u", "2.u")
        g.add_edge("edge", "bv", BETA, "1.v", "2.v")
        for j, mname in enumerate(("m1", "m2", "m3")):
            g.add_edge("edge", f"bm{j}", BETA, f"1.{mname}", f"2.{mname}")
        ports = ["1.u", "1.v", "2.u", "2.v"]
        vg = VariableGadget("c0", 0, g, ports, [], gadget_target("c0"))
    elif case in ("ck", "dk"):
        if k < 1:
            raise GadgetError(f"{case} needs k >= 1")
        n = 2 * k + 2
        g = _tripod_union(n, f"{case[0]}{k}-gadget")
        eid = 0
        for x in fam:
            members = [f"{i}.{x}" for i in range(1, n + 1)]
            if case == "ck":
                pairs = itertools.combinations(range(n), 2)
            else:
                pairs = {(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)}
                pairs = {(min(i, j), max(i, j)) for i, j in pairs}
            for i, j in sorted(pairs):
                eid += 1
                g.add_edge("edge", f"b{eid}", BETA, members[i], members[j])
        ports = [f"{i}.{x}" for i in range(1, n + 1) for x in ("u", "v")]
        vg = VariableGadget(case, k, g, ports, [], gadget_target(case, k))
    elif case == "b1":
        g = _tripod_union(4, "b1-gadget")
        eid = 0
        for x in ("m1", "m2", "m3", "v"):
            for i, j in ((1, 2), (3, 4)):
                eid += 1
                g.add_edge("edge", f"b{eid}", BETA, f"{i}.{x}", f"{j}.{x}")
        g.add_edge("edge", "b9", BETA, "1.u", "4.u")
        g.add_edge("edge", "b10", BETA, "2.u", "3.u")
        ports_a = ["1.u", "3.u", "1.v", "3.v"]
        ports_b = ["2.u", "4.u", "2.v", "4.v"]
        vg = VariableGadget("b1", 1, g, ports_a, ports_b, gadget_target("b1"))
    else:
        raise GadgetError(f"unknown gadget case {case!r}")
    assert_simple(vg.graph)
    audit_variable_gadget(vg)
    return vg


def audit_variable_gadget(vg: VariableGadget) -> None:
    """Claim-style port discipline: every non-port vertex has full degree
    relative to its target block, every port misses exactly one edge of
    the bundle colour."""
    h = vg.target
    target_deg = {
        (h.vertex_colour(x), col): degree(h, x, col) for x in h.vertices() for col in (ALPHA, BETA)
    }
    ports = set(vg.ports_a) | set(vg.ports_b)
    for v in vg.graph.vertices():
        vc = vg.graph.vertex_colour(v)
        for col in (ALPHA, BETA):
            d = degree(vg.graph, v, col)
            want = target_deg.get((vc, col), 0)
            if v in ports and col == ALPHA:
                if d != want - 1:
                    raise GadgetError(f"port {v} has bundle degree {d}, wanted {want - 1}")
            elif d != want:
                raise GadgetError(f"vertex {v} has {col}-degree {d}, wanted {want}")


def compose_claimA(vg: VariableGadget, f: Formula) -> Graph:
    """One gadget copy per variable, ports identified with the connector
    vertices and joined to clause vertices by bundle-colour edges.

    One-sided gadgets give every clause one vertex of the hub block;
    two-sided gadgets give it two, one per side.  Every vertex of the
    result has full degree."""
    if f.c != 2:
        raise GadgetError("the composer expects 2-in-4 formulas")
    if not f.clauses:
        raise GadgetError("the formula has no clauses")
    f.require_occurrences(vg.occurrences)
    g = Graph(f"{vg.case}-instance")
    by_var: dict[str, list[int]] = {}
    for j, cl in enumerate(f.clauses):
        for x in cl:
            by_var.setdefault(x, []).append(j)
    two_sided = bool(vg.ports_b)
    for j, _ in enumerate(f.clauses):
        if two_sided:
            g.add_vertex(f"z1.{j}", VC_HUB)
            g.add_vertex(f"z2.{j}", VC_HUB)
        else:
            g.add_vertex(f"z.{j}", VC_HUB)
    for x in f.variables:
        _paste(g, vg.graph, f"{x}|")
        slots = by_var[x]
        for i, j in enumerate(slots):
            if two_sided:
                g.add_edge("edge", f"{x}|ca{i}", ALPHA, f"{x}|{vg.ports_a[i]}", f"z1.{j}")
                g.add_edge("edge", f"{x}|cb{i}", ALPHA, f"{x}|{vg.ports_b[i]}", f"z2.{j}")
            else:
                g.add_edge("edge", f"{x}|ca{i}", ALPHA, f"{x}|{vg.ports_a[i]}", f"z.{j}")
    assert_simple(g)
    return g


# clause graph for hub targets with c-bundles -----------------------------------


def fw_target(c: int) -> Graph:
    """Hub joined to each of two other vertices by c parallel edges; one
    vertex colour, so the blocks emerge from the degrees."""
    if c < 1:
        raise GadgetError(f"fw target needs c >= 1, got {c}")
    h = Graph(f"fw{c}")
    for name in ("p", "r", "g"):
        h.add_vertex(name, "n")
    for i in range(c):
        h.add_edge("edge", f"r{i}", "e", "p", "r")
        h.add_edge("edge", f"g{i}", "e", "p", "g")
    return h


def build_gphi_fw(c: int, f: Formula) -> Graph:
    """The clause/variable graph whose covers of the c-bundle hub target
    are exactly the satisfying assignments of an exactly-c-in-2c formula
    with c occurrences per variable.

    One degree-2c vertex per clause, one connector per (variable, clause)
    incidence, and a (c-1) x (2c-1) equalizer grid per variable that
    forces all connectors of a variable onto the same image.
    """
    if c < 3:
        raise GadgetError("the construction needs c >= 3")
    if f.c != c:
        raise GadgetError("formula arity does not match c")
    if not f.clauses:
        raise GadgetError("the formula has no clauses")
    f.require_occurrences(c)
    g = Graph(f"gphi-fw{c}")
    clause_index = {j: cl for j, cl in enumerate(f.clauses)}
    for j in clause_index:
        g.add_vertex(f"z.{j}", "n")
    for j, cl in clause_index.items():
        for x in cl:
            g.add_vertex(f"w.{x}.{j}", "n")
    for x in f.variables:
        for i in range(1, c):
            for jp in range(1, 2 * c):
                g.add_vertex(f"v{i}.{x}.{jp}", "n")
    for j, cl in clause_index.items():
        for x in cl:
            for i in range(1, c):
                g.add_vertex(f"u{i}.{x}.{j}", "n")
    n = 0
    for j, cl in clause_index.items():
        for x in cl:
            n += 1
            g.add_edge("edge", f"e{n}", "e", f"z.{j}", f"w.{x}.{j}")
            for i in range(1, c):
                n += 1
                g.add_edge("edge", f"e{n}", "e", f"w.{x}.{j}", f"u{i}.{x}.{j}")
                for jp in range(1, 2 * c):
                    n += 1
                    g.add_edge("edge", f"e{n}", "e", f"u{i}.{x}.{j}", f"v{i}.{x}.{jp}")
    assert_simple(g)
    return g


# directed lift for two-vertex directed targets ---------------------------------


def _check_wd_counts(b: int, c: int) -> None:
    if b < 0 or c < 0 or b + c == 0:
        raise GadgetError(f"wd target needs b, c >= 0 with b + c >= 1, got b={b}, c={c}")


def wd_target(b: int, c: int) -> Graph:
    """Two vertices with b directed loops each and c arcs in each direction."""
    _check_wd_counts(b, c)
    h = Graph(f"wd-{b}-{c}")
    h.add_vertex("r", "n")
    h.add_vertex("g", "n")
    for i in range(b):
        h.add_edge("dloop", f"lr{i}", "d", "r")
        h.add_edge("dloop", f"lg{i}", "d", "g")
    for i in range(c):
        h.add_edge("arc", f"f{i}", "d", "r", "g")
        h.add_edge("arc", f"b{i}", "d", "g", "r")
    return h


def directed_lift_wd(g: Graph, b: int, c: int) -> Graph:
    """Four-layer directed lift of a simple (b+c)-regular bipartite graph;
    the lift covers the two-vertex directed target exactly when the input
    has a colouring with b same-coloured and c cross-coloured neighbours
    per vertex.  It refuses the (b, c) that ``wd_target`` refuses."""
    _check_wd_counts(b, c)
    assert_simple(g)
    side = bipartition(g)
    if side is None:
        raise GadgetError("graph is not bipartite")
    for v in g.vertices():
        d = total_degree(g, v)
        if d != b + c:
            raise GadgetError(f"vertex {v!r} has degree {d}, expected {b + c}")
    out = Graph(f"lift-{g.name}")
    for v in g.vertices():
        out.add_vertex(v, "n")
    for v in g.vertices():
        out.add_vertex(f"~{v}", "n")
    for e in g.edges():
        u, v = (e.u, e.v) if side[e.u] == 0 else (e.v, e.u)
        out.add_edge("arc", f"{e.id}.1", "d", u, v)
        out.add_edge("arc", f"{e.id}.2", "d", v, f"~{u}")
        out.add_edge("arc", f"{e.id}.3", "d", f"~{u}", f"~{v}")
        out.add_edge("arc", f"{e.id}.4", "d", f"~{v}", u)
    assert_simple(out)
    return out


def bc_colouring_brute(g: Graph, b: int, c: int) -> dict[str, bool] | None:
    """Exhaustive search for a 2-colouring in which every vertex has b
    neighbours of its own colour and c of the other."""
    verts = g.vertices()
    if len(verts) > 24:
        raise GadgetError("brute force limited to 24 vertices")
    nbrs = {v: [] for v in verts}
    for e in g.edges():
        if len(e.ends) != 2:
            raise GadgetError("only normal edges supported")
        nbrs[e.u].append(e.v)
        nbrs[e.v].append(e.u)
    for bits in itertools.product((True, False), repeat=len(verts)):
        col = dict(zip(verts, bits))
        ok = True
        for v in verts:
            own = sum(1 for w in nbrs[v] if col[w] == col[v])
            if own != b or len(nbrs[v]) - own != c:
                ok = False
                break
        if ok:
            return col
    return None


# structural lifts ---------------------------------------------------------------


def deprime_lift(g: Graph, contracted_colour: str, a_colour: str, b_colour: str,
                 a_side_colours: set[str], b_side_colours: set[str],
                 matching_colour: str, k: int) -> Graph:
    """Undo the contraction of a k-fold matching between two blocks.

    Every vertex of the contracted colour splits into an a-side and a
    b-side copy, edges follow their colour's side, the whole graph is
    copied k times, and each split pair is rejoined by a complete
    bipartite graph in the matching colour across the copies.
    """
    if k < 1:
        raise GadgetError("k must be positive")
    vc = [v for v in g.vertices() if g.vertex_colour(v) == contracted_colour]
    vc_set = set(vc)
    copies = range(1, k + 1)
    out = Graph(f"deprimed-{g.name}")
    for i in copies:
        for v in g.vertices():
            if v in vc_set:
                out.add_vertex(f"{i}.{v}.a", a_colour)
                out.add_vertex(f"{i}.{v}.b", b_colour)
            else:
                out.add_vertex(f"{i}.{v}", g.vertex_colour(v))
    def landing(i, w, colour):
        if w not in vc_set:
            return f"{i}.{w}"
        if colour in a_side_colours:
            return f"{i}.{w}.a"
        if colour in b_side_colours:
            return f"{i}.{w}.b"
        raise GadgetError(f"colour {colour!r} not attributable to either side")
    for i in copies:
        for e in g.edges():
            ends = [landing(i, w, e.colour) for w in e.ends]
            out.add_edge(e.kind, f"{i}.{e.id}", e.colour, *ends)
    n = 0
    for v in vc:
        for i in copies:
            for j in copies:
                n += 1
                out.add_edge("edge", f"m{n}", matching_colour, f"{i}.{v}.a", f"{j}.{v}.b")
    return out


def spanning_lift(g: Graph, h: Graph, h_prime: Graph) -> Graph:
    """Pad an instance of a spanning-subgraph cover problem with isolated
    vertices for the absent blocks; rejects when the per-block ratios of
    the instance are not a single integer."""
    present = {h_prime.vertex_colour(v) for v in h_prime.vertices()}
    h_counts: dict[str, int] = {}
    for v in h.vertices():
        h_counts[h.vertex_colour(v)] = h_counts.get(h.vertex_colour(v), 0) + 1
    g_counts: dict[str, int] = {}
    for v in g.vertices():
        g_counts[g.vertex_colour(v)] = g_counts.get(g.vertex_colour(v), 0) + 1
    if set(g_counts) - present:
        raise GadgetError("instance uses vertex colours outside the block graph")
    ratios = set()
    for colour in present:
        total = sum(1 for v in h_prime.vertices() if h_prime.vertex_colour(v) == colour)
        have = g_counts.get(colour, 0)
        if have % total != 0:
            raise GadgetError(f"fibre size of colour {colour!r} is not divisible")
        ratios.add(have // total)
    if len(ratios) != 1:
        raise GadgetError(f"fibre ratios differ across blocks: {sorted(ratios)}")
    k = ratios.pop()
    out = g.copy(f"span-{g.name}")
    n = 0
    for colour, cnt in sorted(h_counts.items()):
        if colour in present:
            continue
        for _ in range(k * cnt):
            n += 1
            out.add_vertex(f"iso{n}", colour)
    return out


def one_factorization(m: int) -> list[list[tuple[int, int]]]:
    """The m-1 perfect matchings of the complete graph on an even number
    of vertices (circle method)."""
    if m % 2 != 0:
        raise GadgetError("one-factorization needs an even vertex count")
    rounds = []
    for r in range(m - 1):
        pairs = [(m - 1, r)]
        for i in range(1, m // 2):
            pairs.append(((r + i) % (m - 1), (r - i) % (m - 1)))
        rounds.append([(min(a, b), max(a, b)) for a, b in pairs])
    return rounds


def _orient_two_factors(pairs_a, pairs_b):
    """Orient the union of two disjoint perfect matchings (a disjoint union
    of even cycles) into directed cycles: each vertex 1-in-1-out."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for tag, pairs in ((0, pairs_a), (1, pairs_b)):
        for a, b in pairs:
            adj.setdefault(a, []).append((b, tag))
            adj.setdefault(b, []).append((a, tag))
    seen_half: set[tuple[int, int]] = set()
    arcs = []
    for start in sorted(adj):
        if any((start, tag) in seen_half for tag in (0, 1)):
            continue
        v, tag = start, 0
        while (v, tag) not in seen_half:
            seen_half.add((v, tag))
            w = next(w for w, t in adj[v] if t == tag)
            arcs.append((v, w))
            seen_half.add((w, tag))
            v, tag = w, 1 - tag
    return arcs


def garbage_lift(g_prime: Graph, h: Graph, h_prime: Graph) -> Graph:
    """Complete an instance of a balanced spanning block graph to an
    instance of the full target.

    Takes 2m copies of the instance arranged in two rows of m and wires
    every colour the block graph lacks out of pools of disjoint perfect
    matchings, so that a covering projection of the block graph (plus its
    vertex-swapped companion on the second row) extends to the whole
    target.  m is computed: the least even number above the maximum total
    degree of the target.  Each missing colour's block graph is read by
    ``recognize_shape``, which raises ShapeError (a GraphError) for one
    outside the F/FD/W/WD/FF/FW/WW families.

    A missing WW(b,c) colour with b != c is refused (GadgetError).  Its
    wiring pairs the two doublet blocks' instance vertices in sorted
    order, and a cover of the block graph need not map paired vertices to
    the sides the b-bundles join; only with b = c does every alignment
    extend.
    """
    assert_simple(g_prime)
    part, _ = degree_partition(h)
    colour_of_block = {}
    for i, block in enumerate(part.blocks):
        cols = {h.vertex_colour(v) for v in block}
        if len(cols) != 1:
            raise GadgetError("target blocks must be colour-homogeneous")
        colour_of_block[i] = cols.pop()
    if len(set(colour_of_block.values())) != part.k:
        raise GadgetError("target blocks must carry distinct vertex colours")
    if not is_balanced(h_prime):
        raise GadgetError("the block graph must be balanced")
    if not is_connected(h_prime):
        # With a disconnected block graph, a cover of the full target can
        # distribute fibres across copies so that no single copy covers
        # the block graph equitably, and the equivalence genuinely fails.
        raise GadgetError("the block graph must be connected")
    d_max = max(total_degree(h, v) for v in h.vertices())
    m = d_max + 2 - d_max % 2
    missing = sorted(h.edge_colours() - h_prime.edge_colours())

    # instance blocks by vertex colour; check the shared ratio
    by_colour: dict[str, list[str]] = {}
    for v in g_prime.vertices():
        by_colour.setdefault(g_prime.vertex_colour(v), []).append(v)
    ratios = set()
    for i, block in enumerate(part.blocks):
        col = colour_of_block[i]
        have = len(by_colour.get(col, []))
        if have % len(block) != 0:
            raise GadgetError(f"instance block of colour {col!r} has the wrong size")
        ratios.add(have // len(block))
    if len(ratios) != 1:
        raise GadgetError("instance block ratios differ")

    def vid(row: int, j: int, x: str) -> str:
        return f"{row}.{j}.{x}"

    out = Graph(f"garbage-{g_prime.name}")
    for row in (1, 2):
        for j in range(m):
            _paste(out, g_prime, vid(row, j, ""))

    taken: dict = {}  # how many matchings each pool has handed out
    eid = itertools.count(1)

    def wire(colour, pool, key, count, left, right, arcs=False):
        """Join copy a of ``left`` to copy b of ``right``, both (row,
        instance vertex), for each pair (a, b) of the next ``count``
        matchings of the pool (pool, key): the perfect matchings of the
        complete graph on the m copies for pools A and B, the m shifts
        j -> j + t for the others.  Arcs between the rows run forward
        along the first half of the matchings and backward along the
        rest; arcs within a row take the matchings in twos, each two
        oriented into directed cycles."""
        start = taken.get((pool, key), 0)
        if pool in ("A", "B"):
            factors = one_factorization(m)
        else:
            factors = [[(j, (j + t) % m) for j in range(m)] for t in range(m)]
        if start + count > len(factors):
            raise GadgetError("matching pool exhausted; was the degree bound computed right?")
        taken[(pool, key)] = start + count
        factors = factors[start:start + count]
        if not arcs:
            runs = [(pairs, False) for pairs in factors]
        elif left == right:
            runs = [(_orient_two_factors(a, b), False) for a, b in zip(factors[::2], factors[1::2])]
        else:
            runs = [(pairs, t >= count // 2) for t, pairs in enumerate(factors)]
        for pairs, backward in runs:
            for a, b in pairs:
                ends = (vid(left[0], a, left[1]), vid(right[0], b, right[1]))
                out.add_edge("arc" if arcs else "edge", f"g{next(eid)}", colour,
                             *(ends[::-1] if backward else ends))

    for colour in missing:
        touched = sorted({part.block_of[w] for e in h.edges() if e.colour == colour for w in e.ends},
                         key=lambda i: (len(part.blocks[i]), i))
        if len(touched) > 2:
            raise GadgetError(f"colour {colour} spans more than two blocks")
        shape = recognize_shape(h, [part.blocks[i] for i in touched], colour)
        family, params = shape.family, shape.params
        # instance vertices per touched block, a hub's before a doublet's
        rows = [sorted(by_colour[colour_of_block[i]]) for i in touched]
        if len(touched) == 1:
            # matchings within each copy row, and across the two rows: F(b,c)
            # and W(k,m,l,p,q) take one per semi-edge end and two per loop
            # within, W one per bundle edge across; FD(c) takes two per
            # directed loop across, WD(d,l,d) two per directed loop within
            # and two per arc pair across
            if family == "F":
                inner, across = params[0] + 2 * params[1], 0
            elif family == "W":
                inner, across = params[0] + 2 * params[1], params[2]
            elif family == "FD":
                inner, across = 0, 2 * params[0]
            else:
                inner, across = 2 * params[0], 2 * params[1]
            arcs = family in ("FD", "WD")
            for x in rows[0]:
                wire(colour, "A", x, inner, (1, x), (1, x), arcs)
                wire(colour, "B", x, inner, (2, x), (2, x), arcs)
                wire(colour, "C", x, across, (1, x), (2, x), arcs)
            continue
        if family == "WW" and params[0] != params[1]:
            raise GadgetError(f"missing colour {colour} is {shape}; pairing instance vertices in "
                              "sorted order keeps the cover equivalence only for WW(b,b)")
        b = params[0]
        # each instance vertex x of the first block with the vertices y1
        # and y2 of the second that it is wired to in the first and the
        # second row: FW gives a hub two doublet vertices, the others one
        if family == "FW":
            triples = [(x, rows[1][2 * t], rows[1][2 * t + 1]) for t, x in enumerate(rows[0])]
        else:
            triples = [(x, y, y) for x, y in zip(*rows)]
        for x, y1, y2 in triples:
            wire(colour, "D", frozenset((x, y1)), b, (1, x), (1, y1))
            wire(colour, "E", frozenset((x, y2)), b, (2, x), (2, y2))
            if family != "FF":
                wire(colour, "F", (x, y1), b, (1, x), (2, y1))
                wire(colour, "F", (y2, x), b, (1, y2), (2, x))
    assert_simple(out)
    return out


def random_regular(kind: str, k: int, m: int, seed: int = 0) -> tuple[Graph, dict[str, int]]:
    """A k-regular graph with a certified k-edge-colouring.

    kind 'bipartite': k <= m, on m+m vertices from complete-bipartite
    colour classes.  kind 'even': k < m, m even, from a one-factorization
    of the complete graph.  kind 'directed': k-in-k-out from 2k matchings
    taken in pairs and oriented into directed cycles (needs 2k < m).
    Returns the graph and the edge-id to colour-class map.
    """
    rng = random.Random(seed)
    colouring: dict[str, int] = {}
    g = Graph(f"{kind}-{k}-{m}")
    if kind == "bipartite":
        if not 0 < k <= m:
            raise GadgetError("need 0 < k <= m")
        for j in range(m):
            g.add_vertex(f"l{j}", "n")
        for j in range(m):
            g.add_vertex(f"r{j}", "n")
        offsets = rng.sample(range(m), k)
        perm = rng.sample(range(m), m)
        for cls, t in enumerate(offsets):
            for j in range(m):
                eid = f"e{cls}.{j}"
                g.add_edge("edge", eid, "e", f"l{j}", f"r{perm[(j + t) % m]}")
                colouring[eid] = cls
    elif kind == "even":
        if m % 2 != 0 or not 0 < k < m:
            raise GadgetError("need m even and 0 < k < m")
        for j in range(m):
            g.add_vertex(f"v{j}", "n")
        rounds = one_factorization(m)
        chosen = rng.sample(range(len(rounds)), k)
        for cls, t in enumerate(chosen):
            for a, b in rounds[t]:
                eid = f"e{cls}.{a}.{b}"
                g.add_edge("edge", eid, "e", f"v{a}", f"v{b}")
                colouring[eid] = cls
    elif kind == "directed":
        if m % 2 != 0 or not 0 < 2 * k < m:
            raise GadgetError("need m even and 0 < 2k < m")
        for j in range(m):
            g.add_vertex(f"v{j}", "n")
        rounds = one_factorization(m)
        chosen = rng.sample(range(len(rounds)), 2 * k)
        n = 0
        for cls in range(k):
            arcs = _orient_two_factors(rounds[chosen[2 * cls]], rounds[chosen[2 * cls + 1]])
            for a, b in arcs:
                n += 1
                eid = f"d{n}"
                g.add_edge("arc", eid, "d", f"v{a}", f"v{b}")
                colouring[eid] = cls
    else:
        raise GadgetError(f"unknown kind {kind!r}")
    assert_simple(g)
    return g, colouring
