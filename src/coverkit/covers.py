"""Covering projections: verification, exhaustive oracle, partial covers.

A covering projection is a pair of colour-preserving maps (vertices and
edges) that is a local bijection on darts: around every vertex of the
source, the incident edge-ends map one-to-one onto the edge-ends at the
image vertex.  Semi-edges contribute one dart, loops two, directed loops
one in- and one out-dart.  For disconnected targets all vertex fibres
must additionally have the same size (equitable covers).

The oracle here is the package's ground truth: one complete backtracking
search over block-respecting vertex maps with capacity propagation,
followed by an exact per-fibre edge assignment, both drawing on one node
budget.  It is deliberately independent of the polynomial solver's
decision logic.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from . import matching as mt
from .graphs import Darts, Graph, GraphError, IN, OUT, UND, edge_darts, is_connected, vertex_darts
from .partition import degree_partition

DEFAULT_BUDGET = 1_000_000


class BudgetExhausted(Exception):
    pass


class InternalCoverError(RuntimeError):
    """A constructed certificate failed verification; indicates a bug."""


class NotExtendable(Exception):
    """A vertex map that no edge map completes to a covering projection."""


@dataclass
class CoveringProjection:
    fv: dict[str, str]
    fe: dict[str, str]

    def to_json(self) -> str:
        return json.dumps({"fv": self.fv, "fe": self.fe}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CoveringProjection":
        data = json.loads(text)
        maps = [data.get(key) if isinstance(data, dict) else None for key in ("fv", "fe")]
        if not all(isinstance(m, dict) and all(isinstance(v, str) for v in m.values()) for m in maps):
            raise GraphError('a certificate is a JSON object whose "fv" and "fe" map ids to ids')
        return cls(dict(maps[0]), dict(maps[1]))


@dataclass
class VerifyResult:
    ok: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class OracleResult:
    status: str  # "yes" | "no" | "unknown"
    projection: CoveringProjection | None = None
    nodes: int = 0

    @property
    def yes(self) -> bool:
        return self.status == "yes"

    @property
    def no(self) -> bool:
        return self.status == "no"


# indexes ---------------------------------------------------------------------


def _h_edge_index(h: Graph) -> dict:
    by: dict = {}
    for e in h.edges():
        if e.kind == "edge":
            key = ("edge", e.colour, tuple(sorted(e.ends)))
        elif e.kind == "arc":
            key = ("arc", e.colour, (e.tail, e.head))
        else:
            key = (e.kind, e.colour, e.u)
        by.setdefault(key, []).append(e.id)
    for ids in by.values():
        ids.sort()
    return by


def _candidates_for(e, fv, by) -> list[str]:
    """Target edges an edge may map to: colour-preserving and compatible
    with the vertex images.  Encodes which kinds may fold onto which:
    edges may land on loops or semi-edges of the same fibre, arcs on
    directed loops, loops only on loops, semi-edges only on semi-edges."""
    a = e.colour
    x = fv[e.ends[0]]
    if e.kind == "edge":
        y = fv[e.ends[1]]
        if x != y:
            return by.get(("edge", a, (x, y) if x < y else (y, x)), [])
        return by.get(("loop", a, x), []) + by.get(("semi", a, x), [])
    if e.kind == "arc":
        y = fv[e.head]
        if x != y:
            return by.get(("arc", a, (x, y)), [])
        return by.get(("dloop", a, x), [])
    return by.get((e.kind, a, x), [])


def _lands_on(e, he, fv) -> bool:
    """Whether target edge ``he`` is among ``_candidates_for(e, fv, ·)``,
    read off ``he`` itself: same colour, and a kind and ends that fit the
    images of e's ends under the same folding rules."""
    if he.colour != e.colour:
        return False
    x = fv[e.ends[0]]
    if e.kind == "edge":
        y = fv[e.ends[1]]
        if x != y:
            return he.kind == "edge" and (he.ends == (x, y) or he.ends == (y, x))
        return (he.kind == "loop" or he.kind == "semi") and he.ends[0] == x
    if e.kind == "arc":
        y = fv[e.ends[1]]
        if x != y:
            return he.kind == "arc" and he.ends == (x, y)
        return he.kind == "dloop" and he.ends[0] == x
    return he.kind == e.kind and he.ends[0] == x


def _dart_tally(edges, v: str, fe: dict[str, str] | None = None) -> dict:
    """The darts of ``edges`` at ``v`` counted per (edge id, direction),
    each id read through ``fe`` when it is given."""
    tally: dict = {}
    for e in edges:
        eid = e.id if fe is None else fe[e.id]
        for tag, cnt in edge_darts(e, v):
            key = (eid, tag)
            tally[key] = tally.get(key, 0) + cnt
    return tally


class _DartTables:
    """The dart tables of a source g and a target h, walked once per call.

    ``caps[x]`` holds the darts at target vertex x keyed (colour,
    direction, other end); ``cross[u]`` the darts at source vertex u along
    normal edges, keyed (colour, direction) and then by the other end.
    """

    def __init__(self, g: Graph, h: Graph):
        # built per call and not kept on the graphs, to bound memory
        self.g = {u: vertex_darts(g, u) for u in g.vertices()}
        self.h = {x: vertex_darts(h, x) for x in h.vertices()}
        self.caps = {
            x: {(a, d, y): c for (a, d), to in t.ends.items() for y, c in to.items()}
            for x, t in self.h.items()
        }
        self.cross = {}
        for u, t in self.g.items():
            normal = ((key, {w: c for w, c in to.items() if w != u}) for key, to in t.ends.items())
            self.cross[u] = {key: to for key, to in normal if to}


def _self_darts_fit(gu: Darts, hx: Darts) -> bool:
    """u has at most as many semi-edges, loops and directed loops of every
    colour as x."""
    return all(
        c <= have.get(a, 0)
        for mine, have in ((gu.semis, hx.semis), (gu.loops, hx.loops), (gu.dloops, hx.dloops))
        for a, c in mine.items()
    )


def fibre_sizes(h: Graph, fv: dict[str, str]) -> dict[str, int]:
    sizes = {x: 0 for x in h.vertices()}
    for x in fv.values():
        sizes[x] += 1
    return sizes


# verification ---------------------------------------------------------------


def verify_cover(g: Graph, h: Graph, f: CoveringProjection) -> VerifyResult:
    """Check all preimage clauses plus equitability; violations are data."""
    violations: list[str] = []
    for v in g.vertices():
        if v not in f.fv:
            violations.append(f"vertex {v} has no image")
        elif not h.has_vertex(f.fv[v]):
            violations.append(f"vertex {v} maps to unknown vertex {f.fv[v]}")
        elif h.vertex_colour(f.fv[v]) != g.vertex_colour(v):
            violations.append(f"vertex {v} changes colour")
    violations += [f"vertex map names {v}, which is not a vertex of the source" for v in f.fv
                   if not g.has_vertex(v)]
    if violations:
        return VerifyResult(False, violations)
    if g.n == 0 and h.n > 0:
        return VerifyResult(False, ["empty graph does not cover a non-empty graph"])
    fv, fe = f.fv, f.fe
    for e in g.edges():
        if e.id not in fe:
            violations.append(f"edge {e.id} has no image")
        elif not h.has_edge(fe[e.id]):
            violations.append(f"edge {e.id} maps to unknown edge {fe[e.id]}")
        elif not _lands_on(e, h.edge(fe[e.id]), fv):
            violations.append(f"edge {e.id} -> {fe[e.id]} breaks colour or incidence")
    violations += [f"edge map names {e}, which is not an edge of the source" for e in fe
                   if not g.has_edge(e)]
    if violations:
        return VerifyResult(False, violations)
    wants: dict[str, dict] = {}
    for u in g.vertices():
        x = fv[u]
        want = wants.get(x)
        if want is None:
            want = wants[x] = _dart_tally(h.incident(x), x)
        if _dart_tally(g.incident(u), u, fe) != want:
            violations.append(f"local bijection broken at vertex {u}")
    # every key of f.fv is a vertex of g here, so this counts g's vertices
    sizes = fibre_sizes(h, f.fv)
    if len(set(sizes.values())) > 1:
        violations.append(
            "fibre sizes differ: " + ", ".join(f"{x}:{c}" for x, c in sorted(sizes.items()))
        )
    return VerifyResult(not violations, violations)


def is_degree_obedient(g: Graph, h: Graph, fv: dict[str, str]) -> bool:
    """Counting conditions a vertex map must satisfy to possibly extend:
    cross-fibre edge counts match the target multiplicities exactly, and
    within a fibre the semi-edge/loop budget t <= s, 2k + n + t = 2l + s
    holds per colour (analogously for directed colours)."""
    tables = _DartTables(g, h)
    for u in g.vertices():
        x = fv[u]
        if g.vertex_colour(u) != h.vertex_colour(x):
            return False
        gu, hx, caps = tables.g[u], tables.h[x], tables.caps[x]
        per_target: dict = {}
        for (a, d), to in tables.cross[u].items():
            for w, cnt in to.items():
                key = (a, d, fv[w])
                per_target[key] = per_target.get(key, 0) + cnt
        keys = set(per_target) | set(caps)
        for a, d, y in keys:
            n_cnt = per_target.get((a, d, y), 0)
            if y != x:
                if n_cnt != caps.get((a, d, y), 0):
                    return False
                continue
            if d == UND:
                t, k = gu.semis.get(a, 0), gu.loops.get(a, 0)
                s, l = hx.semis.get(a, 0), hx.loops.get(a, 0)
                if t > s or 2 * k + n_cnt + t != 2 * l + s:
                    return False
            elif gu.dloops.get(a, 0) + n_cnt != hx.dloops.get(a, 0):
                return False
        for a in set(gu.semis) | set(gu.loops) | set(gu.dloops):
            if (a, UND, x) in keys or (a, OUT, x) in keys or (a, IN, x) in keys:
                continue
            t, k, dl = gu.semis.get(a, 0), gu.loops.get(a, 0), gu.dloops.get(a, 0)
            s, l, hd = hx.semis.get(a, 0), hx.loops.get(a, 0), hx.dloops.get(a, 0)
            if t or k:
                if t > s or 2 * k + t != 2 * l + s:
                    return False
            if dl != hd:
                return False
    return True


# generic edge-map search ------------------------------------------------------


def _edge_map_search(g: Graph, h: Graph, fv: dict[str, str], budget_box) -> dict[str, str] | None:
    """Assign every source edge a target edge so the map is locally
    injective around every vertex: backtracking over per-vertex dart-slot
    capacities.  Local bijectivity then follows wherever degrees are full."""
    by = _h_edge_index(h)
    capv: dict = {}
    for v in g.vertices():
        x = fv[v]
        for e in h.incident(x):
            for tag, cnt in edge_darts(e, x):
                key = (v, e.id, tag)
                capv[key] = capv.get(key, 0) + cnt

    edges = list(g.edges())
    cand = {}
    for e in edges:
        c = _candidates_for(e, fv, by)
        if not c:
            return None
        cand[e.id] = c

    darts = {e.id: [(v, tag, cnt) for v in e.ends for tag, cnt in edge_darts(e, v)] for e in edges}

    def feasible(e):
        return [he for he in cand[e.id]
                if all(capv.get((v, he, tag), 0) >= cnt for v, tag, cnt in darts[e.id])]

    assignment: dict[str, str] = {}
    todo = set(range(len(edges)))

    def rec():
        if not todo:
            return True
        if budget_box[0] <= 0:
            raise BudgetExhausted()
        best, best_f = None, None
        for i in list(todo):
            f = feasible(edges[i])
            if best_f is None or len(f) < len(best_f):
                best, best_f = i, f
                if not f:
                    return False
                if len(f) == 1:
                    break
        e = edges[best]
        todo.discard(best)
        for he in best_f:
            budget_box[0] -= 1
            for v, tag, cnt in darts[e.id]:
                capv[(v, he, tag)] -= cnt
            assignment[e.id] = he
            if rec():
                return True
            del assignment[e.id]
            for v, tag, cnt in darts[e.id]:
                capv[(v, he, tag)] += cnt
        todo.add(best)
        return False

    if rec():
        return dict(assignment)
    return None


# naive exhaustive search (test oracle for the oracle) -------------------------


def naive_cover(g: Graph, h: Graph, node_limit: int = 5_000_000) -> CoveringProjection | None:
    """Brute force over all colour-preserving vertex maps and all
    compatible edge maps, filtered by verify_cover.  Deliberately free of
    any pruning cleverness; only usable for very small graphs."""
    import itertools

    gv = g.vertices()
    domains = []
    for v in gv:
        dom = [x for x in h.vertices() if h.vertex_colour(x) == g.vertex_colour(v)]
        if not dom:
            return None
        domains.append(dom)
    if g.n == 0:
        if h.n == 0:
            return CoveringProjection({}, {})
        return None
    by = _h_edge_index(h)
    eids = [e.id for e in g.edges()]
    work = 0
    for combo in itertools.product(*domains):
        fv = dict(zip(gv, combo))
        if len(set(fibre_sizes(h, fv).values())) > 1:
            continue
        cand_lists = []
        ok = True
        for e in g.edges():
            c = _candidates_for(e, fv, by)
            if not c:
                ok = False
                break
            cand_lists.append(c)
        if not ok:
            continue
        for fe_combo in itertools.product(*cand_lists):
            work += 1
            if work > node_limit:
                raise BudgetExhausted("naive search too large")
            f = CoveringProjection(fv, dict(zip(eids, fe_combo)))
            if verify_cover(g, h, f).ok:
                return f
    return None


# backtracking vertex-map search ----------------------------------------------


class _VertexSearch:
    """Backtracking over vertex images with capacity propagation.

    Domains are supplied by the caller (block-restricted for the oracle,
    colour/degree-restricted for partial covers).  An optional fibre cap
    enforces equitability: at most ``fibre_cap`` vertices share an image,
    and a full fibre drops that image from the domains of the unassigned
    vertices in the same one of ``blocks``.  For connected targets the
    caller drops the cap, since a fully capacity-consistent assignment is
    automatically equitable there.  Capacities mirror degree obedience:
    the darts a vertex sends towards any fibre may never exceed the
    target's multiplicities, and once a capacity is saturated the
    remaining unassigned neighbours lose that image.

    Without fibre caps all constraints are local (an edge, or a shared
    assigned neighbour), so when the residual constraint graph falls into
    independent components each is solved on its own and the solutions
    are combined, instead of rediscovering one component's failures once
    per assignment of the others.
    """

    DECOMPOSE_MIN = 9

    def __init__(self, g, tables: _DartTables, domains, budget_box, fibre_cap=None, blocks=()):
        self.budget = budget_box
        self.darts = tables.g
        self.caps = tables.caps
        self.cross = cross = tables.cross
        self.fibre_cap = fibre_cap
        self.order = list(g.vertices())
        self.index = {u: i for i, u in enumerate(self.order)}
        self.domains = {u: set(domains[u]) for u in self.order}
        self.assign: dict[str, str | None] = {u: None for u in self.order}
        self.used: dict[str, Counter] = {u: Counter() for u in self.order}
        self.fibre: Counter = Counter()
        self.blockmates = {u: [w for w in block if w != u] for block in blocks for u in block}
        # locality bookkeeping: a recency stack plus touch counts keep the
        # search inside one gadget region until it is finished, which is
        # what makes clause/variable instances tractable
        self.touch: Counter = Counter()
        self.recent: list[str] = []
        # descending names: on the hardness gadgets this order decides
        # more instances within a budget than ascending or incidence order
        self.nbrs = {
            u: sorted({w for ctr in cross[u].values() for w in ctr}, reverse=True)
            for u in self.order
        }

    # one undo log entry: ("dom", u, x) / ("used", u, key, delta) / ("fibre", x) / ("assign", u)

    def _undo(self, ops):
        for op in reversed(ops):
            if op[0] == "dom":
                self.domains[op[1]].add(op[2])
            elif op[0] == "used":
                self.used[op[1]][op[2]] -= op[3]
            elif op[0] == "fibre":
                self.fibre[op[1]] -= 1
            elif op[0] == "touch":
                self.touch[op[1]] -= 1
            else:
                self.assign[op[1]] = None

    def _bump(self, a, key, delta, ops):
        xa = self.assign[a]
        cap = self.caps[xa].get(key, 0)
        cur = self.used[a][key] + delta
        if cur > cap:
            return False
        self.used[a][key] = cur
        ops.append(("used", a, key, delta))
        return True

    def _try_assign(self, u, x):
        ops: list = []
        # insertion-ordered, so propagation does not follow string hashing
        dirty: dict[str, None] = {}
        failed = False

        def remove(w, y):
            nonlocal failed
            dom = self.domains[w]
            if y not in dom:
                return
            dom.discard(y)
            ops.append(("dom", w, y))
            if not dom:
                failed = True
                return
            for z in self.nbrs[w]:
                if self.assign[z] is not None:
                    dirty[z] = None

        self.assign[u] = x
        ops.append(("assign", u))
        if self.fibre_cap is not None:
            self.fibre[x] += 1
            ops.append(("fibre", x))
            if self.fibre[x] > self.fibre_cap:
                self._undo(ops)
                return None
            if self.fibre[x] == self.fibre_cap:
                for w in self.blockmates[u]:
                    if self.assign[w] is None:
                        remove(w, x)
                        if failed:
                            self._undo(ops)
                            return None
        # self darts (loops, semi-edges, directed loops)
        for (a, d), to in self.darts[u].ends.items():
            own = to.get(u)
            if own and not self._bump(u, (a, d, x), own, ops):
                self._undo(ops)
                return None
        # darts towards assigned neighbours, both directions of bookkeeping
        for (a, d), ctr in self.cross[u].items():
            for w, cnt in ctr.items():
                y = self.assign[w]
                if y is None:
                    continue
                dw = UND if d == UND else (IN if d == OUT else OUT)
                if not (self._bump(u, (a, d, y), cnt, ops) and self._bump(w, (a, dw, x), cnt, ops)):
                    self._undo(ops)
                    return None
                dirty[w] = None
        dirty[u] = None
        # counting propagation: for an assigned vertex and every image y,
        # the outstanding need must fit the unassigned neighbours that can
        # still take y; equality forces them, deficits fail, and a
        # neighbour whose multiplicity overshoots the need loses y
        while dirty and not failed:
            a_vertex, _ = dirty.popitem()
            xa = self.assign[a_vertex]
            capa = self.caps[xa]
            useda = self.used[a_vertex]
            for (a, d), ctr in self.cross[a_vertex].items():
                unassigned = [(w, m) for w, m in ctr.items() if self.assign[w] is None]
                if not unassigned:
                    continue
                targets = set()
                for w, _ in unassigned:
                    targets |= self.domains[w]
                for y in targets:
                    needed = capa.get((a, d, y), 0) - useda[(a, d, y)]
                    avail = 0
                    holders = []
                    for w, m in unassigned:
                        if y in self.domains[w]:
                            if m > needed:
                                remove(w, y)
                                if failed:
                                    break
                            else:
                                avail += m
                                holders.append(w)
                    if failed:
                        break
                    if needed > avail:
                        failed = True
                        break
                    if needed and needed == avail:
                        for w in holders:
                            if len(self.domains[w]) > 1:
                                for y2 in [v for v in self.domains[w] if v != y]:
                                    remove(w, y2)
                                    if failed:
                                        break
                            if failed:
                                break
                    if failed:
                        break
                if failed:
                    break
        if failed:
            self._undo(ops)
            return None
        # locality bookkeeping for the branching heuristic
        for w in self.nbrs[u]:
            if self.assign[w] is None:
                self.touch[w] += 1
                ops.append(("touch", w))
                self.recent.append(w)
            for z in self.nbrs[w]:
                if self.assign[z] is None:
                    self.touch[z] += 1
                    ops.append(("touch", z))
                    self.recent.append(z)
        return ops

    def _choose(self, todo):
        best, best_key = None, None
        todo_set = None
        for u in todo:
            if self.assign[u] is not None:
                continue
            size = len(self.domains[u])
            if size <= 1:
                return u
            key = (size, -self.touch[u], self.index[u])
            if best_key is None or key < best_key:
                best, best_key = u, key
        # prefer finishing the region the search is already inside
        while self.recent:
            w = self.recent[-1]
            if self.assign[w] is not None:
                self.recent.pop()
                continue
            if todo_set is None:
                todo_set = set(todo)
            if w not in todo_set:
                self.recent.pop()
                continue
            if len(self.domains[w]) == best_key[0]:
                return w
            break
        return best

    def _components(self, todo):
        """Partition unassigned vertices into groups with no constraint
        between them: direct edges and shared assigned neighbours couple."""
        todo_set = set(todo)
        parent = {v: v for v in todo}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        anchor: dict[str, str] = {}
        for v in todo:
            for w in self.nbrs[v]:
                if w in todo_set:
                    union(v, w)
                elif self.assign[w] is not None:
                    if w in anchor:
                        union(v, anchor[w])
                    else:
                        anchor[w] = v
        comps: dict[str, list[str]] = {}
        for v in todo:
            comps.setdefault(find(v), []).append(v)
        return list(comps.values())

    def solutions(self):
        for _ in self._branch(self.order):
            yield dict(self.assign)

    def _branch(self, scope):
        todo = [v for v in scope if self.assign[v] is None]
        if not todo:
            yield True
            return
        u = self._choose(todo)
        if (
            self.fibre_cap is None
            and len(self.domains[u]) > 1
            and len(todo) >= self.DECOMPOSE_MIN
        ):
            # only genuine branch points pay for the component check; unit
            # propagation chains fall straight through
            comps = self._components(todo)
            if len(comps) > 1:
                done = yield from self._branch_components(comps)
                if done:
                    return
        for x in sorted(self.domains[u]):
            if self.budget[0] <= 0:
                raise BudgetExhausted()
            self.budget[0] -= 1
            ops = self._try_assign(u, x)
            if ops is None:
                continue
            try:
                yield from self._branch(todo)
            finally:
                self._undo(ops)

    def _branch_components(self, comps):
        """Solve independent components separately.

        Any infeasible component kills the whole node at once (returns
        True without yielding), which is the point: its refutation is
        found once instead of once per assignment of the other
        components.  If every component is solvable, their first
        solutions combine into one emitted assignment; should the caller
        need further solutions, plain branching takes over (return value
        False), which keeps the enumeration complete."""
        first: list[dict] = []
        for comp in sorted(comps, key=len):
            sol = None
            gen = self._branch(comp)
            for _ in gen:
                sol = {v: self.assign[v] for v in comp}
                break
            gen.close()
            if sol is None:
                return True
            first.append(sol)
        opslist = []
        try:
            for comp_sol in first:
                for v, x in sorted(comp_sol.items()):
                    if self.assign[v] is not None:
                        continue
                    ops = self._try_assign(v, x)
                    if ops is None:
                        raise InternalCoverError(
                            "independent component solutions failed to recombine"
                        )
                    opslist.append(ops)
            yield True
        finally:
            for ops in reversed(opslist):
                self._undo(ops)
        return False


# the oracle -------------------------------------------------------------------


def _realize_edges(g: Graph, h: Graph, fv: dict[str, str], semi_step, log=None) -> dict[str, str]:
    """Extend a degree-obedient vertex map to an edge map.

    Edges are grouped by the target edges they may land on.  A group
    between two fibres is a regular bipartite multigraph and peels into
    one perfect matching per parallel target edge (Konig); the directed
    edges inside a fibre peel into one cycle cover per directed loop; the
    undirected edges inside a fibre over a vertex without semi-edges split
    into one 2-factor per loop (Petersen).  A fibre over semi-edges goes to
    ``semi_step(x, colour, verts, group, semi_ids, loop_ids)``, which
    returns the images of the edges it places, or None; the edges it
    leaves are 2-factorized over the loops it leaves free.  ``log``
    receives one line per group.  Raises NotExtendable where the map does
    not extend."""
    by = _h_edge_index(h)
    log = log or (lambda msg: None)
    fibres: dict[str, list[str]] = {}
    for w, x in sorted(fv.items()):
        fibres.setdefault(x, []).append(w)
    pairs: dict = {}
    intra_und: dict = {}
    intra_dir: dict = {}
    for e in g.edges():
        x, y = fv[e.ends[0]], fv[e.ends[-1]]
        if x != y:
            loc = (y, x) if e.kind == "edge" and y < x else (x, y)
            pairs.setdefault((e.kind, e.colour, loc), []).append(e)
        elif e.directed:
            intra_dir.setdefault((e.colour, x), []).append(e)
        else:
            intra_und.setdefault((e.colour, x), []).append(e)
    fe: dict[str, str] = {}

    def spread(h_ids, split, edges, what):
        try:
            parts = split(edges, len(h_ids))
        except mt.MatchingError as exc:
            raise NotExtendable(f"{what}: {exc}") from exc
        for he, part in zip(h_ids, parts):
            for eid in part:
                fe[eid] = he

    for key in sorted(pairs):
        kind, colour, loc = key
        group, h_ids = pairs[key], by.get(key, [])
        if not h_ids:
            raise NotExtendable(f"no target edge for group {key}")
        if len(h_ids) == 1:
            for e in group:
                fe[e.id] = h_ids[0]
            log(f"forced {len(group)} edges onto {h_ids[0]}")
            continue
        if kind == "edge":
            x = loc[0]
            items = [(e.id, ("L", e.u if fv[e.u] == x else e.v), ("R", e.v if fv[e.u] == x else e.u))
                     for e in group]
        else:
            items = [(e.id, ("L", e.tail), ("R", e.head)) for e in group]
        spread(h_ids, mt.bipartite_peel, items, f"fibre-pair group {key} not factorizable")
        log(f"factorized {len(group)} edges into {len(h_ids)} bundles at {key}")

    for (colour, x), group in sorted(intra_dir.items()):
        h_ids = by.get(("dloop", colour, x), [])
        if not h_ids:
            raise NotExtendable(f"no directed loop target at {x} for colour {colour}")
        if len({e.tail for e in group}) != len(fibres[x]):
            raise NotExtendable(f"directed fibre at {x} has a vertex without out-darts")
        spread(h_ids, mt.peel_cycle_covers, group, f"directed fibre at {x} not decomposable")
        log(f"directed decomposition of {len(group)} arcs at fibre {x}")

    for (colour, x), group in sorted(intra_und.items()):
        semi_ids = by.get(("semi", colour, x), [])
        loop_ids = by.get(("loop", colour, x), [])
        verts = fibres[x]
        free = loop_ids
        if semi_ids:
            placed = semi_step(x, colour, verts, group, semi_ids, loop_ids)
            if placed is None:
                raise NotExtendable(f"semi-edge class at fibre {x} colour {colour} does not extend")
            fe.update(placed)
            used = set(placed.values())
            free = [he for he in loop_ids if he not in used]
        elif any(e.kind == "semi" for e in group):
            raise NotExtendable(f"semi-edge over a semi-free fibre {x}")
        residual = [e for e in group if e.id not in fe]
        if residual or free:
            sub = Graph._derive("fibre", dict.fromkeys(verts, "f"))
            sub._put(residual)
            spread(free, mt.two_factorization, sub, f"fibre at {x} not 2-factorizable")
        log(f"fibre {x} colour {colour}: {len(group)} edges distributed")
    return fe


def _exact_semi_step(h: Graph, budget_box):
    """The oracle's step for fibres over semi-edges: an exact dart
    assignment against the one target vertex (these can be genuinely
    hard)."""

    def step(x, colour, verts, group, semi_ids, loop_ids):
        target = Graph("t")
        target.add_vertex("x", h.vertex_colour(x))
        for i, _ in enumerate(semi_ids):
            target.add_edge("semi", f"s{i}", colour, "x")
        for i, _ in enumerate(loop_ids):
            target.add_edge("loop", f"l{i}", colour, "x")
        sub = Graph._derive("fibre", dict.fromkeys(verts, h.vertex_colour(x)))
        sub._put(group)
        sub_fe = _edge_map_search(sub, target, {w: "x" for w in verts}, budget_box)
        if sub_fe is None:
            return None
        rename = {f"s{i}": he for i, he in enumerate(semi_ids)}
        rename.update({f"l{i}": he for i, he in enumerate(loop_ids)})
        return {eid: rename[the] for eid, the in sub_fe.items()}

    return step


def oracle_cover(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Complete within budget: 'yes' with a verified certificate, 'no', or
    'unknown' when the node budget ran out.  The budget must be at least 1."""
    if budget < 1:
        raise ValueError(f"the node budget must be at least 1, got {budget}")
    if h.n == 0:
        if g.n == 0:
            return OracleResult("yes", CoveringProjection({}, {}))
        return OracleResult("no")
    if g.n == 0:
        return OracleResult("no")
    pg, mg = degree_partition(g)
    ph, mh = degree_partition(h)
    if pg.k != ph.k or mg != mh:
        return OracleResult("no")
    if g.n % h.n != 0:
        return OracleResult("no")
    r = g.n // h.n
    for i in range(pg.k):
        if len(pg.blocks[i]) != r * len(ph.blocks[i]):
            return OracleResult("no")
    tables = _DartTables(g, h)
    domains = {}
    for i, block in enumerate(pg.blocks):
        for u in block:
            dom = {x for x in ph.blocks[i] if _self_darts_fit(tables.g[u], tables.h[x])}
            if not dom:
                return OracleResult("no")
            domains[u] = dom
    budget_box = [budget]
    if is_connected(h):
        # fibre equality is implied for connected targets, so the caps can
        # go, which in turn lets the search decompose into independent
        # components
        search = _VertexSearch(g, tables, domains, budget_box)
    else:
        search = _VertexSearch(g, tables, domains, budget_box, fibre_cap=r, blocks=pg.blocks)
    try:
        for fv in search.solutions():
            try:
                fe = _realize_edges(g, h, fv, _exact_semi_step(h, budget_box))
            except NotExtendable:
                continue
            proj = CoveringProjection(fv, fe)
            check = verify_cover(g, h, proj)
            if not check.ok:
                raise InternalCoverError(f"oracle built an invalid certificate: {check.violations}")
            return OracleResult("yes", proj, budget - budget_box[0])
        return OracleResult("no", None, budget - budget_box[0])
    except BudgetExhausted:
        return OracleResult("unknown", None, budget)


# partial covering projections --------------------------------------------------


def partial_covers(g: Graph, h: Graph, fix: dict[str, str] | None = None,
                   budget: int = DEFAULT_BUDGET, vertex_maps_only: bool = False):
    """Enumerate partial covering projections: total colour-preserving maps
    whose edge assignment is locally injective around every vertex.

    Yields CoveringProjection objects (one witness edge map per vertex
    map).  ``fix`` pins chosen vertex images.  With ``vertex_maps_only``
    the edge map search is still run, but only the vertex map dict is
    yielded.  Raises BudgetExhausted when the node budget runs out.
    """
    tables = _DartTables(g, h)
    fix = fix or {}
    domains = {}
    for u in g.vertices():
        gu = tables.g[u]
        # room for every colour and direction of darts, and for the self darts
        dom = {
            x for x in h.vertices()
            if h.vertex_colour(x) == g.vertex_colour(u)
            and _self_darts_fit(gu, tables.h[x])
            and all(sum(to.values()) <= sum(tables.h[x].ends.get(key, {}).values())
                    for key, to in gu.ends.items())
        }
        if u in fix:
            dom &= {fix[u]}
        if not dom:
            return
        domains[u] = dom
    budget_box = [budget]
    search = _VertexSearch(g, tables, domains, budget_box)
    for fv in search.solutions():
        fe = _edge_map_search(g, h, fv, budget_box)
        if fe is None:
            continue
        if vertex_maps_only:
            yield dict(fv)
        else:
            yield CoveringProjection(dict(fv), fe)
