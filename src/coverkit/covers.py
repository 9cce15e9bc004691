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
from bisect import bisect_left
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from . import matching as mt
from .graphs import Darts, Graph, GraphError, IN, OUT, UND, edge_darts, is_connected, vertex_darts
from .partition import degree_partition

DEFAULT_BUDGET = 1_000_000
_REVERSED = {UND: UND, OUT: IN, IN: OUT}


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
        """``json.dumps`` of both maps with ``indent=2, sort_keys=True``.
        An indent makes json use its pure-Python encoder, so maps of
        strings to strings are written here instead, each string through
        json's C escaper, to the same bytes."""
        enc = encode_basestring_ascii
        try:
            maps = [(name, ",\n    ".join([f"{enc(a)}: {enc(b)}" for a, b in sorted(m.items())]))
                    for name, m in (("fe", self.fe), ("fv", self.fv))]
        except TypeError:  # a key or an image that is not a string
            return json.dumps({"fv": self.fv, "fe": self.fe}, indent=2, sort_keys=True)
        return "{\n" + ",\n".join(f'  "{name}": {{\n    {rows}\n  }}' if rows else f'  "{name}": {{}}'
                                   for name, rows in maps) + "\n}"

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
    each id read through ``fe`` when it is given; the counts are those of
    ``graphs.edge_darts``."""
    tally: dict = {}
    for e in edges:
        eid = e.id if fe is None else fe[e.id]
        kind = e.kind
        if kind == "arc":
            key = (eid, OUT if e.ends[0] == v else IN)
        elif kind == "dloop":
            key = (eid, OUT)
            tally[key] = tally.get(key, 0) + 1
            key = (eid, IN)
        else:
            key = (eid, UND)
            if kind == "loop":
                tally[key] = tally.get(key, 0) + 2
                continue
        tally[key] = tally.get(key, 0) + 1
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
            want = wants[x] = _dart_tally(h._inc[x], x)
        if _dart_tally(g._inc[u], u, fe) != want:
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


# undo trail tags; every change the trail records commutes with the others
# made since the same mark, so a trail can be undone in any order
_DOM, _USED, _TOUCH, _FIBRE, _ASSIGN = range(5)


class _VertexSearch:
    """Backtracking over vertex images with capacity propagation.

    Domains are supplied by the caller (block-restricted for the oracle,
    colour/degree-restricted for partial covers), and ``exact`` says
    whether they are degree-exact: whether every dart of an image must be
    the image of a dart, as in a cover (the oracle's domains), or may be
    left unused, as in a partial cover.  An optional fibre cap enforces
    equitability: at most ``fibre_cap`` vertices share an image, and a
    full fibre drops that image from the domains of the unassigned
    vertices in the same one of ``blocks``.  For connected targets the
    caller drops the cap, since a fully capacity-consistent assignment is
    automatically equitable there.  Capacities mirror degree obedience:
    the darts a vertex sends towards any fibre may never exceed the
    target's multiplicities, and once a capacity is saturated the
    remaining unassigned neighbours lose that image.  Only for exact
    domains must the capacities also fill up, which is what the deficit
    and forcing rules of ``_propagate`` rely on.

    Representation.  Source vertices are the ints 0..n-1 in
    ``g.vertices()`` order and target vertices the ints 0..|h|-1 in
    sorted-name order.  A domain is an int bitmask over target ids, so
    walking its bits from low to high visits images in name order.  Every
    (colour, direction) pair has a key id; ``caps[x]`` and ``used[u]`` are
    flat lists indexed by key id * |h| + image, the darts target vertex x
    has towards each image and the darts source vertex u already sends
    there.  Each source vertex carries its rows once: self rows
    (slot base, count) for its loops, semi-edges and directed loops, and
    cross rows (slot base, reversed slot base, ((w, count), ...)) for its
    darts towards other vertices.  The undo trail holds small tuples
    tagged with ints.

    Why the propagation order does not change the answer: every rule only
    removes images, and what a rule removes from a domain it also removes
    from any smaller one (or fails there), so the removals reach the same
    fixpoint in any order.  The deficit test looks at the images some
    unassigned neighbour held when its row's scan began, so an image all
    neighbours lose during that scan fails the node at once, while one
    lost before it is caught further down; for exact domains both are
    dead ends.  Images are visited in bit order and dirty vertices
    last-in first-out, so the tree is the same under every hash seed.

    Without fibre caps all constraints are local (an edge, or a shared
    assigned neighbour), so when the residual constraint graph falls into
    independent components each is solved on its own and the solutions
    are combined, instead of rediscovering one component's failures once
    per assignment of the others.  ``_branch`` carries the fact that its
    scope is connected down the recursion and, after assigning u,
    re-proves it locally (``_stays_connected``); only where that proof
    fails does a branch point walk the whole scope (``_components``).
    """

    DECOMPOSE_MIN = 9

    def __init__(self, tables: _DartTables, domains, budget_box, exact, fibre_cap=None, blocks=()):
        self.budget = budget_box
        self.exact = exact
        self.fibre_cap = fibre_cap
        self.names = names = list(tables.g)
        self.images = images = sorted(tables.h)
        index = {u: i for i, u in enumerate(names)}
        image = {x: i for i, x in enumerate(images)}
        keys: dict = {}
        for t in (*tables.g.values(), *tables.h.values()):
            for a, d in t.ends:
                keys.setdefault((a, d), len(keys))
                keys.setdefault((a, _REVERSED[d]), len(keys))
        nh = len(images)
        self.caps = [[0] * (len(keys) * nh) for _ in images]
        for x, t in tables.h.items():
            row = self.caps[image[x]]
            for key, to in t.ends.items():
                for y, c in to.items():
                    row[keys[key] * nh + image[y]] = c
        self.used = [[0] * (len(keys) * nh) for _ in names]
        self.self_rows = [
            [(keys[key] * nh, to[u]) for key, to in tables.g[u].ends.items() if to.get(u)]
            for u in names
        ]
        self.cross_rows = [
            [(keys[(a, d)] * nh, keys[(a, _REVERSED[d])] * nh,
              tuple((index[w], m) for w, m in to.items()))
             for (a, d), to in tables.cross[u].items()]
            for u in names
        ]
        self.domains = [sum(1 << image[x] for x in domains[u]) for u in names]
        self.assign = [-1] * len(names)
        self.fibre = [0] * nh
        self.blockmates = [[] for _ in names]
        for block in blocks:
            for u in block:
                self.blockmates[index[u]] = [index[w] for w in block if w != u]
        # locality bookkeeping: a recency stack plus touch counts keep the
        # search inside one gadget region until it is finished, which is
        # what makes clause/variable instances tractable
        self.touch = [0] * len(names)
        self.recent: list[int] = []
        # descending names: on the hardness gadgets this order decides
        # more instances within a budget than ascending or incidence order
        self.nbrs = [
            [index[w] for w in sorted({w for to in tables.cross[u].values() for w in to},
                                      reverse=True)]
            for u in names
        ]

    def _undo(self, ops):
        domains, used, touch = self.domains, self.used, self.touch
        for op in ops:
            tag = op[0]
            if tag == _DOM:
                domains[op[1]] |= op[2]
            elif tag == _USED:
                used[op[1]][op[2]] -= op[3]
            elif tag == _TOUCH:
                for w in op[1]:
                    touch[w] -= 1
            elif tag == _FIBRE:
                self.fibre[op[1]] -= 1
            else:
                self.assign[op[1]] = -1

    def _remove(self, w, drop, ops, dirty) -> bool:
        """Take the images ``drop`` (all in w's domain) out of it; False
        when the domain runs empty.  w's assigned neighbours get dirty."""
        left = self.domains[w] ^ drop
        self.domains[w] = left
        ops.append((_DOM, w, drop))
        if not left:
            return False
        assign = self.assign
        for z in self.nbrs[w]:
            if assign[z] >= 0:
                dirty[z] = None
        return True

    def _try_assign(self, u, x):
        """Assign image x to u and propagate: the undo trail, or None with
        the state unchanged when propagation fails."""
        ops: list = []
        if self._assign(u, x, ops):
            return ops
        self._undo(ops)
        return None

    def _assign(self, u, x, ops) -> bool:
        assign, domains, used, caps = self.assign, self.domains, self.used, self.caps
        # insertion-ordered, and popped last-in first-out
        dirty: dict[int, None] = {}
        assign[u] = x
        ops.append((_ASSIGN, u))
        if self.fibre_cap is not None:
            self.fibre[x] += 1
            ops.append((_FIBRE, x))
            if self.fibre[x] > self.fibre_cap:
                return False
            if self.fibre[x] == self.fibre_cap:
                bit = 1 << x
                for w in self.blockmates[u]:
                    if assign[w] < 0 and domains[w] & bit and not self._remove(w, bit, ops, dirty):
                        return False
        used_u, cap_x = used[u], caps[x]
        # self darts (loops, semi-edges, directed loops)
        for base, own in self.self_rows[u]:
            slot = base + x
            now = used_u[slot] + own
            if now > cap_x[slot]:
                return False
            used_u[slot] = now
            ops.append((_USED, u, slot, own))
        # darts towards assigned neighbours, both directions of bookkeeping
        for base, rbase, row in self.cross_rows[u]:
            for w, m in row:
                y = assign[w]
                if y < 0:
                    continue
                slot, rslot = base + y, rbase + x
                now = used_u[slot] + m
                if now > cap_x[slot]:
                    return False
                used_u[slot] = now
                ops.append((_USED, u, slot, m))
                used_w = used[w]
                now = used_w[rslot] + m
                if now > caps[y][rslot]:
                    return False
                used_w[rslot] = now
                ops.append((_USED, w, rslot, m))
                dirty[w] = None
        dirty[u] = None
        if not self._propagate(dirty, ops):
            return False
        # locality bookkeeping for the branching heuristic
        nbrs = self.nbrs
        touched = []
        for w in nbrs[u]:
            if assign[w] < 0:
                touched.append(w)
            for z in nbrs[w]:
                if assign[z] < 0:
                    touched.append(z)
        touch = self.touch
        for w in touched:
            touch[w] += 1
        self.recent += touched
        ops.append((_TOUCH, touched))
        return True

    def _propagate(self, dirty, ops) -> bool:
        """Counting propagation: for an assigned vertex and every image y,
        a neighbour whose multiplicity overshoots the outstanding need
        loses y.  With exact domains the need must also fit the unassigned
        neighbours that can still take y: equality forces them and
        deficits fail."""
        assign, domains, exact = self.assign, self.domains, self.exact
        remove = self._remove
        while dirty:
            a = dirty.popitem()[0]
            cap_a, used_a = self.caps[assign[a]], self.used[a]
            for base, _, row in self.cross_rows[a]:
                unassigned = [(w, m) for w, m in row if assign[w] < 0]
                if not unassigned:
                    continue
                targets = 0
                for w, _ in unassigned:
                    targets |= domains[w]
                while targets:
                    bit = targets & -targets
                    targets ^= bit
                    slot = base + bit.bit_length() - 1
                    needed = cap_a[slot] - used_a[slot]
                    avail = 0
                    holders = []
                    for w, m in unassigned:
                        if domains[w] & bit:
                            if m > needed:
                                if not remove(w, bit, ops, dirty):
                                    return False
                            else:
                                avail += m
                                holders.append(w)
                    if not exact:
                        continue
                    if needed > avail:
                        return False
                    if needed and needed == avail:
                        for w in holders:
                            if domains[w] != bit:
                                remove(w, domains[w] ^ bit, ops, dirty)
        return True

    def _choose(self, todo):
        domains, touch = self.domains, self.touch
        # least domain, then most touched, then first in the scope
        best, best_size, best_touch = -1, 0, 0
        for u in todo:
            size = domains[u].bit_count()
            if size <= 1:
                return u
            if best < 0 or size < best_size or (size == best_size and touch[u] > best_touch):
                best, best_size, best_touch = u, size, touch[u]
        # prefer finishing the region the search is already inside
        recent = self.recent
        while recent:
            w = recent[-1]
            # scopes are ascending id lists
            at = bisect_left(todo, w)
            if self.assign[w] >= 0 or at == len(todo) or todo[at] != w:
                recent.pop()
                continue
            if domains[w].bit_count() == best_size:
                return w
            break
        return best

    def _components(self, todo):
        """Partition unassigned vertices into groups with no constraint
        between them: direct edges and shared assigned neighbours couple.
        Groups come in order of their least id, each in ascending order."""
        assign, nbrs = self.assign, self.nbrs
        left = set(todo)
        anchors = set()
        comps = []
        for start in todo:
            if start not in left:
                continue
            left.discard(start)
            comp, stack = [start], [start]
            while stack:
                for w in nbrs[stack.pop()]:
                    if w in left:
                        left.discard(w)
                        comp.append(w)
                        stack.append(w)
                    elif assign[w] >= 0 and w not in anchors:
                        anchors.add(w)
                        for z in nbrs[w]:
                            if z in left:
                                left.discard(z)
                                comp.append(z)
                                stack.append(z)
            comp.sort()
            comps.append(comp)
        return comps

    def _stays_connected(self, u) -> bool:
        """Whether a connected scope is still connected now that u is
        assigned.  Every coupling lost ran through u, to a vertex of one
        of these groups: u's unassigned neighbours, which u now couples,
        and the unassigned neighbours of each assigned neighbour of u.  If
        shared members and direct edges join the groups, the rest of the
        scope stays connected.  False means unproven, not split."""
        assign, nbrs = self.assign, self.nbrs
        groups = []
        near = [w for w in nbrs[u] if assign[w] < 0]
        if near:
            groups.append(near)
        for z in nbrs[u]:
            if assign[z] >= 0:
                group = [w for w in nbrs[z] if assign[w] < 0]
                if group:
                    groups.append(group)
        if len(groups) < 2:
            return True
        root = list(range(len(groups)))
        joins = 0

        def join(i, j):
            nonlocal joins
            while root[i] != i:
                i = root[i]
            while root[j] != j:
                j = root[j]
            if i != j:
                root[max(i, j)] = min(i, j)
                joins += 1

        owner: dict[int, int] = {}
        for i, group in enumerate(groups):
            for w in group:
                j = owner.setdefault(w, i)
                if j != i:
                    join(i, j)
        for w, i in owner.items():
            for z in nbrs[w]:
                j = owner.get(z)
                if j is not None:
                    join(i, j)
        return joins == len(groups) - 1

    def solutions(self):
        names, images = self.names, self.images
        for _ in self._branch(range(len(names))):
            yield {u: images[x] for u, x in zip(names, self.assign)}

    def _branch(self, scope, connected=False):
        """Search the unassigned vertices of ``scope``; ``connected`` is
        the proven fact that they form one component."""
        assign = self.assign
        todo = [v for v in scope if assign[v] < 0]
        if not todo:
            yield True
            return
        u = self._choose(todo)
        dom = self.domains[u]
        # only genuine branch points pay for the component check; unit
        # propagation chains fall straight through
        if (
            not connected
            and self.fibre_cap is None
            and dom & (dom - 1)
            and len(todo) >= self.DECOMPOSE_MIN
        ):
            comps = self._components(todo)
            if len(comps) > 1:
                done = yield from self._branch_components(comps)
                if done:
                    return
            else:
                connected = True
        budget = self.budget
        while dom:
            bit = dom & -dom
            dom ^= bit
            if budget[0] <= 0:
                raise BudgetExhausted()
            budget[0] -= 1
            ops = self._try_assign(u, bit.bit_length() - 1)
            if ops is None:
                continue
            # no component check runs below DECOMPOSE_MIN, so the fact is
            # not needed there
            still = connected and (len(todo) <= self.DECOMPOSE_MIN or self._stays_connected(u))
            try:
                yield from self._branch(todo, still)
            finally:
                self._undo(ops)

    def _branch_components(self, comps):
        """Solve independent components separately.

        Any infeasible component kills the whole node at once (returns
        True without yielding), which is the point: its refutation is
        found once instead of once per assignment of the other
        components.  If every component is solvable, their first
        solutions combine into one emitted assignment, applied in
        vertex-name order; should the caller need further solutions,
        plain branching takes over (return value False), which keeps the
        enumeration complete."""
        first: list[list] = []
        for comp in sorted(comps, key=len):
            sol = None
            gen = self._branch(comp, True)
            for _ in gen:
                sol = [(v, self.assign[v]) for v in comp]
                break
            gen.close()
            if sol is None:
                return True
            first.append(sol)
        names = self.names
        opslist = []
        try:
            for comp_sol in first:
                for v, x in sorted(comp_sol, key=lambda vx: names[vx[0]]):
                    if self.assign[v] >= 0:
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


def _check_budget(budget) -> None:
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"the node budget must be an int of at least 1, got {budget!r}")


def oracle_cover(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Complete within budget: 'yes' with a verified certificate, 'no', or
    'unknown' when the node budget ran out.  The budget must be an int of
    at least 1 (ValueError otherwise)."""
    _check_budget(budget)
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
        search = _VertexSearch(tables, domains, budget_box, exact=True)
    else:
        search = _VertexSearch(tables, domains, budget_box, exact=True, fibre_cap=r, blocks=pg.blocks)
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

    Returns an iterator of CoveringProjection objects (one witness edge
    map per vertex map).  ``fix`` pins chosen vertex images.  With
    ``vertex_maps_only`` the edge map search is still run, but only the
    vertex map dict is yielded.  Raises ValueError at once for a budget
    that is not an int of at least 1, or a ``fix`` that names a vertex
    outside g or an image outside h; the iterator raises BudgetExhausted
    when the node budget runs out.
    """
    _check_budget(budget)
    fix = fix or {}
    for u, x in fix.items():
        if not g.has_vertex(u):
            raise ValueError(f"fix names {u!r}, which is not a vertex of the source")
        if not h.has_vertex(x):
            raise ValueError(f"fix maps {u!r} to {x!r}, which is not a vertex of the target")
    return _partial_covers(g, h, fix, budget, vertex_maps_only)


def _partial_covers(g: Graph, h: Graph, fix: dict[str, str], budget: int, vertex_maps_only: bool):
    tables = _DartTables(g, h)
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
    # a partial cover may leave target darts unused
    search = _VertexSearch(tables, domains, budget_box, exact=False)
    for fv in search.solutions():
        fe = _edge_map_search(g, h, fv, budget_box)
        if fe is None:
            continue
        if vertex_maps_only:
            yield dict(fv)
        else:
            yield CoveringProjection(dict(fv), fe)
