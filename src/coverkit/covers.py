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
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from . import matching as mt
from .graphs import Darts, Graph, GraphError, IN, OUT, UND, darts, derive, is_connected, vertex_darts
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
    """An oracle answer.  ``reason`` names the check that settled it:
    ``partition`` (block counts or refinement matrices differ), ``fold``
    (the vertex counts admit no whole fold of at least 1), ``block sizes``
    (a block's size is not the fold times its target block's), ``self
    darts`` (some vertex fits no image's loops, semi-edges and directed
    loops), ``parity`` (the degree rows have no solution mod 2;
    ``witness`` lists the ids of rows summing to 0 = 1, which
    ``verify_parity`` re-checks), ``search`` (the search tree holds no
    cover), ``budget`` (the node budget ran out: "unknown") or ``cover``
    (a verified "yes")."""

    status: str  # "yes" | "no" | "unknown"
    projection: CoveringProjection | None = None
    nodes: int = 0
    reason: str = ""
    witness: list | None = None

    @property
    def yes(self) -> bool:
        return self.status == "yes"

    @property
    def no(self) -> bool:
        return self.status == "no"


# indexes ---------------------------------------------------------------------


def _sites(h: Graph) -> dict[str, tuple]:
    """Each target edge's id with the site it is filed under: its kind,
    its colour and its ends, an edge's in sorted order."""
    eids, kinds, colours, first, last = h.columns()
    return {eid: (kind, colour, (a,) if a == b else (b, a) if kind == "edge" and b < a else (a, b))
            for eid, kind, colour, a, b in zip(eids, kinds, colours, first, last)}


def _landing_sites(kind: str, colour: str, x: str, y: str) -> tuple:
    """The folding rule: the sites (see ``_sites``) a source edge of this
    kind and colour may land on when its first end maps to x and its last
    to y.  Between two fibres an edge or arc lands on an edge or arc
    joining the images.  Inside a fibre an edge lands on a loop or a
    semi-edge and an arc on a directed loop, while a loop, semi-edge or
    directed loop lands only on its own kind."""
    if x != y:
        return ((kind, colour, (x, y) if kind == "arc" or x < y else (y, x)),)
    if kind == "edge":
        return (("loop", colour, (x,)), ("semi", colour, (x,)))
    return (("dloop" if kind == "arc" else kind, colour, (x,)),)


def _h_edge_index(h: Graph) -> dict:
    """The target's edge ids filed by site, each list sorted."""
    by: dict = {}
    for eid, site in _sites(h).items():
        by.setdefault(site, []).append(eid)
    for ids in by.values():
        ids.sort()
    return by


def _candidates_for(kind: str, colour: str, x: str, y: str, by) -> list[str]:
    """Target edges an edge of this kind and colour may map to when its
    first end maps to x and its last to y: those filed in ``by`` at its
    landing sites."""
    return [he for site in _landing_sites(kind, colour, x, y) for he in by.get(site, ())]


def _dart_tally(g: Graph, v: str) -> dict:
    """The ``darts`` of ``v`` counted per (edge id, direction)."""
    eids, _, _, _, _ = g.columns()
    tally: dict = {}
    for k, d, _, c in darts(g, v):
        key = (eids[k], d)
        tally[key] = tally.get(key, 0) + c
    return tally


class _DartTables:
    """The dart tables of a source g and a target h, walked once per call.

    ``cross[u]`` holds the darts at source vertex u along normal edges,
    keyed (colour, direction) and then by the other end: for a vertex
    without self darts, its ``ends`` themselves.
    """

    def __init__(self, g: Graph, h: Graph):
        # built per call and not kept on the graphs, to bound memory
        self.g = {u: vertex_darts(g, u) for u in g.vertices()}
        self.h = {x: vertex_darts(h, x) for x in h.vertices()}
        self.cross = {}
        for u, t in self.g.items():
            if t.semis or t.loops or t.dloops:
                normal = ((key, {w: c for w, c in to.items() if w != u}) for key, to in t.ends.items())
                self.cross[u] = {key: to for key, to in normal if to}
            else:
                self.cross[u] = t.ends


def _twin_classes(g: Graph, tables: _DartTables) -> list[list[str]]:
    """The source vertices that share a vertex colour, their semi-edge,
    loop and directed-loop counts and ``cross`` (every (colour,
    direction) with its other ends and counts), in classes of two or more
    in ``g.vertices()`` order.  Equal ``cross`` rules out an edge between
    twins, so swapping two of them is an automorphism of g.  A vertex
    without cross darts joins no class: nothing would keep it in its
    twins' component when the search splits."""
    classes: dict = {}
    colour = g.vertex_colour
    for u, t in tables.g.items():
        cross = tables.cross[u]
        if cross:
            # per (colour, direction) one tuple of it and its (end, count)
            # pairs, then the self darts behind None, if there are any
            key = (colour(u), *[(k, *sorted(to.items())) for k, to in sorted(cross.items())])
            if t.semis or t.loops or t.dloops:
                key += (None, *[tuple(sorted(counts.items())) for counts in (t.semis, t.loops, t.dloops)])
            classes.setdefault(key, []).append(u)
    return [members for members in classes.values() if len(members) > 1]


def _target_twin_classes(tables: _DartTables, blocks) -> list[list[str]]:
    """The target vertices x and y for which swapping x and y is an
    automorphism of h, in classes of two or more: those with the same
    colour and self darts, the same darts of every colour and direction
    towards every third vertex, and as many darts of each towards the
    other as the other has towards them.  Each class lies in one of
    ``blocks``, h's degree partition, whose blocks share a colour and
    which every automorphism keeps.  The relation is an equivalence, as
    (x y)(y z)(x y) = (x z), so each vertex is compared with the first
    member of each class so far."""
    th = tables.h
    found = []
    for block in blocks:
        classes: list[list[str]] = []
        for y in block:
            ty = th[y]
            for members in classes:
                x = members[0]
                tx = th[x]
                swap = {x: y, y: x}
                if ((tx.semis, tx.loops, tx.dloops) == (ty.semis, ty.loops, ty.dloops)
                        and tx.ends.keys() == ty.ends.keys()
                        and all({swap.get(w, w): c for w, c in to.items()} == ty.ends[key]
                                for key, to in tx.ends.items())):
                    members.append(y)
                    break
            else:
                classes.append([y])
        found += [members for members in classes if len(members) > 1]
    return found


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
    """Check all preimage clauses plus equitability; violations are data.

    The vertex map and the edge map are each compared whole first: their
    keys, then the images' colours or landing sites.  Only a map that
    fails that comparison is scanned, in vertex or edge order, for the
    violations to report."""
    fv, fe = f.fv, f.fe
    vertices = g.vertices()
    hcolour = {x: h.vertex_colour(x) for x in h.vertices()}
    if (fv.keys() != set(vertices)
            or list(map(hcolour.get, map(fv.__getitem__, vertices))) != list(map(g.vertex_colour, vertices))):
        return VerifyResult(False, _vertex_violations(g, h, fv))
    if g.n == 0 and h.n > 0:
        return VerifyResult(False, ["empty graph does not cover a non-empty graph"])
    site = _sites(h)
    eids, kinds, colours, first, last = g.columns()
    # with as many keys as g has edges, fe names no other key once every
    # edge of g finds its image
    landed = len(fe) == g.m
    if landed:
        # each edge's image, by handle
        image = list(map(fe.get, eids))
        # the landing sites of each (kind, colour, end images), found once
        sites_of: dict = {}
        for he, key in zip(image, zip(kinds, colours, map(fv.__getitem__, first), map(fv.__getitem__, last))):
            sites = sites_of.get(key)
            if sites is None:
                sites = sites_of[key] = _landing_sites(*key)
            if site.get(he) not in sites:
                landed = False
                break
    if not landed:
        return VerifyResult(False, _edge_violations(g, fv, fe, site))
    violations: list[str] = []
    wants: dict[str, dict] = {}
    for u in vertices:
        x = fv[u]
        want = wants.get(x)
        if want is None:
            want = wants[x] = _dart_tally(h, x)
        # the darts of u counted per (image id, direction)
        tally: dict = {}
        for k, d, _, c in darts(g, u):
            key = (image[k], d)
            tally[key] = tally.get(key, 0) + c
        if tally != want:
            violations.append(f"local bijection broken at vertex {u}")
    # every key of f.fv is a vertex of g here, so this counts g's vertices
    sizes = fibre_sizes(h, fv)
    if len(set(sizes.values())) > 1:
        violations.append(
            "fibre sizes differ: " + ", ".join(f"{x}:{c}" for x, c in sorted(sizes.items()))
        )
    return VerifyResult(not violations, violations)


def _vertex_violations(g: Graph, h: Graph, fv: dict[str, str]) -> list[str]:
    """Every fault of a vertex map, in vertex order, then the names it
    maps that are not vertices of g."""
    violations: list[str] = []
    for v in g.vertices():
        if v not in fv:
            violations.append(f"vertex {v} has no image")
        elif not h.has_vertex(fv[v]):
            violations.append(f"vertex {v} maps to unknown vertex {fv[v]}")
        elif h.vertex_colour(fv[v]) != g.vertex_colour(v):
            violations.append(f"vertex {v} changes colour")
    return violations + [f"vertex map names {v}, which is not a vertex of the source" for v in fv
                         if not g.has_vertex(v)]


def _edge_violations(g: Graph, fv: dict[str, str], fe: dict[str, str], site: dict) -> list[str]:
    """Every fault of an edge map over a sound vertex map, in edge order,
    then the names it maps that are not edges of g; ``site`` maps the
    target's edge ids to their sites, as ``_sites`` does."""
    violations: list[str] = []
    for e in g.edges():
        if e.id not in fe:
            violations.append(f"edge {e.id} has no image")
        elif fe[e.id] not in site:
            violations.append(f"edge {e.id} maps to unknown edge {fe[e.id]}")
        elif site[fe[e.id]] not in _landing_sites(e.kind, e.colour, fv[e.ends[0]], fv[e.ends[-1]]):
            violations.append(f"edge {e.id} -> {fe[e.id]} breaks colour or incidence")
    return violations + [f"edge map names {e}, which is not an edge of the source" for e in fe
                         if not g.has_edge(e)]


def is_degree_obedient(g: Graph, h: Graph, fv: dict[str, str]) -> bool:
    """The dart counts a vertex map must keep to possibly extend to a
    cover: every u keeps its colour, has no more semi-edges of any colour
    than x = fv[u], and sends as many darts of every colour and direction
    towards each fibre, its own included, as x has towards that fibre's
    image.  Inside a fibre that equates 2k + n + t with 2l + s (loops,
    normal edges and semi-edges at u against loops and semi-edges at x),
    and likewise for directed colours."""
    for u in g.vertices():
        x = fv[u]
        if g.vertex_colour(u) != h.vertex_colour(x):
            return False
        gu, hx = vertex_darts(g, u), vertex_darts(h, x)
        if any(c > hx.semis.get(a, 0) for a, c in gu.semis.items()):
            return False
        images: dict = {}
        for key, to in gu.ends.items():
            per_image = images[key] = {}
            for w, c in to.items():
                y = fv[w]
                per_image[y] = per_image.get(y, 0) + c
        if images != hx.ends:
            return False
    return True


# generic edge-map search ------------------------------------------------------


def _edge_map_search(g: Graph, h: Graph, fv: dict[str, str], budget_box) -> dict[str, str] | None:
    """Assign every source edge a target edge so the map is locally
    injective around every vertex: backtracking over per-vertex dart-slot
    capacities.  Local bijectivity then follows wherever degrees are full."""
    by = _h_edge_index(h)
    edges, kinds, colours, first, last = g.columns()
    capv: dict = {}
    need: dict[str, list] = {eid: [] for eid in edges}
    for v in g.vertices():
        for (he, tag), cnt in _dart_tally(h, fv[v]).items():
            capv[v, he, tag] = cnt
        for k, tag, _, cnt in darts(g, v):
            need[edges[k]].append((v, tag, cnt))

    cand = {}
    for eid, kind, colour, a, b in zip(edges, kinds, colours, first, last):
        c = _candidates_for(kind, colour, fv[a], fv[b], by)
        if not c:
            return None
        cand[eid] = c

    def feasible(eid):
        return [he for he in cand[eid]
                if all(capv.get((v, he, tag), 0) >= cnt for v, tag, cnt in need[eid])]

    assignment: dict[str, str] = {}
    todo = set(range(len(edges)))
    # one frame per edge placed: its index, its feasible images and the
    # position of the image it holds, so the depth needs no call stack
    stack: list[list] = []
    while todo:
        if budget_box[0] <= 0:
            raise BudgetExhausted()
        best, best_f = None, None
        for i in list(todo):
            f = feasible(edges[i])
            if best_f is None or len(f) < len(best_f):
                best, best_f = i, f
                if len(f) <= 1:
                    break
        if best_f:
            todo.discard(best)
            stack.append([best, best_f, -1])
        # move the innermost edge with an image left on to that image;
        # an edge without one goes back to todo
        while stack:
            frame = stack[-1]
            i, images, at = frame
            eid = edges[i]
            if at >= 0:
                del assignment[eid]
                for v, tag, cnt in need[eid]:
                    capv[(v, images[at], tag)] += cnt
            at += 1
            if at < len(images):
                frame[2] = at
                he = images[at]
                budget_box[0] -= 1
                for v, tag, cnt in need[eid]:
                    capv[(v, he, tag)] -= cnt
                assignment[eid] = he
                break
            stack.pop()
            todo.add(i)
        else:
            return None
    return dict(assignment)


# backtracking vertex-map search ----------------------------------------------


# undo trail tags; every change the trail records commutes with the others
# made since the same mark (a scope's one count, per domain size, moves each
# domain from the size it has to the size it gets, empty included), so a
# trail can be undone in any order
_DOM, _USED, _RECENT, _FIBRE, _ASSIGN = range(5)


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
    neighbours lose during that scan fails the node at once, while the
    need of one that no neighbour held then stays in the row's owed
    count, which fails it as well.  Images are visited in bit order and
    dirty vertices last-in first-out, so the tree is the same under every
    hash seed.

    Twins.  ``twins`` holds classes of source vertices with the same
    colour, self darts and cross darts (``_twin_classes``).  Swapping two
    twins is an automorphism of the source, so it turns every cover into
    a cover, and every cover can be permuted into one whose images do not
    decrease along each class in id order (a lex-leader constraint); the
    search looks only for those.  When u takes image x, the unassigned
    twins after u, up to the next assigned one, lose the images below x,
    and those before u the images above it, so any two neighbours along a
    class are ordered once the second of them is assigned.  Twins share
    a neighbour, so the order couples no vertices that the component
    split keeps apart.  Only the oracle passes classes: it asks whether a
    cover exists, while ``partial_covers`` enumerates vertex maps and must
    see each of them.

    Target twins.  ``target_twins`` holds classes of target vertices any
    two of which swap by an automorphism of the target
    (``_target_twin_classes``), so any permutation of a class is one too.
    At a branch point where no assigned vertex is a source twin and every
    assigned image is alone in its class, a branching vertex u that is
    not a source twin tries only the least image of each class in its
    domain (the root always qualifies).  Why that is sound: let f be a
    cover in the subtree where u takes y, and σ the permutation of y's
    class that swaps y and the least member x of that class in u's
    domain.  σ fixes every assigned image, so σ∘f is a cover that extends
    the same partial assignment with u at x, and re-sorting the source
    twins along their classes moves neither u nor any assigned vertex,
    since none of them is a twin.  Every constraint of the search is kept
    by σ and by that re-sorting, and so is whether an edge map completes
    a vertex map; so whatever the search would accept below y, a
    component's solution or a cover, it accepts a mirror of below x,
    which it tries first, and y is reached only once x's subtree has
    failed.  The split check still reads the whole domain, so the tree is
    the one without the rule less mirrored subtrees: the first cover found
    and every status the budget allows stay the same, and no node count
    rises.  While a component is searched alone, the vertices of the
    components solved beside it do not count as assigned: it shares no
    constraint with them, so σ need not fix their images.  Only the
    oracle passes classes, as with twins.

    Without fibre caps all constraints are local (an edge, or a shared
    assigned neighbour), so when the residual constraint graph falls into
    independent components each is solved on its own and the solutions
    are combined, instead of rediscovering one component's failures once
    per assignment of the others.  A solved component stays bound: the
    trails of its search pass to its _Split, which undoes them when it
    is resumed or when a later component has no solution, so combining
    the solutions re-binds nothing.  Components share no constraint, so
    one component's images, narrowed domains and recency entries change
    nothing that the search of another reads.  A node carries the fact
    that its scope is connected down to its children and, after assigning
    u, re-proves it locally (``_stays_connected``); only where that proof
    fails does a later branch point walk the scope (``_components``).

    Scopes hold only unassigned vertices.  Between a node and its child
    only the branching vertex is assigned (propagation narrows domains
    but assigns nothing), so a child's scope is its parent's less that
    vertex and is handed down, not rebuilt: every vertex is labelled with
    the innermost scope it belongs to, and a scope keeps one count, of its
    unassigned vertices per domain size.  Assigning, removing images and
    undoing keep it up to date where they happen, each moving a domain
    from the size it has to the size it gets (a domain a failing
    propagation empties counts under size 0).  Wherever the search reads
    the count no domain is empty, so its sum is the number of unassigned
    vertices, and choosing the branching vertex reads the least size
    held instead of scanning the scope.  Only the component walk, the
    choice of a one-image vertex (when the count says there is one) and
    the rare choice that the recency stack does not settle go over the
    scope's member list.  A component is a scope of its own while it is
    searched alone: opening it takes its vertices out of the enclosing
    scope's count, and closing it gives back those still unassigned,
    none once it is solved.

    The depth of the search needs no call stack: ``solutions`` keeps a
    _Node per branch point, holding the vertex, the images it has left to
    try and the trail of the image it holds, and a _Split per split into
    components.  A solution found at the top of the stack travels down it
    as a yielded solution travels up nested generators: a split
    takes it as its component's first solution, a node that has emitted
    a combined solution drops that same assignment, and otherwise the
    caller receives it.

    Why the tree is that of the plain recursive search, one nested
    generator per branch point rescanning its scope at every node (kept
    as the reference in tests/test_search_reference.py): the stack visits
    nodes in the same depth-first order, every node chooses its vertex by
    the same rule (least domain; then the first one-image vertex in id
    order, or the recency stack's vertex when its domain is least, or
    else the most touched and then least id), components come in the same
    order with their vertices ascending, and every budget charge and
    every trail entry of a node's image is made at the same step.  The
    reference keeps touch counts at every assignment, where ``_choose``
    counts them from the assigned vertices when it reads them; both
    counts are a function of which vertices are assigned.  The reference
    re-assigns a combined solution vertex by vertex, with trails and
    recency entries of its own, while here the solved components keep
    theirs, and it pushes only unassigned vertices; so the recency stacks
    differ only in entries of vertices that stay assigned while the
    entries lie there, which ``_choose`` pops unread.  Undoing an
    assignment cuts the recency stack back to its length before it, so
    the stack holds at most the near lists of the assignments on the
    current path.
    """

    DECOMPOSE_MIN = 9

    def __init__(self, tables: _DartTables, domains, budget_box, exact, fibre_cap=None, blocks=(),
                 twins=(), target_twins=()):
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
            [(keys[key] * nh, to[u]) for key, to in t.ends.items() if to.get(u)]
            if t.semis or t.loops or t.dloops else [] for u, t in tables.g.items()
        ]
        # each key's slot base and its reverse's
        slots = {(a, d): (keys[a, d] * nh, keys[a, _REVERSED[d]] * nh) for a, d in keys}
        self.cross_rows = [
            [(*slots[key], tuple([(index[w], m) for w, m in to.items()]))
             for key, to in tables.cross[u].items()]
            for u in names
        ]
        # a domain shared by several vertices is made a mask once
        masks: dict = {}
        self.domains = []
        for u in names:
            dom = domains[u]
            mask = masks.get(id(dom))
            if mask is None:
                mask = masks[id(dom)] = sum(1 << image[x] for x in dom)
            self.domains.append(mask)
        self.assign = [-1] * len(names)
        self.fibre = [0] * nh
        self.blockmates = [[] for _ in names]
        for block in blocks:
            for u in block:
                self.blockmates[index[u]] = [index[w] for w in block if w != u]
        # each twin's neighbours along its class, -1 at either end
        self.before = [-1] * len(names)
        self.after = [-1] * len(names)
        for members in twins:
            chain = sorted(index[u] for u in members)
            for a, b in zip(chain, chain[1:]):
                self.after[a], self.before[b] = b, a
        self.twinned = [a >= 0 or b >= 0 for a, b in zip(self.before, self.after)]
        # each image's class of target twins as a mask, 0 for an image
        # without twins; the assigned vertices that are source twins or
        # hold an image with twins, and those of them that solved
        # components keep bound
        self.mirrored = bool(target_twins)
        self.mates = [0] * nh
        for members in target_twins:
            mask = sum(1 << image[x] for x in members)
            for x in members:
                self.mates[image[x]] = mask
        self.spoilers = 0
        self.bound = 0
        # locality bookkeeping: a recency stack keeps the search inside one
        # gadget region until it is finished, which is what makes
        # clause/variable instances tractable
        self.recent: list[int] = []
        # descending names: on the hardness gadgets this order decides
        # more instances within a budget than ascending or incidence order
        self.nbrs = nbrs = []
        for u in names:
            ends = list(tables.cross[u].values())
            others = ends[0] if len(ends) == 1 else set().union(*ends)
            nbrs.append([index[w] for w in sorted(others, reverse=True)])
        # the vertices an assignment touches: each neighbour, then that
        # neighbour's own neighbours
        self.near = []
        for around in nbrs:
            near = []
            for w in around:
                near.append(w)
                near += nbrs[w]
            self.near.append(near)
        # scopes, innermost last: each vertex's scope, and per scope its
        # members in ascending order and its unassigned count per domain
        # size
        self.scope = [0] * len(names)
        self.members: list[list[int]] = []
        self.sizes: list[list[int]] = []
        self._open(list(range(len(names))))
        # the component walk's marks: a vertex is seen when it holds the
        # walk's stamp
        self.mark = [0] * len(names)
        self.stamp = 0

    def _open(self, members) -> int:
        """Make the unassigned vertices ``members`` a scope of their own,
        and take them out of the counts of the scope that held them."""
        s = len(self.members)
        scope, domains = self.scope, self.domains
        sizes = [0] * (len(self.images) + 1)
        for v in members:
            sizes[domains[v].bit_count()] += 1
        if s:
            outer_sizes = self.sizes[scope[members[0]]]
            for size, count in enumerate(sizes):
                outer_sizes[size] -= count
        for v in members:
            scope[v] = s
        self.members.append(members)
        self.sizes.append(sizes)
        return s

    def _close(self, outer) -> None:
        """Hand the innermost scope's vertices back to scope ``outer``,
        which counts those of them still unassigned again."""
        scope = self.scope
        for v in self.members.pop():
            scope[v] = outer
        outer_sizes = self.sizes[outer]
        for size, count in enumerate(self.sizes.pop()):
            outer_sizes[size] += count

    def _resize(self, w, old, new) -> None:
        """Count the unassigned vertex w's domain under its new size."""
        sizes = self.sizes[self.scope[w]]
        sizes[old] -= 1
        sizes[new] += 1

    def _undo(self, ops):
        domains, used = self.domains, self.used
        for op in ops:
            tag = op[0]
            # in order of frequency
            if tag == _USED:
                used[op[1]][op[2]] -= op[3]
            elif tag == _DOM:
                w = op[1]
                dom = domains[w]
                domains[w] = full = dom | op[2]
                self._resize(w, dom.bit_count(), full.bit_count())
            elif tag == _ASSIGN:
                u = op[1]
                if self.twinned[u] or self.mates[self.assign[u]]:
                    self.spoilers -= 1
                self.assign[u] = -1
                self.sizes[self.scope[u]][domains[u].bit_count()] += 1
            elif tag == _RECENT:
                # what the assignment pushed, and whatever came after it
                del self.recent[op[1]:]
            else:
                self.fibre[op[1]] -= 1

    def _remove(self, w, drop, ops, dirty) -> bool:
        """Take the images ``drop`` (all in w's domain) out of it; False
        when the domain runs empty.  w's assigned neighbours get dirty."""
        dom = self.domains[w]
        left = dom ^ drop
        self.domains[w] = left
        ops.append((_DOM, w, drop))
        self._resize(w, dom.bit_count(), left.bit_count())
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
        """Give u the image x, count its darts, order u's twins around x
        and propagate; False when a fibre or a capacity overflows or a
        domain runs empty."""
        assign, domains, used, caps = self.assign, self.domains, self.used, self.caps
        # insertion-ordered, and popped last-in first-out
        dirty: dict[int, None] = {}
        assign[u] = x
        ops.append((_ASSIGN, u))
        if self.twinned[u] or self.mates[x]:
            self.spoilers += 1
        self.sizes[self.scope[u]][domains[u].bit_count()] -= 1
        bit = 1 << x
        if self.fibre_cap is not None:
            self.fibre[x] += 1
            ops.append((_FIBRE, x))
            if self.fibre[x] > self.fibre_cap:
                return False
            if self.fibre[x] == self.fibre_cap:
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
        # locality bookkeeping for the branching heuristic: every vertex
        # near u, assigned or not, since _choose pops assigned entries
        recent = self.recent
        ops.append((_RECENT, len(recent)))
        recent += self.near[u]
        # twins after u lose the images below x, twins before u those above
        # it, up to the next assigned twin either way
        remove = self._remove
        for chain, drop in ((self.after, bit - 1), (self.before, -(bit << 1))):
            w = chain[u]
            while w >= 0 and assign[w] < 0:
                lose = domains[w] & drop
                if lose and not remove(w, lose, ops, dirty):
                    return False
                w = chain[w]
        return self._propagate(dirty, ops)

    def _propagate(self, dirty, ops) -> bool:
        """Counting propagation: for an assigned vertex and every image y,
        a neighbour whose multiplicity overshoots the outstanding need
        loses y.  With exact domains the need must also fit the unassigned
        neighbours that can still take y: equality forces them and
        deficits fail, for every image.  A vertex and its image have equal
        degrees per colour and direction, so a row's needs add up to its
        unassigned multiplicity; what is left of it after the needs of the
        images its unassigned neighbours hold is owed to images that none
        of them can take, and fails the node.  Rows are scanned where they
        lie; no assignment changes during propagation, so the unassigned
        entries of a row are the same on every scan."""
        assign, domains, exact = self.assign, self.domains, self.exact
        caps, used, cross_rows = self.caps, self.used, self.cross_rows
        remove = self._remove
        while dirty:
            a = dirty.popitem()[0]
            cap_a, used_a = caps[assign[a]], used[a]
            for base, _, row in cross_rows[a]:
                # an unassigned vertex never has an empty domain here
                targets = owed = 0
                for w, m in row:
                    if assign[w] < 0:
                        targets |= domains[w]
                        owed += m
                while targets:
                    bit = targets & -targets
                    targets ^= bit
                    slot = base + bit.bit_length() - 1
                    needed = cap_a[slot] - used_a[slot]
                    owed -= needed
                    avail = 0
                    for w, m in row:
                        if assign[w] < 0 and domains[w] & bit:
                            if m > needed:
                                if not remove(w, bit, ops, dirty):
                                    return False
                            else:
                                avail += m
                    if not exact:
                        continue
                    if needed > avail:
                        return False
                    if needed and needed == avail:
                        # the neighbours still holding y are the ones counted
                        for w, _ in row:
                            if assign[w] < 0 and domains[w] & bit and domains[w] != bit:
                                remove(w, domains[w] ^ bit, ops, dirty)
                if owed and exact:
                    return False
        return True

    def _choose(self, s):
        """The branching vertex of scope s: least domain; the first
        one-image vertex, or the vertex the search touched last when its
        domain is least, or else the most touched, then the first.  A
        vertex is touched once by each assignment whose ``near`` list
        holds it, counted here when read: per neighbour w, w itself if it
        is assigned and each assigned neighbour of w.  Trails are undone
        last-in first-out, so an unassigned vertex was unassigned when
        each of those assignments was made."""
        assign, domains, scope, recent = self.assign, self.domains, self.scope, self.recent
        sizes = self.sizes[s]
        if sizes[1]:
            for v in self.members[s]:
                if assign[v] < 0 and domains[v].bit_count() == 1:
                    return v
        least = 2
        while not sizes[least]:
            least += 1
        # prefer finishing the region the search is already inside
        while recent:
            w = recent[-1]
            if assign[w] >= 0 or scope[w] != s:
                recent.pop()
                continue
            if domains[w].bit_count() == least:
                return w
            break
        nbrs = self.nbrs
        best, best_touch = -1, -1
        for v in self.members[s]:
            if assign[v] < 0 and domains[v].bit_count() == least:
                touch = 0
                for w in nbrs[v]:
                    touch += (assign[w] >= 0) + sum(assign[z] >= 0 for z in nbrs[w])
                if touch > best_touch:
                    best, best_touch = v, touch
        return best

    def _components(self, s):
        """Partition the unassigned vertices of scope s into groups with no
        constraint between them: direct edges and shared assigned
        neighbours couple.  Groups come in order of their least id, each
        in ascending order."""
        assign, nbrs, scope, mark = self.assign, self.nbrs, self.scope, self.mark
        # scope vertices already in a group, and assigned neighbours whose
        # own neighbours were added, carry this walk's stamp
        self.stamp = stamp = self.stamp + 1
        comps = []
        # the scan stops once the groups hold every unassigned vertex, no
        # domain being empty here
        unplaced = sum(self.sizes[s])
        for start in self.members[s]:
            if not unplaced:
                break
            if assign[start] >= 0 or mark[start] == stamp:
                continue
            mark[start] = stamp
            comp, stack = [start], [start]
            while stack:
                for w in nbrs[stack.pop()]:
                    if mark[w] == stamp:
                        continue
                    if assign[w] < 0:
                        if scope[w] == s:
                            mark[w] = stamp
                            comp.append(w)
                            stack.append(w)
                        continue
                    # an assigned neighbour couples all of its own
                    mark[w] = stamp
                    for z in nbrs[w]:
                        if mark[z] != stamp and assign[z] < 0 and scope[z] == s:
                            mark[z] = stamp
                            comp.append(z)
                            stack.append(z)
            comp.sort()
            comps.append(comp)
            unplaced -= len(comp)
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
        apart = len(groups) - 1
        if apart < 1:
            return True
        # a union-find over the groups, each root its least group
        root = list(range(len(groups)))
        owner: dict[int, int] = {}
        for i, group in enumerate(groups):
            for w in group:
                # the group already holding w, then those of w's neighbours
                for j in (owner.setdefault(w, i), *map(owner.get, nbrs[w])):
                    if j is None or j == i:
                        continue
                    a = i
                    while root[a] != a:
                        a = root[a]
                    while root[j] != j:
                        j = root[j]
                    if a != j:
                        root[max(a, j)] = min(a, j)
                        apart -= 1
                        if not apart:
                            return True
        return False

    def solutions(self):
        """Yield every solution as a map of source to target names.

        The stack holds a _Node per branch point and a _Split per split
        into components; see those classes."""
        names, images = self.names, self.images
        assign, domains, sizes = self.assign, self.domains, self.sizes
        budget, undo, try_assign = self.budget, self._undo, self._try_assign
        decompose = self.fibre_cap is None
        stack: list = []
        enter = (0, False)  # the scope and fact of a node to visit next
        while True:
            if enter is not None:
                s, connected = enter
                enter = None
                # no domain is empty here, so this counts the unassigned
                size = sum(sizes[s])
                if not size:
                    # every vertex of the scope is assigned: a solution
                    at = len(stack)
                    while True:
                        at = self._deliver(stack, at)
                        if at < 0:
                            yield {u: images[x] for u, x in zip(names, assign)}
                            break
                        if type(stack[at]) is _Node:
                            # that node emitted this assignment already
                            break
                        enter = self._collect(stack, at)
                        if enter is not None:
                            break
                    if enter is not None:
                        continue
                else:
                    u = self._choose(s)
                    dom = domains[u]
                    tries = dom
                    if self.mirrored and self.spoilers == self.bound and not self.twinned[u]:
                        tries = self._least_of_classes(dom)
                    node = _Node(u, tries, connected, size, s)
                    stack.append(node)
                    # only genuine branch points pay for the component
                    # check; unit propagation chains fall straight through
                    if (not connected and decompose and dom & (dom - 1)
                            and size >= self.DECOMPOSE_MIN):
                        comps = self._components(s)
                        if len(comps) > 1:
                            comps.sort(key=len)
                            stack.append(_Split(comps, s))
                            enter = (self._open(comps[0]), True)
                            continue
                        node.connected = True
            # resume the top frame
            if not stack:
                return
            frame = stack[-1]
            if type(frame) is _Split:
                stack.pop()
                if frame.index < len(frame.comps):
                    # a component without a solution: its node has none
                    self._close(frame.scope)
                    stack.pop()
                else:
                    # the combined solution is still bound
                    stack[-1].combined = [(v, assign[v]) for comp in frame.comps for v in comp]
                self._unbind(frame)
                continue
            if frame.trail is not None:
                undo(frame.trail)
                frame.trail = None
            u, dom = frame.u, frame.dom
            while dom:
                bit = dom & -dom
                dom ^= bit
                if budget[0] <= 0:
                    raise BudgetExhausted()
                budget[0] -= 1
                ops = try_assign(u, bit.bit_length() - 1)
                if ops is None:
                    continue
                frame.dom = dom
                frame.trail = ops
                # no component check runs below DECOMPOSE_MIN, so the fact
                # is not needed there
                enter = (frame.scope, frame.connected
                         and (frame.size <= self.DECOMPOSE_MIN or self._stays_connected(u)))
                break
            else:
                stack.pop()

    def _least_of_classes(self, dom) -> int:
        """The images of ``dom`` less those above another member of their
        target-twin class in it."""
        mates = self.mates
        keep = rest = dom
        while rest:
            bit = rest & -rest
            # the members of the class above this one
            keep &= ~(mates[bit.bit_length() - 1] & -(bit << 1))
            rest = (rest ^ bit) & keep
        return keep

    def _deliver(self, stack, at) -> int:
        """Carry a solution emitted above ``stack[at - 1]`` down the stack:
        the index of the frame that takes it, a _Split or a _Node that
        emitted that assignment already, or -1 for the caller."""
        assign = self.assign
        for i in range(at - 1, -1, -1):
            frame = stack[i]
            if type(frame) is _Split:
                return i
            combined = frame.combined
            if combined is not None and all(assign[v] == x for v, x in combined):
                return i
        return -1

    def _unbind(self, split) -> None:
        """Undo the trails of the components ``split`` solved, last-in
        first-out."""
        for trail in reversed(split.trails):
            self._undo(trail)
        self.bound -= split.bound

    def _collect(self, stack, at):
        """The _Split ``stack[at]`` takes the solution of its current
        component: the trails of the frames above it join its own, in
        stack order, and stay bound, and the next component is opened,
        whose (scope, fact) is returned.  After the last one, None is
        returned: the combined solution is then carried down from the
        split itself."""
        split = stack[at]
        trails = split.trails
        for frame in stack[at + 1:]:
            if type(frame) is _Split:
                trails += frame.trails
                self.bound -= frame.bound
            elif frame.trail is not None:
                trails.append(frame.trail)
        del stack[at + 1:]
        assign, mates, twinned = self.assign, self.mates, self.twinned
        bound = sum(twinned[v] or mates[assign[v]] > 0 for v in split.comps[split.index])
        split.bound += bound
        self.bound += bound
        self._close(split.scope)
        split.index += 1
        if split.index < len(split.comps):
            return self._open(split.comps[split.index]), True
        return None


class _Node:
    """A branch point of _VertexSearch.solutions: vertex u of scope
    ``scope``, which had ``size`` unassigned vertices and is ``connected``
    or not proven so, tries the images left in ``dom``.  ``trail`` undoes
    the image u holds, and ``combined`` holds the (vertex, image) pairs of
    a combined solution the node emitted before branching, which it must
    not emit again."""

    __slots__ = ("u", "dom", "connected", "size", "scope", "trail", "combined")

    def __init__(self, u, dom, connected, size, scope):
        self.u = u
        self.dom = dom
        self.connected = connected
        self.size = size
        self.scope = scope
        self.trail = None
        self.combined = None


class _Split:
    """The split of the scope ``scope`` of the _Node below it into
    components ``comps``: each is searched in a scope of its own up to a
    first solution, ``index`` the one being searched.  ``trails`` holds
    the trails of the solved components, undone last-in first-out when
    the split is resumed or a later component has no solution; once all
    are solved, their solutions together are emitted as the node's."""

    __slots__ = ("comps", "index", "trails", "scope", "bound")

    def __init__(self, comps, scope):
        self.comps = comps
        self.index = 0
        self.trails = []
        self.scope = scope
        self.bound = 0


# parity refutation -------------------------------------------------------------


def _degree_rows(tables: _DartTables, domains) -> tuple[list, list[int], int]:
    """The degree rows mod 2, over the variables z[u, x], 1 when source
    vertex u maps to the image x in its domain.  Row ("one-hot", u) reads
    sum_x z[u, x] = 1; row (u, key, y) reads sum_w mult(u, w) z[w, y] =
    sum_x z[u, x] cap(x, key, y), where mult counts the darts of u of that
    (colour, direction) key towards w, u itself included, and cap those
    of x towards y.  Every cover's vertex map satisfies them.

    The one-hot rows are solved for each vertex's least image at once:
    z[u, least] is 1 plus u's other variables.  A row is an int whose
    low ``n`` bits are those other variables, whose bit n is its
    right-hand side and whose bit n + 1 + i says it sums row ``ids[i]``.
    Rows that read 0 = 0 are left out.  Returns ids, rows and n."""
    n = sum(len(dom) - 1 for dom in domains.values())
    rhs = 1 << n
    # terms[u][x]: what z[u, x] stands for, as a row
    terms = {}
    ids = []
    bit = 1
    for u, dom in domains.items():
        least, *rest = sorted(dom)
        own = terms[u] = {}
        for x in rest:
            own[x] = bit
            bit <<= 1
        own[least] = sum(own.values()) | rhs | rhs << (1 + len(ids))
        ids.append(("one-hot", u))
    # the images y towards which x has an odd number of darts, per key
    odd = {x: {key: [y for y, c in to.items() if c & 1] for key, to in t.ends.items()}
           for x, t in tables.h.items()}
    # the keys of the images of each domain, shared as the domain is
    image_keys: dict = {}
    # a row's variables and right-hand side: a row without any reads 0 = 0
    both_sides = (rhs << 1) - 1
    rows = []
    for u, own in terms.items():
        ends = tables.g[u].ends
        dom = domains[u]
        keys = image_keys.get(id(dom))
        if keys is None:
            keys = image_keys[id(dom)] = set().union(*(odd[x] for x in own))
        for key in sorted(keys.union(ends)):
            by_image: dict = {}
            for w, c in ends.get(key, {}).items():
                if c & 1:
                    for y, t in terms[w].items():
                        by_image[y] = by_image.get(y, 0) ^ t
            for x, t in own.items():
                for y in odd[x].get(key, ()):
                    by_image[y] = by_image.get(y, 0) ^ t
            for y in sorted(by_image):
                row = by_image[y]
                if row & both_sides:
                    rows.append(row | rhs << (1 + len(ids)))
                    ids.append((u, key, y))
    return ids, rows, n


def _parity_witness(ids: list, rows: list[int], n: int) -> list | None:
    """Gaussian elimination over GF(2) on rows from ``_degree_rows``: the
    ids of rows whose sum reads 0 = 1, or None when the rows have a
    solution mod 2.  The basis is keyed by each row's lowest variable."""
    rhs = 1 << n
    basis: dict[int, int] = {}
    for row in rows:
        while True:
            low = row & -row
            if low >= rhs:
                if low == rhs:  # no variable is left, and the row reads 0 = 1
                    summed = row >> (n + 1)
                    return [rid for i, rid in enumerate(ids) if summed >> i & 1]
                break
            pivot = basis.get(low)
            if pivot is None:
                basis[low] = row
                break
            row ^= pivot
    return None


def verify_parity(g: Graph, h: Graph, witness) -> VerifyResult:
    """Re-check a parity refutation: rebuild every row ``witness`` names
    from the darts of g and h, over the domains the oracle's pre-checks
    give, and sum them mod 2.  The sum must read 0 = 1: every variable
    cancels and the right-hand sides add up to 1.  Violations are data."""
    pre = _pre_checks(g, h)
    if isinstance(pre, OracleResult):
        return VerifyResult(False, [f"the pre-checks settle the pair ({pre.reason}) before parity"])
    _, domains, *_ = pre
    if not isinstance(witness, (list, tuple)):
        return VerifyResult(False, [f"the witness {witness!r} is not a list of row ids"])
    violations: list[str] = []
    odd: set = set()  # the variables (u, x) with an odd coefficient so far
    rhs = 0
    named = set()
    for rid in witness:
        try:
            # a key read back from JSON is a list
            rid = tuple(tuple(part) if isinstance(part, list) else part for part in rid)
            hash(rid)
        except TypeError:
            violations.append(f"row {rid!r} is not a row id")
            continue
        if rid in named:
            violations.append(f"row {rid} is named twice")
            continue
        named.add(rid)
        if len(rid) == 2 and rid[0] == "one-hot" and rid[1] in domains:
            coeffs = [((rid[1], x), 1) for x in domains[rid[1]]]
            rhs ^= 1
        elif len(rid) == 3 and rid[0] in domains and h.has_vertex(rid[2]):
            u, key, y = rid
            coeffs = [((w, y), c) for w, c in vertex_darts(g, u).ends.get(key, {}).items()
                      if y in domains[w]]
            coeffs += [((u, x), vertex_darts(h, x).ends.get(key, {}).get(y, 0)) for x in domains[u]]
        else:
            violations.append(f"row {rid} names no degree row of the pair")
            continue
        for v, c in coeffs:
            if c % 2:
                odd ^= {v}
    if violations:
        return VerifyResult(False, violations)
    if odd:
        u, x = min(odd)
        violations.append(f"{len(odd)} variables keep an odd coefficient, z[{u}, {x}] among them")
    if not rhs:
        violations.append("the right-hand sides sum to 0")
    return VerifyResult(not violations, violations)


# the oracle -------------------------------------------------------------------


def _realize_edges(g: Graph, h: Graph, fv: dict[str, str], semi_step, log=None, rename=None) -> dict[str, str]:
    """Extend a degree-obedient vertex map to an edge map.

    Edges are grouped by the target edges they may land on.  A group
    between two fibres is a regular bipartite multigraph and peels into
    one perfect matching per parallel target edge (Konig); the directed
    edges inside a fibre peel into one cycle cover per directed loop; the
    undirected edges inside a fibre over a vertex without semi-edges split
    into one 2-factor per loop (Petersen), read as (id, u, v) triples
    oriented along closed trails, so no fibre graph is built and no
    component walked.  A fibre over semi-edges goes to
    ``semi_step(x, colour, verts, group, semi_ids, loop_ids)``, with
    ``group`` the handles of the fibre's edges in g, which returns the
    images of the edges it places, or None; the edges it
    leaves are 2-factorized over the loops it leaves free.  ``log``
    receives one line per group.  ``rename(kind, colour, x, y)`` gives
    the kind and colour that g's edges of this kind and colour land as
    when their ends map to x and y, read from the solver's block-colour
    table; without it each edge lands as it is.  Raises NotExtendable
    where the map does not extend."""
    by = _h_edge_index(h)
    log = log or (lambda msg: None)
    # by landing sites: a group between two fibres per site, and one group
    # per colour and fibre of those landing on directed loops, and of those
    # landing on loops or semi-edges; the sites depend only on an edge's
    # kind, colour and end images, so each such key is resolved once
    pairs: dict = {}
    intra_und: dict = {}
    intra_dir: dict = {}
    joins: dict = {}
    eids, kinds, colours, first, last = g.columns()
    keys = zip(kinds, colours, map(fv.__getitem__, first), map(fv.__getitem__, last))
    for k, key in enumerate(keys):
        group = joins.get(key)
        if group is None:
            kind, colour = key[:2] if rename is None else rename(*key)
            sites = _landing_sites(kind, colour, key[2], key[3])
            if sites[0] not in by and sites[-1] not in by:
                raise NotExtendable(f"{kind} {eids[k]} has no target edge to land on")
            kind, colour, at = sites[0]
            if len(at) == 2:
                group = pairs.setdefault(sites[0], [])
            else:
                group = (intra_dir if kind == "dloop" else intra_und).setdefault((colour, at[0]), [])
            joins[key] = group
        group.append(k)
    fibres: dict[str, list[str]] = {}
    if intra_dir or intra_und:
        for w, x in sorted(fv.items()):
            fibres.setdefault(x, []).append(w)
    fe: dict[str, str] = {}

    def spread(h_ids, what, split, *args):
        try:
            parts = split(*args, len(h_ids))
        except mt.MatchingError as exc:
            raise NotExtendable(f"{what}: {exc}") from exc
        for he, part in zip(h_ids, parts):
            for eid in part:
                fe[eid] = he

    for key in sorted(pairs):
        kind, colour, loc = key
        group, h_ids = pairs[key], by[key]
        if len(h_ids) == 1:
            for k in group:
                fe[eids[k]] = h_ids[0]
            log(f"forced {len(group)} edges onto {h_ids[0]}")
            continue
        if kind == "edge":
            x = loc[0]
            items = [(eids[k], first[k], last[k]) if fv[first[k]] == x else (eids[k], last[k], first[k])
                     for k in group]
        else:
            items = [(eids[k], first[k], last[k]) for k in group]
        spread(h_ids, f"fibre-pair group {key} not factorizable", mt.bipartite_peel, items)
        log(f"factorized {len(group)} edges into {len(h_ids)} bundles at {key}")

    for (colour, x), group in sorted(intra_dir.items()):
        h_ids = by[("dloop", colour, (x,))]
        if len({first[k] for k in group}) != len(fibres[x]):
            raise NotExtendable(f"directed fibre at {x} has a vertex without out-darts")
        # each arc or directed loop from its tail to its head: k cycle covers
        spread(h_ids, f"directed fibre at {x} not decomposable", mt.bipartite_peel,
               [(eids[k], first[k], last[k]) for k in group])
        log(f"directed decomposition of {len(group)} arcs at fibre {x}")

    for (colour, x), group in sorted(intra_und.items()):
        semi_ids = by.get(("semi", colour, (x,)), [])
        loop_ids = by.get(("loop", colour, (x,)), [])
        verts = fibres[x]
        free = loop_ids
        if semi_ids:
            placed = semi_step(x, colour, verts, group, semi_ids, loop_ids)
            if placed is None:
                raise NotExtendable(f"semi-edge class at fibre {x} colour {colour} does not extend")
            fe.update(placed)
            used = set(placed.values())
            free = [he for he in loop_ids if he not in used]
        residual = [(eids[k], first[k], last[k]) for k in group if eids[k] not in fe]
        if residual or free:
            spread(free, f"fibre at {x} not 2-factorizable", mt.peel_two_factors, verts, residual)
        log(f"fibre {x} colour {colour}: {len(group)} edges distributed")
    return fe


def _exact_semi_step(g: Graph, h: Graph, budget_box):
    """The oracle's step for fibres of g over semi-edges: an exact dart
    assignment of the fibre's edges onto the loops and semi-edges at its
    image (these can be genuinely hard)."""

    def step(x, colour, verts, group, semi_ids, loop_ids):
        sub = derive(g, dict.fromkeys(verts, h.vertex_colour(x)), group, name="fibre")
        return _edge_map_search(sub, h, dict.fromkeys(verts, x), budget_box)

    return step


def _check_budget(budget) -> None:
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise GraphError(f"the node budget must be an int of at least 1, got {budget!r}")


def _pre_checks(g: Graph, h: Graph):
    """The checks before the search: the OracleResult of the first that
    settles the pair, or else the dart tables, the domains (a source
    vertex's images are the vertices of its target block whose self darts
    it fits), the source and target blocks and the fold."""
    if g.n == 0 or h.n == 0:
        if g.n == h.n:
            return OracleResult("yes", CoveringProjection({}, {}), reason="cover")
        return OracleResult("no", reason="fold")
    pg, mg = degree_partition(g)
    ph, mh = degree_partition(h)
    if pg.k != ph.k or mg != mh:
        return OracleResult("no", reason="partition")
    if g.n % h.n != 0:
        return OracleResult("no", reason="fold")
    r = g.n // h.n
    for i in range(pg.k):
        if len(pg.blocks[i]) != r * len(ph.blocks[i]):
            return OracleResult("no", reason="block sizes")
    tables = _DartTables(g, h)
    domains = {}
    for block, images in zip(pg.blocks, ph.blocks):
        # shared by the vertices without self darts, which fit every image
        whole = set(images)
        for u in block:
            gu = tables.g[u]
            if gu.semis or gu.loops or gu.dloops:
                dom = {x for x in images if _self_darts_fit(gu, tables.h[x])}
                if not dom:
                    return OracleResult("no", reason="self darts")
                domains[u] = dom
            else:
                domains[u] = whole
    return tables, domains, pg.blocks, ph.blocks, r


def _search_cover(g: Graph, h: Graph, tables: _DartTables, domains, blocks, target_blocks, r,
                  budget: int) -> OracleResult:
    """The search behind the pre-checks: vertex maps from ``domains``,
    each extended to an edge map and verified, within the node budget."""
    budget_box = [budget]
    twins = _twin_classes(g, tables)
    target_twins = _target_twin_classes(tables, target_blocks)
    if is_connected(h):
        # fibre equality is implied for connected targets, so the caps can
        # go, which in turn lets the search decompose into independent
        # components
        search = _VertexSearch(tables, domains, budget_box, exact=True, twins=twins,
                               target_twins=target_twins)
    else:
        search = _VertexSearch(tables, domains, budget_box, exact=True, fibre_cap=r, blocks=blocks,
                               twins=twins, target_twins=target_twins)
    try:
        for fv in search.solutions():
            try:
                fe = _realize_edges(g, h, fv, _exact_semi_step(g, h, budget_box))
            except NotExtendable:
                continue
            proj = CoveringProjection(fv, fe)
            check = verify_cover(g, h, proj)
            if not check.ok:
                raise InternalCoverError(f"oracle built an invalid certificate: {check.violations}")
            return OracleResult("yes", proj, budget - budget_box[0], "cover")
        return OracleResult("no", None, budget - budget_box[0], "search")
    except BudgetExhausted:
        return OracleResult("unknown", None, budget, "budget")


def oracle_cover(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Complete within budget: 'yes' with a verified certificate, 'no', or
    'unknown' when the node budget ran out.  The pre-checks run first,
    then the parity check, then the search.  The budget must be an int of
    at least 1 (GraphError, a ValueError, otherwise)."""
    _check_budget(budget)
    pre = _pre_checks(g, h)
    if isinstance(pre, OracleResult):
        return pre
    tables, domains, *_ = pre
    witness = _parity_witness(*_degree_rows(tables, domains))
    if witness is not None:
        return OracleResult("no", reason="parity", witness=witness)
    return _search_cover(g, h, *pre, budget)


# partial covering projections --------------------------------------------------


def partial_covers(g: Graph, h: Graph, budget: int = DEFAULT_BUDGET):
    """Enumerate partial covering projections: total colour-preserving maps
    whose edge assignment is locally injective around every vertex.

    Returns an iterator of CoveringProjection objects (one witness edge
    map per vertex map).  Raises GraphError, a ValueError, at once for a
    budget that is not an int of at least 1; the iterator raises
    BudgetExhausted when the node budget runs out.
    """
    _check_budget(budget)
    return _partial_covers(g, h, budget)


def _partial_covers(g: Graph, h: Graph, budget: int):
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
        if not dom:
            return
        domains[u] = dom
    budget_box = [budget]
    # a partial cover may leave target darts unused
    search = _VertexSearch(tables, domains, budget_box, exact=False)
    for fv in search.solutions():
        fe = _edge_map_search(g, h, fv, budget_box)
        if fe is not None:
            yield CoveringProjection(dict(fv), fe)
