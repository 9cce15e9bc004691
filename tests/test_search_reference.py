"""The oracle's vertex search against its plain recursive form.

``ReferenceVertexSearch`` is that form: one nested generator per branch
point, rebuilding and rescanning its scope at every node.  Both must
explore the same tree, so on every pair the oracle's search (its
pre-checks and search, without the parity check) must give the same
status, node count, reason and certificate, and ``partial_covers`` must
yield the same projections in the same order.  The reference keeps touch
counts up to date at every assignment, where the search counts them when
it reads them, so the agreement also checks that this changes no choice.
The search must also agree with the reference when neither has target
twin classes, the tree it walked before their rule.

The propagation before it failed rows owing darts to images that no
unassigned neighbour holds is kept here too: the rule must fail such a
node, and must change no status that both propagations decide.
"""

import itertools
import random
from bisect import bisect_left
from contextlib import closing

from coverkit import Graph, covers, oracle_cover, partial_covers, verify_cover
from coverkit.covers import _REVERSED, BudgetExhausted, InternalCoverError, _DartTables
from coverkit.graphs import darts

from conftest import complete_bipartite, complete_graph, cycle, disjoint_union, petersen, searched
from hosts import harmless_hosts, random_compatible_input, random_lift, switched
from test_twins import target_twin_pairs, twin_pairs


# undo trail tags; every change the trail records commutes with the others
# made since the same mark, so a trail can be undone in any order
_DOM, _USED, _TOUCH, _FIBRE, _ASSIGN = range(5)


class ReferenceVertexSearch:
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
    per assignment of the others.  Every branch point of at least
    ``DECOMPOSE_MIN`` vertices walks its whole scope (``_components``), so
    where the search trusts its local proof that a scope stays connected,
    the comparison checks that proof.

    ``twins`` holds classes of interchangeable source vertices: when u
    takes image x, the unassigned twins after u in id order, up to the
    next assigned one, lose the images below x, and those before u the
    images above it.  Undoing an assignment cuts the recency stack back
    to its length before it.

    ``target_twins`` holds classes of target vertices any two of which
    swap by an automorphism of the target: while no assigned vertex is a
    source twin and no assigned image has a twin, a branching vertex that
    is not a source twin tries only the least image of each class in its
    domain.
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
        # each class of twins in ascending id order
        self.twins = [sorted(index[u] for u in members) for members in twins]
        # each class of target twins in ascending image order
        self.target_twins = [sorted(image[x] for x in members) for members in target_twins]
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
                del self.recent[op[2]:]
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
        # the images of u's class do not decrease along it
        for chain in self.twins:
            if u not in chain:
                continue
            at = chain.index(u)
            sides = ((chain[at + 1:], lambda y: y >= x), (reversed(chain[:at]), lambda y: y <= x))
            for side, keep in sides:
                for w in side:
                    if assign[w] >= 0:
                        break
                    lose = sum(1 << y for y in range(len(self.images))
                               if domains[w] >> y & 1 and not keep(y))
                    if lose and not self._remove(w, lose, ops, dirty):
                        return False
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
        ops.append((_TOUCH, touched, len(self.recent)))
        self.recent += touched
        return True

    def _propagate(self, dirty, ops) -> bool:
        """Counting propagation: for an assigned vertex and every image y,
        a neighbour whose multiplicity overshoots the outstanding need
        loses y.  With exact domains the need must also fit the unassigned
        neighbours that can still take y: equality forces them and
        deficits fail, also those of images that no unassigned neighbour
        holds, which the row's unassigned multiplicity less the needs of
        the images they hold counts."""
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
                owed = sum(m for _, m in unassigned)
                while targets:
                    bit = targets & -targets
                    targets ^= bit
                    slot = base + bit.bit_length() - 1
                    needed = cap_a[slot] - used_a[slot]
                    owed -= needed
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
                if exact and owed:
                    return False
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

    def solutions(self):
        names, images = self.names, self.images
        for _ in self._branch(range(len(names))):
            yield {u: images[x] for u, x in zip(names, self.assign)}

    def _branch(self, scope):
        """Search the unassigned vertices of ``scope``."""
        assign = self.assign
        todo = [v for v in scope if assign[v] < 0]
        if not todo:
            yield True
            return
        u = self._choose(todo)
        dom = self.domains[u]
        tries = dom
        if not self._breaks_symmetry(u, -1) and not any(
                x >= 0 and self._breaks_symmetry(v, x) for v, x in enumerate(assign)):
            for members in self.target_twins:
                for x in [x for x in members if dom >> x & 1][1:]:
                    tries &= ~(1 << x)
        # only genuine branch points pay for the component check; unit
        # propagation chains fall straight through
        combined = None
        if self.fibre_cap is None and dom & (dom - 1) and len(todo) >= self.DECOMPOSE_MIN:
            comps = self._components(todo)
            if len(comps) > 1:
                combined = yield from self._branch_components(comps)
                if combined is None:
                    return
        budget = self.budget
        while tries:
            bit = tries & -tries
            tries ^= bit
            if budget[0] <= 0:
                raise BudgetExhausted()
            budget[0] -= 1
            ops = self._try_assign(u, bit.bit_length() - 1)
            if ops is None:
                continue
            try:
                if combined is None:
                    yield from self._branch(todo)
                else:
                    # the combined assignment was yielded already
                    with closing(self._branch(todo)) as below:
                        for _ in below:
                            if any(assign[v] != x for v, x in combined):
                                yield True
            finally:
                self._undo(ops)

    def _breaks_symmetry(self, v, x) -> bool:
        """Whether v, with image x (-1 for none), is a source twin or x is
        in a class of target twins."""
        return any(v in chain for chain in self.twins) or any(x in c for c in self.target_twins)

    def _branch_components(self, comps):
        """Solve independent components separately.

        Any infeasible component kills the whole node at once (returns
        None without yielding), which is the point: its refutation is
        found once instead of once per assignment of the other
        components.  If every component is solvable, their first
        solutions combine into one emitted assignment, applied in
        vertex-name order; should the caller need further solutions,
        plain branching takes over, which keeps the enumeration complete.
        The combined assignment is returned as (vertex, image) pairs, so
        that the plain branching skips it instead of yielding it again."""
        first: list[list] = []
        for comp in sorted(comps, key=len):
            sol = None
            gen = self._branch(comp)
            for _ in gen:
                sol = [(v, self.assign[v]) for v in comp]
                break
            gen.close()
            if sol is None:
                return None
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
        return [vx for comp_sol in first for vx in comp_sol]


# the comparison -----------------------------------------------------------------

BUDGET = 1500
MAX_MAPS = 60


def random_target(rng, n, name):
    """A connected target on n vertices: a random spanning tree of edges
    and arcs, then a few more edges of every kind, in two colours each."""
    h = Graph(name)
    for i in range(n):
        h.add_vertex(f"x{i}", "n")
    ids = itertools.count()
    for i in range(1, n):
        j = rng.randrange(i)
        if rng.random() < 0.3:
            ends = (f"x{i}", f"x{j}") if rng.random() < 0.5 else (f"x{j}", f"x{i}")
            h.add_edge("arc", f"a{next(ids)}", rng.choice("cd"), *ends)
        else:
            h.add_edge("edge", f"e{next(ids)}", rng.choice("ef"), f"x{i}", f"x{j}")
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice(("edge", "arc", "loop", "dloop", "semi") if n > 1 else ("loop", "dloop", "semi"))
        colour = rng.choice("cd" if kind in ("arc", "dloop") else "ef")
        ends = rng.sample(range(n), 2) if kind in ("edge", "arc") else [rng.randrange(n)]
        h.add_edge(kind, f"{kind}{next(ids)}", colour, *[f"x{v}" for v in ends])
    return h


def two_coloured(name, n, edges):
    """A target on vertices x0..x{n-1} with the edges (colour, i, j)."""
    h = Graph(name)
    for i in range(n):
        h.add_vertex(f"x{i}", "n")
    for k, (colour, i, j) in enumerate(edges):
        h.add_edge("edge", f"e{k}", colour, f"x{i}", f"x{j}")
    return h


def single_block_targets():
    """Vertex-transitive targets: their partition has one block, so the
    oracle's domains start with every target vertex (3 to 10 images)."""
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return [
        complete_graph(4),
        cycle(3),
        petersen(),
        complete_bipartite(3, 3),
        # K4 with one perfect matching in a second colour
        two_coloured("k4m", 4, [("f" if {i, j} in ({0, 1}, {2, 3}) else "e", i, j) for i, j in k4]),
        # a triangle with every side doubled in a second colour
        two_coloured("tri2", 3, [(c, i, (i + 1) % 3) for i in range(3) for c in "ef"]),
    ]


def rewired(h, r, rng):
    """r copies of every vertex of h (whose edges are all plain edges),
    each colour's edges then paired at random: the per-colour degrees of
    an r-fold lift, but seldom a lift, so most answers are "no" or
    "unknown" after a deep search."""
    g = Graph(f"{h.name}-rewired")
    for v in h.vertices():
        for i in range(r):
            g.add_vertex(f"{v}.{i}", h.vertex_colour(v))
    ids = itertools.count()
    for colour in sorted({e.colour for e in h.edges()}):
        stubs = [f"{end}.{i}" for e in h.edges() if e.colour == colour for end in e.ends for i in range(r)]
        while True:
            rng.shuffle(stubs)
            ends = list(zip(stubs[::2], stubs[1::2]))
            if all(a != b for a, b in ends):
                break
        for a, b in ends:
            g.add_edge("edge", f"r{next(ids)}", colour, a, b)
    return g


def reference_pairs():
    """Sources over connected targets (lifts, lifts with two edges
    switched, and unions of two lifts, which make the search split), and
    over disconnected targets, which take the fibre-cap path; then
    sources over single-block targets, where domains hold three or more
    images and forcing can take several at once; then the small pairs
    over targets with twins that tests/test_twins.py sweeps."""
    rng = random.Random(2026)
    for t in range(60):
        h = random_target(rng, rng.randrange(1, 5), f"h{t}")
        seed = rng.randrange(10**6)
        yield random_lift(h, rng.randrange(2, 4), seed), h
        yield switched(random_lift(h, rng.randrange(2, 4), seed + 1), rng), h
        # at least DECOMPOSE_MIN vertices in two pieces
        r = max(2, -(-covers._VertexSearch.DECOMPOSE_MIN // (2 * h.n)))
        yield disjoint_union(random_lift(h, r, seed + 2), random_lift(h, r, seed + 3)), h
        other = random_target(rng, h.n, f"k{t}") if t % 2 else h
        two = disjoint_union(h, other)
        yield random_lift(two, 2, seed + 4), two
        yield switched(random_lift(two, 2, seed + 5), rng), two
    # inputs whose partition matches the host's, so that the search
    # decides; four sheets of three or four blocks split as well
    for _, h in harmless_hosts(1):
        for r in (3, 4):
            for seed in range(2):
                yield random_compatible_input(h, r, seed), h
    # a hardness gadget that runs out of budget
    from coverkit.gadgets import build_gphi_fw, fw_target, random_formula

    yield build_gphi_fw(3, random_formula(3, 4, 3, 0)), fw_target(3)
    for h in single_block_targets() * 10:
        seed = rng.randrange(10**6)
        yield random_lift(h, rng.randrange(2, 5), seed), h
        yield switched(random_lift(h, rng.randrange(2, 5), seed + 1), rng), h
        yield rewired(h, rng.randrange(2, 5), rng), h
        yield rewired(h, rng.randrange(2, 5), rng), h
    # small sources over the targets with twins of the brute-force sweep
    yield from target_twin_pairs()


def searched_at_budget(g, h):
    # the search itself: parity would refute some pairs before it
    res = searched(g, h, BUDGET)
    return res.status, res.nodes, res.reason, res.projection.to_json() if res.yes else None


def observe(g, h):
    res = searched_at_budget(g, h)
    maps = []
    try:
        for proj in partial_covers(g, h, budget=BUDGET):
            maps.append(proj.to_json())
            if len(maps) == MAX_MAPS:
                break
        ended = "end"
    except BudgetExhausted:
        ended = "budget"
    return res, maps, ended


def scope_counts(search):
    """The innermost scope's count per domain size as the search keeps
    it, and as a recount of its unassigned vertices gives it."""
    s = len(search.members) - 1
    sizes = [0] * (len(search.images) + 1)
    for v, x in enumerate(search.assign):
        if x < 0 and search.scope[v] == s:
            sizes[search.domains[v].bit_count()] += 1
    return search.sizes[s], sizes


def test_search_matches_its_recursive_reference(monkeypatch):
    seen = {"split": 0, "fibre cap": 0, "twins": 0, "target twins": 0, "mirrored": 0, "kinds": set(),
            "forced": 0, "forced then emptied": 0, "failed beside a kept sibling": 0}
    search = covers._VertexSearch
    components, init, least_of_classes = search._components, search.__init__, search._least_of_classes
    remove, try_assign, unbind = search._remove, search._try_assign, search._unbind

    def counting_components(self, s):
        comps = components(self, s)
        seen["split"] += len(comps) > 1
        return comps

    def counting_init(self, tables, domains, budget_box, exact, fibre_cap=None, blocks=(), twins=(),
                      target_twins=()):
        seen["fibre cap"] += fibre_cap is not None
        seen["twins"] += bool(twins)
        seen["target twins"] += bool(target_twins)
        init(self, tables, domains, budget_box, exact, fibre_cap, blocks, twins, target_twins)

    def counting_least_of_classes(self, dom):
        tries = least_of_classes(self, dom)
        seen["mirrored"] += tries != dom
        return tries

    def counting_remove(self, w, drop, ops, dirty):
        # a removal of two or more images is one the forcing rule made
        seen["forced"] += drop.bit_count() >= 2
        kept = remove(self, w, drop, ops, dirty)
        if not kept and any(op[0] == _DOM and op[1] == w and op[2].bit_count() >= 2 for op in ops):
            seen["forced then emptied"] += 1
        return kept

    def checked_try_assign(self, u, x):
        ops = try_assign(self, u, x)
        kept, recount = scope_counts(self)
        assert kept == recount, (u, x, ops is not None)
        return ops

    def checked_unbind(self, split):
        # the solved components' trails are undone: after the split is
        # resumed, or when a component had no solution after a solved
        # sibling was kept bound
        unbind(self, split)
        seen["failed beside a kept sibling"] += 0 < split.index < len(split.comps)
        kept, recount = scope_counts(self)
        assert kept == recount, split.comps

    monkeypatch.setattr(search, "_components", counting_components)
    monkeypatch.setattr(search, "_unbind", checked_unbind)
    monkeypatch.setattr(search, "__init__", counting_init)
    monkeypatch.setattr(search, "_least_of_classes", counting_least_of_classes)
    monkeypatch.setattr(search, "_remove", counting_remove)
    monkeypatch.setattr(search, "_try_assign", checked_try_assign)
    answers = {}
    pairs = 0
    for g, h in reference_pairs():
        got = observe(g, h)
        with monkeypatch.context() as m:
            m.setattr(covers, "_VertexSearch", ReferenceVertexSearch)
            want = observe(g, h)
        assert got == want, (g.name, h.name)
        # and without target classes, the tree the search had before their
        # rule, which partial_covers still walks
        with monkeypatch.context() as m:
            m.setattr(covers, "_target_twin_classes", lambda tables, blocks: [])
            plain = searched_at_budget(g, h)
            m.setattr(covers, "_VertexSearch", ReferenceVertexSearch)
            assert searched_at_budget(g, h) == plain, (g.name, h.name)
        # the rule decides what that tree decides, alike, in no more nodes
        if plain[0] != "unknown":
            assert (plain[0], plain[2], plain[3]) == (got[0][0], got[0][2], got[0][3]), (g.name, h.name)
        assert plain[1] >= got[0][1], (g.name, h.name)
        status, _, _, cert = got[0]
        if status == "yes":
            assert verify_cover(g, h, covers.CoveringProjection.from_json(cert)).ok
        answers[status] = answers.get(status, 0) + 1
        seen["kinds"].update(e.kind for e in h.edges())
        pairs += 1
    assert pairs >= 300
    assert seen["kinds"] == {"edge", "arc", "loop", "dloop", "semi"}
    assert set(answers) == {"yes", "no", "unknown"}, answers
    # the search split into components, ran with fibre caps, ordered
    # twins and skipped the mirror images of target twins
    assert seen["split"] >= 50 and seen["fibre cap"] >= 50 and seen["twins"] >= 50, seen
    assert seen["target twins"] >= 50 and seen["mirrored"] >= 50, seen
    # forcing took several images at once, and a forced domain then ran
    # empty in the same propagation, whose trail was undone
    assert seen["forced"] >= 4000 and seen["forced then emptied"] >= 15, seen
    # and the counts held where kept siblings went back
    assert seen["failed beside a kept sibling"] >= 20, seen


def test_scope_counts_hold_whatever_order_a_trail_is_undone():
    # a forced domain emptied in the same trail: {x0..x3} to {x3}, then {}
    g, h = random_lift(complete_graph(4), 2, 0), complete_graph(4)
    domains = {u: set(h.vertices()) for u in g.vertices()}
    for order in (list, reversed):
        search = covers._VertexSearch(_DartTables(g, h), domains, [10], exact=True)
        _, before = scope_counts(search)
        ops = []
        assert search._remove(0, 0b0111, ops, {})
        assert search.sizes[0][1] == 1
        assert not search._remove(0, 0b1000, ops, {})
        search._undo(order(ops))
        kept, recount = scope_counts(search)
        assert kept == recount == before and search.domains[0] == 0b1111


# the rule for images no unassigned neighbour holds ------------------------------


def propagate_without_owed(self, dirty, ops) -> bool:
    """``_VertexSearch._propagate`` before it failed a row that owes darts
    to images none of its unassigned neighbours holds: a deficit counted
    only for images some of them still hold."""
    assign, domains, exact = self.assign, self.domains, self.exact
    caps, used, cross_rows = self.caps, self.used, self.cross_rows
    remove = self._remove
    while dirty:
        a = dirty.popitem()[0]
        cap_a, used_a = caps[assign[a]], used[a]
        for base, _, row in cross_rows[a]:
            targets = 0
            for w, _ in row:
                if assign[w] < 0:
                    targets |= domains[w]
            while targets:
                bit = targets & -targets
                targets ^= bit
                slot = base + bit.bit_length() - 1
                needed = cap_a[slot] - used_a[slot]
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
                    for w, _ in row:
                        if assign[w] < 0 and domains[w] & bit and domains[w] != bit:
                            remove(w, domains[w] ^ bit, ops, dirty)
    return True


def test_an_image_no_neighbour_holds_fails_the_node(monkeypatch):
    # a 2-lift of K4 over K4: vertex 0 at v0 owes one dart to each of v1,
    # v2 and v3, but its three neighbours can only take v1 or v2
    g, h = random_lift(complete_graph(4), 2, 0), complete_graph(4)
    names = g.vertices()
    near = {w for _, _, w, _ in darts(g, names[0])}
    assert len(near) == 3
    domains = {u: {"v1", "v2"} if u in near else set(h.vertices()) for u in names}

    def first_assignment():
        search = covers._VertexSearch(_DartTables(g, h), domains, [10], exact=True)
        return search, search._try_assign(0, 0)

    search, ops = first_assignment()
    assert ops is None and search.assign[0] == -1
    # the deficit test alone, image by image, lets the assignment stand
    monkeypatch.setattr(covers._VertexSearch, "_propagate", propagate_without_owed)
    search, ops = first_assignment()
    assert ops is not None and search.assign[0] == 0


def test_owed_image_rule_keeps_every_status(monkeypatch):
    compared, nodes = 0, [0, 0]
    for g, h in twin_pairs():
        got = oracle_cover(g, h, budget=2000)
        with monkeypatch.context() as m:
            m.setattr(covers._VertexSearch, "_propagate", propagate_without_owed)
            want = oracle_cover(g, h, budget=2000)
        if "unknown" in (got.status, want.status):
            continue
        assert got.status == want.status, (g.name, h.name)
        compared += 1
        nodes[0] += got.nodes
        nodes[1] += want.nodes
    assert compared >= 1000, compared
    # the rule prunes: the pairs both decide take fewer nodes in all
    assert nodes[0] < nodes[1], nodes
