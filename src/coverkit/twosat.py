"""The solver's parity constraints, solved by a union-find with parity bits.

Every constraint the cover solver emits is an equivalence (a == b), an
antivalence (a != b) or a unit (a == value): an equation a xor b = parity
over GF(2), with a unit read as an equation against a constant true node.
A union-find that stores each node's parity to its parent solves such a
system in near-linear time (Tarjan 1975).  Degenerate emissions such as
x != x (from a vertex adjacent twice to the same neighbour) are simply
contradictions.

Every constraint enters through one bulk insert, ``add_pairs``, which
numbers each name on first appearance and appends one constraint per
pair; ``add_equivalence`` and ``add_antivalence`` hand it one pair, and
``add_unit`` one pair against the constant.

Certificates follow the assignment, so it is fixed by one rule: the
constant is always a root, of two joined components the root that
appeared first stays the root, and a variable is true iff its parity to
its root is 0.  In a component no unit reaches, the variable that
appeared first is therefore true.

For a contradiction, ``conflict`` holds a witness: the accepted
constraints form a spanning forest, and the forest path between the two
ends of the first failing constraint, closed by that constraint, is a
cycle whose parities sum to odd.
"""

from __future__ import annotations

_CONSTANT = object()  # the index key of node 0, the constant


class Clauses:
    """The constraints of a TwoSat as 2-clauses, written out on iteration:
    two per equivalence or antivalence, one (a, a) per unit.  ``len`` is
    read off the constraint and unit counts, so it costs nothing."""

    def __init__(self, sat: "TwoSat"):
        self._sat = sat

    def __len__(self) -> int:
        return 2 * len(self._sat._constraints) - self._sat._units

    def __iter__(self):
        names = self._sat._nodes
        for a, b, odd in self._sat._constraints:
            x = names[a]
            if b == 0:  # a unit
                yield (x, not odd), (x, not odd)
            else:
                y = names[b]
                yield (x, True), (y, odd)
                yield (x, False), (y, not odd)


class TwoSat:
    def __init__(self):
        # node 0 is the constant that units constrain: conflicts name it
        # True, and the index keys it by _CONSTANT, which no name equals
        self._index: dict = {_CONSTANT: 0}
        self._nodes: list = [True]
        self._constraints: list[tuple[int, int, bool]] = []  # (a, b, a != b)
        self._units = 0
        # the same constraints as 2-clauses, for size reports and cross-checks
        self.clauses = Clauses(self)
        # after an unsatisfiable solve(): [(a, b, a != b), ...], a closed walk
        self.conflict: list[tuple] | None = None

    def add_pairs(self, pairs, odd: bool) -> None:
        """For each pair (a, b) in order, a == b, or a != b when ``odd``."""
        index, nodes = self._index, self._nodes
        append = self._constraints.append
        n = len(nodes)  # the number a new name takes
        for a, b in pairs:
            x = index.setdefault(a, n)
            if x == n:
                nodes.append(a)
                n += 1
            y = index.setdefault(b, n)
            if y == n:
                nodes.append(b)
                n += 1
            append((x, y, odd))

    def add_equivalence(self, a: str, b: str) -> None:
        self.add_pairs(((a, b),), False)

    def add_antivalence(self, a: str, b: str) -> None:
        self.add_pairs(((a, b),), True)

    def add_unit(self, a: str, value: bool) -> None:
        self.add_pairs(((a, _CONSTANT),), not value)
        self._units += 1

    def variables(self) -> list[str]:
        return self._nodes[1:]

    def solve(self) -> dict[str, bool] | None:
        """A satisfying assignment in order of first appearance, or None
        with the witness in ``conflict``."""
        parent = list(range(len(self._nodes)))
        parity = [False] * len(parent)  # parity to parent
        forest: list[tuple[int, int, bool]] = []
        self.conflict = None
        for a, b, odd in self._constraints:
            # each end's root and parity to it, halving the path on the
            # way: every node passed skips to its grandparent
            ra, pa = a, False
            while parent[ra] != ra:
                up = parent[ra]
                parity[ra] ^= parity[up]
                pa ^= parity[ra]
                parent[ra] = ra = parent[up]
            rb, pb = b, False
            while parent[rb] != rb:
                up = parent[rb]
                parity[rb] ^= parity[up]
                pb ^= parity[rb]
                parent[rb] = rb = parent[up]
            if ra == rb:
                if pa ^ pb != odd:
                    self.conflict = self._cycle(forest, a, b, odd)
                    return None
                continue
            if rb < ra:  # node numbers follow first appearance
                ra, rb = rb, ra
            parent[rb] = ra
            parity[rb] = pa ^ pb ^ odd
            forest.append((a, b, odd))
        # a node's parent has a lower number (roots link under lower roots,
        # and halving only skips upwards), so one pass in number order turns
        # each parity to the parent into the parity to the root
        for x in range(1, len(parent)):
            parity[x] ^= parity[parent[x]]
        return {name: not parity[x] for x, name in enumerate(self._nodes) if x}

    def _cycle(self, forest, a: int, b: int, odd: bool) -> list[tuple]:
        """The forest path from a to b, then the constraint (b, a, odd)."""
        adj: dict[int, list[tuple[int, bool]]] = {}
        for x, y, p in forest:
            adj.setdefault(x, []).append((y, p))
            adj.setdefault(y, []).append((x, p))
        back = {a: None}  # node -> the forest constraint it was reached by
        todo = [a]
        while b not in back:
            x = todo.pop()
            for y, p in adj.get(x, ()):
                if y not in back:
                    back[y] = (x, y, p)
                    todo.append(y)
        walk = [(b, a, odd)]
        while walk[-1][0] != a:
            walk.append(back[walk[-1][0]])
        names = self._nodes
        return [(names[x], names[y], p) for x, y, p in reversed(walk)]
