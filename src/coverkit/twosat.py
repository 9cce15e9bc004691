"""The solver's parity constraints, solved by a union-find with parity bits.

Every constraint the cover solver emits is an equivalence (a == b), an
antivalence (a != b) or a unit (a == value): an equation a xor b = parity
over GF(2), with a unit read as an equation against a constant true node.
A union-find that stores each node's parity to its parent solves such a
system in near-linear time (Tarjan 1975).  Degenerate emissions such as
x != x (from a vertex adjacent twice to the same neighbour) are simply
contradictions.

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


class Clauses:
    """The constraints of a TwoSat as 2-clauses, written out on iteration:
    two per equivalence or antivalence, one (a, a) per unit.  ``len`` is a
    counter, so reading the size costs nothing."""

    def __init__(self, sat: "TwoSat"):
        self._sat = sat
        self.count = 0

    def __len__(self) -> int:
        return self.count

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
        self._index: dict[str, int] = {}
        self._nodes: list = [True]  # node 0: the constant units constrain
        self._constraints: list[tuple[int, int, bool]] = []  # (a, b, a != b)
        # the same constraints as 2-clauses, for size reports and cross-checks
        self.clauses = Clauses(self)
        # after an unsatisfiable solve(): [(a, b, a != b), ...], a closed walk
        self.conflict: list[tuple] | None = None

    def _node(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self._nodes)
            self._nodes.append(name)
        return self._index[name]

    def add_equivalence(self, a: str, b: str) -> None:
        self._constraints.append((self._node(a), self._node(b), False))
        self.clauses.count += 2

    def add_antivalence(self, a: str, b: str) -> None:
        self._constraints.append((self._node(a), self._node(b), True))
        self.clauses.count += 2

    def add_unit(self, a: str, value: bool) -> None:
        self._constraints.append((self._node(a), 0, not value))
        self.clauses.count += 1

    def variables(self) -> list[str]:
        return self._nodes[1:]

    def solve(self) -> dict[str, bool] | None:
        """A satisfying assignment in order of first appearance, or None
        with the witness in ``conflict``."""
        parent = list(range(len(self._nodes)))
        parity = [False] * len(parent)  # parity to parent

        def find(x: int) -> tuple[int, bool]:
            p = False
            while parent[x] != x:  # path halving: skip to the grandparent
                up = parent[x]
                parity[x] ^= parity[up]
                parent[x] = parent[up]
                p ^= parity[x]
                x = parent[x]
            return x, p

        forest: list[tuple[int, int, bool]] = []
        self.conflict = None
        for a, b, odd in self._constraints:
            (ra, pa), (rb, pb) = find(a), find(b)
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
        return {name: not find(x)[1] for x, name in enumerate(self._nodes) if x}

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
