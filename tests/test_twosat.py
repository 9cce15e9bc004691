import itertools
import random
from itertools import groupby

from coverkit import TwoSat

from conftest import assert_odd_cycle


def brute_force(clauses, names):
    for bits in itertools.product((True, False), repeat=len(names)):
        val = dict(zip(names, bits))
        if all(val[a] == ap or val[b] == bp for (a, ap), (b, bp) in clauses):
            return val
    return None


def check(sat):
    # the clause view writes the clauses out on each pass and counts them
    clauses = list(sat.clauses)
    assert len(sat.clauses) == len(clauses)
    got = sat.solve()
    want = brute_force(clauses, sat.variables())
    if want is None:
        assert got is None
        assert_odd_cycle(sat.conflict, clauses)
    else:
        assert got is not None
        for (a, ap), (b, bp) in clauses:
            assert got[a] == ap or got[b] == bp
    return got


def random_ops(rng, names, size):
    """Equivalences (False, a, b), antivalences (True, a, b) and units
    ("unit", a, value) over ``names``."""
    ops = []
    for _ in range(size):
        a, b = rng.choice(names), rng.choice(names)
        kind = rng.randrange(3)
        ops.append(("unit", a, rng.random() < 0.5) if kind == 2 else (kind == 1, a, b))
    return ops


def emit(ops, bulk=False):
    """The system of ``ops``, one constraint per call, or with ``bulk``
    each run of equivalences or of antivalences in one ``add_pairs``."""
    sat = TwoSat()
    for kind, run in groupby(ops, key=lambda op: op[0]):
        if kind == "unit":
            for _, a, value in run:
                sat.add_unit(a, value)
        elif bulk:
            sat.add_pairs(((a, b) for _, a, b in run), kind)
        else:
            for _, a, b in run:
                (sat.add_antivalence if kind else sat.add_equivalence)(a, b)
    return sat


def random_system(rng, names, size):
    """Equivalences, antivalences and units over ``names``; returns the
    system and the variables each unit fixes."""
    ops = random_ops(rng, names, size)
    return emit(ops), {a for kind, a, _ in ops if kind == "unit"}


def test_antivalence():
    sat = TwoSat()
    sat.add_antivalence("x", "y")
    got = sat.solve()
    assert got["x"] != got["y"]


def test_contradiction():
    sat = TwoSat()
    sat.add_equivalence("x", "y")
    sat.add_antivalence("x", "y")
    assert sat.solve() is None
    assert sat.conflict == [("x", "y", False), ("y", "x", True)]


def test_units():
    sat = TwoSat()
    sat.add_equivalence("x", "y")
    sat.add_unit("x", True)
    got = sat.solve()
    assert got == {"x": True, "y": True}
    sat.add_unit("y", False)
    assert sat.solve() is None
    # from the clashing unit back to the first one, through the constant
    assert sat.conflict == [("y", "x", False), ("x", True, False), (True, "y", True)]


def test_self_antivalence_unsat():
    sat = TwoSat()
    sat.add_antivalence("x", "x")
    assert sat.solve() is None
    assert sat.conflict == [("x", "x", True)]


def test_random_against_brute_force():
    rng = random.Random(42)
    names = [f"v{i}" for i in range(12)]
    for trial in range(300):
        sat, _ = random_system(rng, names, rng.randrange(1, 24))
        check(sat)


def test_bulk_and_one_pair_emission_agree():
    # the systems of test_random_against_brute_force, emitted both ways
    rng = random.Random(42)
    names = [f"v{i}" for i in range(12)]
    runs = 0
    for trial in range(300):
        ops = random_ops(rng, names, rng.randrange(1, 24))
        one, bulk = emit(ops), emit(ops, bulk=True)
        assert len(bulk.clauses) == len(one.clauses)
        assert list(bulk.clauses) == list(one.clauses)
        assert bulk.variables() == one.variables()
        assert bulk.solve() == one.solve()
        assert bulk.conflict == one.conflict
        runs += sum(1 for kind, run in groupby(ops, key=lambda op: op[0]) if kind != "unit" and len(list(run)) > 1)
    assert runs > 300


def test_first_variable_of_a_free_component_is_true():
    """The assignment rule certificates depend on: in every component of
    the constraint graph that no unit reaches, the variable added first is
    true (and the result lists variables in order of first appearance)."""
    rng = random.Random(7)
    names = [f"v{i}" for i in range(12)]
    free_components = 0
    for trial in range(300):
        sat, fixed = random_system(rng, names, rng.randrange(1, 12))
        got = check(sat)
        if got is None:
            continue
        assert list(got) == sat.variables()
        comp = {v: {v} for v in sat.variables()}
        for (a, _), (b, _) in sat.clauses:
            if comp[a] is not comp[b]:
                merged = comp[a] | comp[b]
                for v in merged:
                    comp[v] = merged
        for v in sat.variables():
            members = comp[v]
            first = next(w for w in sat.variables() if w in members)
            if v == first and not members & fixed:
                assert got[v] is True
                free_components += 1
    assert free_components >= 200
