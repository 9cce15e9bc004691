"""The oracle's parity check: the degree rows mod 2, their elimination,
and the witness that ``verify_parity`` re-checks.

Every cover's vertex map satisfies the degree rows, so rows that sum to
0 = 1 refute a pair.  The scan pins which gadget instances parity
refutes: no satisfiable formula, and unsatisfiable ones that the search
needs tens of thousands of nodes for.
"""

import json

import pytest

from coverkit import covers, oracle_cover, verify_parity
from coverkit.gadgets import brute_force_formula, build_gphi_fw, fw_target, random_formula

from conftest import cycle, searched
from hosts import harmless_hosts, random_compatible_input

H3 = fw_target(3)


def parity(g, h):
    """The witness of the oracle's parity check, or None."""
    tables, domains, *_ = covers._pre_checks(g, h)
    return covers._parity_witness(*covers._degree_rows(tables, domains))


def gphi(n_clauses, seed):
    return build_gphi_fw(3, random_formula(3, n_clauses, 3, seed))


# every unsatisfiable formula with 6 to 10 clauses and seeds 0 to 299 but
# (7, 68) fails parity
REFUTED = [(6, 251), (8, 31), (8, 36), (8, 214), (8, 274), (9, 108), (10, 101)]


def test_parity_refutes_no_satisfiable_formula_and_the_listed_unsatisfiable_ones():
    satisfiable, refuted = 0, []
    for n_clauses in range(4, 9):
        for seed in range(40):
            f = random_formula(3, n_clauses, 3, seed)
            sat = brute_force_formula(f) is not None
            satisfiable += sat
            if parity(build_gphi_fw(3, f), H3) is not None:
                assert not sat, (n_clauses, seed)
                refuted.append((n_clauses, seed))
    assert (satisfiable, refuted) == (198, [(8, 31), (8, 36)])
    for n_clauses, seed in REFUTED:
        g = gphi(n_clauses, seed)
        witness = parity(g, H3)
        assert witness is not None and verify_parity(g, H3, witness).ok, (n_clauses, seed)
    # unsatisfiable, yet its rows have a solution mod 2: left to the search
    assert brute_force_formula(random_formula(3, 7, 3, 68)) is None
    assert parity(gphi(7, 68), H3) is None


def test_parity_refutes_only_what_the_search_refutes():
    # inputs with the target's partition and refinement matrix, covers or
    # not; the search decides each of them within the budget
    answers = {}
    for _, h in harmless_hosts(1):
        for r in (2, 3):
            for seed in range(10):
                g = random_compatible_input(h, r, seed)
                if isinstance(covers._pre_checks(g, h), covers.OracleResult):
                    continue
                witness = parity(g, h)
                res = searched(g, h, 5000)
                key = ("refuted" if witness else "feasible", res.status)
                answers[key] = answers.get(key, 0) + 1
                if witness:
                    assert verify_parity(g, h, witness).ok
                    assert res.no, (g.name, h.name)
    assert answers[("refuted", "no")] >= 50 and answers[("feasible", "yes")] >= 150, answers


@pytest.mark.parametrize("seed", [31, 36])
def test_verify_parity_accepts_the_witness_and_rejects_one_row_changed(seed):
    g = gphi(8, seed)
    res = oracle_cover(g, H3, budget=2000)
    assert (res.status, res.reason, res.nodes) == ("no", "parity", 0)
    witness = res.witness
    assert verify_parity(g, H3, witness).ok
    # as `coverkit oracle` prints it
    assert verify_parity(g, H3, json.loads(json.dumps(witness))).ok
    named = set(witness)
    for i, rid in enumerate(witness):
        rest = witness[:i] + witness[i + 1:]
        assert not verify_parity(g, H3, rest).ok, ("dropped", rid)
        # flipped: the row of another image, or another vertex's one-hot row
        if rid[0] == "one-hot":
            other = next(("one-hot", v) for v in g.vertices() if ("one-hot", v) not in named)
        else:
            u, key, y = rid
            other = next((u, key, z) for z in H3.vertices() if z != y and (u, key, z) not in named)
        assert not verify_parity(g, H3, [*rest[:i], other, *rest[i:]]).ok, ("flipped", rid)
    twice = verify_parity(g, H3, [*witness, witness[0]])
    assert not twice.ok and "named twice" in twice.violations[0]


def test_verify_parity_rejects_what_names_no_row_or_refutes_nothing():
    g = gphi(8, 31)
    witness = parity(g, H3)
    # the same rows of a satisfiable formula's graph do not sum to 0 = 1
    assert not verify_parity(gphi(8, 0), H3, witness).ok
    bad = verify_parity(g, H3, [("one-hot", "nowhere"), (g.vertices()[0], ("e", "u"), "nowhere")])
    assert not bad.ok and len(bad.violations) == 2
    # a pair the pre-checks refute never reaches parity
    res = verify_parity(cycle(5), cycle(3), [])
    assert not res.ok and "fold" in res.violations[0]


@pytest.mark.parametrize("witness", [[5], 7, None, [[1, [2], {}]]],
                         ids=["row-not-a-list", "int", "none", "row-unhashable"])
def test_verify_parity_reports_a_malformed_witness(witness):
    res = verify_parity(gphi(8, 31), H3, witness)
    assert not res.ok and res.violations
