import json

import pytest

from coverkit import Graph, classify, parse_graph, reduce_pair, serialize_graph, verify_parity
from coverkit.cli import main
from coverkit.gadgets import Formula, fw2_target, fw_target

from conftest import complete_graph, cycle, looped_triangle_with_tails, one_vertex, two_vertex_w


@pytest.fixture()
def files(tmp_path):
    def write(name, g):
        p = tmp_path / name
        p.write_text(serialize_graph(g))
        return str(p)

    return tmp_path, write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_solve_roundtrip(files, capsys, tmp_path):
    _, write = files
    g = write("c6.graph", cycle(6))
    h = write("w2.graph", two_vertex_w(0, 0, 2, 0, 0))
    cert = str(tmp_path / "cert.json")
    code, out = run(capsys, "solve", g, h, "--certificate", cert)
    assert code == 0
    assert out["status"] == "covers"
    code, out = run(capsys, "verify", g, h, cert)
    assert code == 0 and out["valid"]


def test_solve_negative_and_refused(files, capsys):
    _, write = files
    c5 = write("c5.graph", cycle(5))
    h = write("w2.graph", two_vertex_w(0, 0, 2, 0, 0))
    code, out = run(capsys, "solve", c5, h)
    assert code == 1 and out["status"] == "does-not-cover"
    f3 = write("f30.graph", one_vertex(semis=3))
    code, out = run(capsys, "solve", c5, f3)
    assert code == 2 and out["status"] == "refused"


def test_solve_trace_names_the_odd_cycle(files, capsys, tmp_path):
    _, write = files
    c5 = write("c5.graph", cycle(5))
    h = write("w2.graph", two_vertex_w(0, 0, 2, 0, 0))
    trace = tmp_path / "trace.json"
    code, out = run(capsys, "solve", c5, h, "--trace", str(trace))
    assert code == 1 and out["failure"] == "2-SAT unsatisfiable"
    conflict = json.loads(trace.read_text())["conflict"]
    # the whole 5-cycle, one "other target vertex" constraint per edge
    assert sorted(a for a, _, _ in conflict) == [f"v{i}" for i in range(5)]
    assert [b for _, _, b in conflict] == [a for a, _, _ in conflict[1:] + conflict[:1]]
    assert all(rel == "!=" for _, rel, _ in conflict)


def test_verify_corrupted_map(files, capsys, tmp_path):
    _, write = files
    g = write("c4.graph", cycle(4))
    h = write("w2.graph", two_vertex_w(0, 0, 2, 0, 0))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "fv": {"v0": "x", "v1": "y", "v2": "x", "v3": "y"},
        "fe": {"e0": "c0", "e1": "c0", "e2": "c0", "e3": "c1"},
    }))
    code, out = run(capsys, "verify", g, h, str(bad))
    assert code == 1
    assert not out["valid"] and out["violations"]


def test_classify_f30(files, capsys):
    _, write = files
    f3 = write("f30.graph", one_vertex(semis=3))
    code, out = run(capsys, "classify", f3)
    assert code == 0
    assert out["verdict"] == "np_complete_for_simple_inputs"


def test_classify_fw2(files, capsys):
    from coverkit.gadgets import fw2_target

    _, write = files
    h = write("fw2.graph", fw2_target())
    code, out = run(capsys, "classify", h)
    assert code == 0
    assert out["verdict"] == "polynomial"


def test_oracle_exit_codes(files, capsys, tmp_path):
    _, write = files
    c3 = write("c3.graph", cycle(3))
    c4 = write("c4.graph", cycle(4))
    f20 = write("f20.graph", one_vertex(semis=2))
    cert = str(tmp_path / "oc.json")
    code, _ = run(capsys, "oracle", c4, f20, "--certificate", cert)
    assert code == 0
    # oracle certificates round-trip through verify
    code, out = run(capsys, "verify", c4, f20, cert)
    assert code == 0 and out["valid"]
    assert run(capsys, "oracle", c3, f20)[0] == 1
    code, _ = run(capsys, "oracle", write("c12.graph", cycle(12)), write("c3b.graph", cycle(3)), "--budget", "1")
    assert code == 2  # unknown under a starvation budget


def test_oracle_json_names_its_reason(files, capsys):
    _, write = files
    c3, c4, c6 = (write(f"c{n}.graph", cycle(n)) for n in (3, 4, 6))
    code, out = run(capsys, "oracle", c6, c3)
    assert (code, out["status"], out["reason"]) == (0, "yes", "cover")
    code, out = run(capsys, "oracle", c4, c3)
    assert (code, out["status"], out["reason"]) == (1, "no", "fold")
    code, out = run(capsys, "oracle", write("c12.graph", cycle(12)), c3, "--budget", "2")
    assert (code, out["status"], out["reason"], out["nodes"]) == (2, "unknown", "budget", 2)


def test_oracle_prints_the_parity_witness(capsys, tmp_path):
    # the unsatisfiable 8-clause formula of seed 31, refuted before the search
    g, h = str(tmp_path / "u.graph"), str(tmp_path / "fw3.graph")
    assert main(["gen", "gphi", "--c", "3", "--clauses", "8", "--seed", "31", "-o", g]) == 0
    assert main(["gen", "fwtarget", "--c", "3", "-o", h]) == 0
    capsys.readouterr()
    code, out = run(capsys, "oracle", g, h, "--budget", "2000")
    assert (code, out["status"], out["reason"], out["nodes"]) == (1, "no", "parity", 0)
    with open(g, encoding="utf-8") as fg, open(h, encoding="utf-8") as fh:
        assert verify_parity(parse_graph(fg.read()), parse_graph(fh.read()), out["witness"]).ok


def test_partition_and_reduce(files, capsys):
    from coverkit.gadgets import fw2_target

    _, write = files
    h = write("fw2.graph", fw2_target())
    code, out = run(capsys, "partition", h)
    assert code == 0 and len(out["blocks"]) == 2
    code, out = run(capsys, "reduce", h)
    assert code == 0
    assert "loop" in out["g"]


def test_gen_and_dot(files, capsys, tmp_path):
    code, out = run(capsys, "gen", "tripod")
    assert code == 0 and "graph tripod" in out
    code, out = run(capsys, "--pretty", "gen", "gphi", "--c", "3", "--clauses", "3", "--seed", "1")
    assert code == 0
    path = tmp_path / "t.graph"
    assert main(["gen", "tripod", "-o", str(path)]) == 0
    assert main(["dot", str(path)]) == 0
    out = capsys.readouterr().out
    assert "graph" in out and "--" in out


GEN_GRAPHS = ["tripod", "fw2", "c0", "ck", "dk", "b1", "target", "gphi", "fwtarget",
              "wdtarget", "wdlift", "regular"]


@pytest.mark.parametrize("name", GEN_GRAPHS)
def test_gen_graph_reads_back(name, capsys, tmp_path):
    path = tmp_path / f"{name}.graph"
    assert main(["gen", name, "-o", str(path)]) == 0
    text = path.read_text()
    g = parse_graph(text)
    assert g.n > 0 and serialize_graph(g) == text


def test_gen_formula_reads_back_and_feeds_gadgets(capsys, tmp_path):
    # the default formula suits the variable gadgets' composer (2-in-4);
    # G_phi for c = 3 takes one in which each variable occurs 3 times
    for gadget, flags in (("c0", []), ("gphi", ["--c", "3", "--clauses", "3", "--k", "3"])):
        path = tmp_path / f"{gadget}.json"
        assert main(["gen", "formula", *flags, "-o", str(path)]) == 0
        f = Formula.from_json(path.read_text())
        assert f.c == (3 if flags else 2) and f.clauses
        code, out = run(capsys, "gen", gadget, *flags[:2], "--formula", str(path))
        assert code == 0 and parse_graph(out).n > 0, gadget
    code, out = run(capsys, "gen", "formula")
    assert code == 0 and Formula.from_json(json.dumps(out)).c == 2


@pytest.mark.parametrize("argv", [["target", "--case", "ck", "--k", "0"], ["formula", "--k", "0"],
                                  ["gphi", "--c", "0"]], ids=["target-k0", "formula-k0", "gphi-c0"])
def test_gen_explicit_zero_reaches_the_builder(argv, capsys):
    # an explicit 0 is not the default: the builder refuses it as input
    assert main(["gen", *argv]) == 3
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("text", ["{}", '{"c": 3, "clauses": 5}'], ids=["empty", "clauses-not-a-list"])
def test_gen_gphi_malformed_formula_is_an_input_error(text, capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(text)
    assert main(["gen", "gphi", "--formula", str(path)]) == 3
    assert "internal error" not in json.loads(capsys.readouterr().err)["error"]


def test_gen_gphi_takes_c_from_the_formula(capsys, tmp_path):
    # c = 4, every variable 4 times; a --c that disagrees is refused
    path = tmp_path / "f4.json"
    path.write_text(Formula(4, [[f"x{i}" for i in range(8)]] * 4).to_json())
    code, out = run(capsys, "gen", "gphi", "--formula", str(path))
    assert code == 0 and out.startswith("graph gphi-fw4\n")
    assert main(["gen", "gphi", "--c", "3", "--formula", str(path)]) == 3
    assert "arity" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("argv,formula", [
    (["gphi", "--clauses", "0"], None), (["formula", "--clauses", "0"], None),
    (["fwtarget", "--c", "0"], None), (["fwtarget", "--c", "-2"], None),
    (["wdtarget", "--b", "0", "--c", "0"], None), (["wdtarget", "--b", "-1", "--c", "2"], None),
    (["gphi"], '{"c": 3, "clauses": []}'), (["c0"], '{"c": 2, "clauses": []}'), (["nonsense"], None),
    (["wdlift", "--b", "-1", "--c", "2"], None), (["wdlift", "--b", "2", "--c", "-1"], None),
    (["formula", "--c", "-1", "--clauses", "2", "--k", "1"], None),
], ids=["gphi-0-clauses", "formula-0-clauses", "fwtarget-c0", "fwtarget-c-2", "wdtarget-b0-c0",
        "wdtarget-b-1", "gphi-empty-formula", "c0-empty-formula", "unknown-gadget", "wdlift-b-1",
        "wdlift-c-1", "formula-c-1"])
def test_gen_refuses_empty_and_unknown_instances(argv, formula, capsys, tmp_path):
    # an empty G_phi covers no target, yet the empty formula is satisfiable
    if formula is not None:
        path = tmp_path / "f.json"
        path.write_text(formula)
        argv = [*argv, "--formula", str(path)]
    assert main(["gen", *argv]) == 3
    assert "internal error" not in json.loads(capsys.readouterr().err)["error"]


def test_dot_every_edge_kind(files, capsys):
    _, write = files
    g = Graph("kinds")
    for v in ("a", "b"):
        g.add_vertex(v, "n")
    g.add_edge("edge", "e", "e", "a", "b")
    g.add_edge("arc", "r", "d", "a", "b")
    g.add_edge("loop", "l", "e", "a")
    g.add_edge("dloop", "dl", "d", "b")
    g.add_edge("semi", "s", "e", "b")
    code, out = run(capsys, "dot", write("kinds.graph", g))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'graph "kinds" {' and lines[-1] == "}"
    body = " ".join(lines)
    assert '"a" -- "b" [color=' in body
    assert '"a" -- "b" [color=black, dir=forward];' in body
    assert '"a" -- "a" [color=' in body
    assert '"b" -- "b" [color=black, dir=forward];' in body
    assert '"__stub1" [style=invis, shape=point];' in body and '"b" -- "__stub1"' in body


def test_reduce_pair_of_graphs(files, capsys):
    _, write = files
    g, h = looped_triangle_with_tails(2, 2), looped_triangle_with_tails(1)
    code, out = run(capsys, "reduce", write("g.graph", g), write("h.graph", h))
    assert code == 0 and set(out) == {"g", "h", "record"}
    gr, hr, _ = reduce_pair(g, h)
    assert (out["g"], out["h"]) == (serialize_graph(gr), serialize_graph(hr))


def test_input_error(files, capsys, tmp_path):
    p = tmp_path / "broken.graph"
    p.write_text("vertex before graph\n")
    code = main(["classify", str(p)])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["classify", "{dir}"], ["classify", "{bad}"], ["partition", "{bad}"],
    ["verify", "{good}", "{good}", "{bad}"], ["verify", "{good}", "{good}", "{dir}"],
    ["gen", "gphi", "--formula", "{bad}"], ["gen", "gphi", "--formula", "{dir}"],
], ids=["classify-dir", "classify-not-utf8", "partition-not-utf8", "verify-cert-not-utf8",
        "verify-cert-dir", "formula-not-utf8", "formula-dir"])
def test_unreadable_file_is_an_input_error(argv, files, capsys, tmp_path):
    _, write = files
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"graph g\nvertex \xff\xfe n\n")
    paths = {"dir": str(tmp_path), "bad": str(bad), "good": write("c4.graph", cycle(4))}
    assert main([arg.format(**paths) for arg in argv]) == 3
    assert "internal error" not in json.loads(capsys.readouterr().err)["error"]


def test_verify_certificate_without_fv(files, capsys, tmp_path):
    _, write = files
    g = write("c4.graph", cycle(4))
    h = write("w2.graph", two_vertex_w(0, 0, 2, 0, 0))
    bad = tmp_path / "nofv.json"
    bad.write_text(json.dumps({"fe": {"e0": "c0"}}))
    assert main(["verify", g, h, str(bad)]) == 3
    assert "error" in json.loads(capsys.readouterr().err)


def test_verify_certificate_naming_unknown_vertex(capsys, tmp_path):
    g = tmp_path / "g.graph"
    g.write_text("graph g\nvertex a n\nloop m e a\n")
    h = tmp_path / "h.graph"
    h.write_text("graph h\nvertex x n\nloop l e x\n")
    cert = tmp_path / "extra.json"
    cert.write_text(json.dumps({"fv": {"a": "x", "zz": "nope"}, "fe": {"m": "l"}}))
    code, out = run(capsys, "verify", str(g), str(h), str(cert))
    assert code == 1
    assert not out["valid"] and any("zz" in v for v in out["violations"])


def test_internal_error_is_not_a_negative_answer(files, capsys, monkeypatch):
    def crash(g, h):
        raise RuntimeError("boom")

    monkeypatch.setattr("coverkit.cli.solve_cover", crash)
    _, write = files
    c4, w2 = write("c4.graph", cycle(4)), write("w2.graph", two_vertex_w(0, 0, 2, 0, 0))
    assert main(["solve", c4, w2]) == 2
    assert "boom" in json.loads(capsys.readouterr().err)["error"]


def test_oracle_rejects_negative_budget_flag(files, capsys):
    _, write = files
    c4, f20 = write("c4.graph", cycle(4)), write("f20.graph", one_vertex(semis=2))
    for budget in ("-5", "0"):
        assert main(["oracle", c4, f20, "--budget", budget]) == 3
        assert "budget" in json.loads(capsys.readouterr().err)["error"]


def test_usage_error_is_an_input_error(files, capsys):
    _, write = files
    c4, f20 = write("c4.graph", cycle(4)), write("f20.graph", one_vertex(semis=2))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", c4, f20, "--budget", "abc"])
    assert exc.value.code == 3
    assert "--budget" in json.loads(capsys.readouterr().err)["error"]
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_classify_analyzes_the_target_once(files, capsys, monkeypatch):
    # the 4-cycle a-b-c-d plus the path a-e-c: the verdict's analysis of
    # the reduced target is the one the output prints
    _, write = files
    theta = write("theta.graph", _graph("theta", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                                                   ("a", "e"), ("e", "c")]))
    calls = []
    real = classify.degree_partition
    monkeypatch.setattr(classify, "degree_partition", lambda h: calls.append(h.name) or real(h))
    code, out = run(capsys, "classify", theta)
    assert (code, out["verdict"]) == (0, "polynomial")
    assert len(calls) == 1


def test_classify_deep_pending_tree(files, capsys):
    _, write = files
    h = write("tadpole.graph", looped_triangle_with_tails(5000))
    code, out = run(capsys, "classify", h)
    assert code == 0
    assert out["verdict"] == "polynomial" and out["shapes"]


def _graph(name, edges):
    g = Graph(name)
    for v in dict.fromkeys(v for e in edges for v in e):
        g.add_vertex(v, "n")
    for i, (u, v) in enumerate(edges):
        g.add_edge("edge", f"t{i}", "e", u, v)
    return g


@pytest.mark.parametrize("target, reason", [
    (lambda: fw_target(3), "target contains a harmful block graph FW(3) (NP-complete target; use the oracle)"),
    (fw2_target, "target contains a dangerous block graph FW(2) (use the oracle)"),
    (lambda: complete_graph(4), "target has a degree-partition block of more than 2 vertices"),
], ids=["fw3", "fw2", "k4"])
def test_solve_prints_the_refusal_reason(target, reason, files, capsys):
    _, write = files
    path = write("h.graph", target())
    code, out = run(capsys, "solve", path, path)
    assert code == 2
    assert out == {"status": "refused", "reason": reason}


def test_classify_prints_the_classified_block_graphs(files, capsys):
    _, write = files
    # the 4-cycle a-b-c-d plus the path a-e-c: reduced, one doublet with a triple bundle
    theta = write("theta.graph", _graph("theta", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                                                   ("a", "e"), ("e", "c")]))
    code, out = run(capsys, "classify", theta)
    assert code == 0
    assert out == {
        "verdict": "polynomial",
        "reason": "all block graphs are harmless",
        "shapes": [{"blocks": [0], "colour": "c0.0.p0", "shape": "W(0,0,3,0,0)", "class": "harmless"}],
    }
    # a spider with legs of lengths 1, 2 and 3: every block is a singleton
    spider = write("spider.graph", _graph("spider", [("x", "l1"), ("x", "m1"), ("m1", "m2"),
                                                     ("x", "n1"), ("n1", "n2"), ("n2", "n3")]))
    code, out = run(capsys, "classify", spider)
    assert code == 0
    assert out == {
        "verdict": "polynomial",
        "reason": "target is a tree, path or cycle",
        "shapes": [
            {"blocks": [i, j], "colour": f"c{i}.{j}.e", "shape": "FF(1)", "class": "harmless"}
            for i, j in [(0, 3), (1, 4), (2, 6), (3, 5), (4, 6), (5, 6)]
        ],
    }
