import io
import json
import os
import random
from contextlib import redirect_stdout

import pytest

from semizn import cli, geometry, jsonio, positions
from semizn.cli import _budget, build_parser, main
from semizn.closure import eulerian_closure
from semizn.decide import Budget

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INST = os.path.join(ROOT, "instances")


def run(*argv):
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, buf.getvalue()


def path(name):
    return os.path.join(INST, name)


def test_check_group_yes():
    code, out = run("check", "group", path("inverse_pair.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert doc["witness"]["word"] == [1, 2]


def test_check_group_yes_with_certificate():
    """The escape cells are the face report of the witness's support hull,
    in the format of `graph analyze --certificate`."""
    code, out = run("check", "group", path("inverse_pair.json"), "--certificate")
    assert code == 0
    cells = json.loads(out)["witness"]["escape_cells"]
    assert cells == [{"accessible": True, "direction": [-1], "face": [[0]]},
                     {"accessible": True, "direction": [1], "face": [[1]]}]


def test_check_group_sublattice_with_certificate(tmp_path):
    """The figure's steps span the index-2 sublattice with Hermite basis
    (2, 0), (0, 1): the positions and the graph are over that basis, the
    escape cells are the face report of those positions, and the word is
    in the instance's letters."""
    code, out = run("check", "group", path("fig2.json"), "--certificate")
    assert code == 0
    witness = json.loads(out)["witness"]
    assert witness["graph"]["steps"] == [[-1, 3], [1, 0], [0, -2]]
    assert witness["escape_cells"] and all(c["accessible"] for c in witness["escape_cells"])
    wpath = tmp_path / "witness.json"
    wpath.write_text(json.dumps({"type": "word", "word": witness["word"]}))
    code, out = run("verify", str(wpath), path("fig2.json"))
    assert code == 0 and json.loads(out)["valid"] is True


def test_check_identity_and_inverse_with_certificate():
    """Identity and Inverse `yes` witnesses carry their escape cells too,
    over the basis of their positions and graph."""
    for args in (["identity"], ["inverse", "--target", "2"]):
        code, out = run("check", args[0], path("fig2.json"), *args[1:], "--certificate")
        assert code == 0
        witness = json.loads(out)["witness"]
        assert witness["escape_cells"] and all(c["accessible"] for c in witness["escape_cells"])


def test_bare_check_parses_to_the_default_budget():
    args = build_parser().parse_args(["check", "group", "instance.json"])
    assert _budget(args) == Budget()
    args = build_parser().parse_args(["euler-close", "graph.json"])
    assert args.max_n == Budget().closure_n


def test_check_group_no_with_certificate():
    code, out = run("check", "group", path("one_way.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "no"
    assert doc["certificate"]["sample"] == ["1"]


def test_check_group_unknown_exit():
    code, out = run("check", "group", path("one_way.json"),
                    "--samples", "0", "--budget-degree", "0")
    assert code == 2
    assert json.loads(out)["verdict"] == "unknown"


def test_graph_word_figure():
    code, out = run("graph", "word", path("fig2.json"), "--word", "1 2 2 3 3 1 3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["edges"]) == 7
    assert doc["represents"]["a"] == [0, 0]
    starts = {tuple(e["s"]) for e in doc["edges"]}
    assert starts == {(0, 0), (-2, 3), (0, 3), (2, 3), (2, 1), (2, -1), (0, 2)}


def test_graph_analyze_and_euler_close():
    code, out = run("graph", "analyze", path("inaccessible_graph.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["symmetric"] and not doc["face_accessible"]
    code, out = run("euler-close", path("inaccessible_graph.json"))
    assert code == 1
    assert json.loads(out)["failed"] == "face_accessible"
    code, out = run("euler-close", path("disjoint_loops_graph.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 2 and len(doc["translations"]) == 5


def test_negative_max_n_is_a_usage_error(capsys):
    """`euler-close --max-n -1` is refused as `check --closure-n -1` is:
    exit 64, one error line, no output; `eulerian_closure` raises
    ValueError.  `--max-n 0` tries no N and reports the budget, exit 2."""
    loops = path("disjoint_loops_graph.json")
    for argv in (["euler-close", loops, "--max-n", "-1"],
                 ["euler-close", path("inaccessible_graph.json"), "--max-n", "-1"],
                 ["check", "group", path("inverse_pair.json"), "--closure-n", "-1"]):
        capsys.readouterr()
        code, out = run(*argv)
        err = capsys.readouterr().err
        assert code == 64 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    with open(loops, encoding="utf-8") as fh:
        graph = jsonio.graph_from_json(json.load(fh))
    with pytest.raises(ValueError, match="max_n"):
        eulerian_closure(graph, max_n=-1)
    code, out = run("euler-close", loops, "--max-n", "0")
    assert code == 2 and out == '{"error":"budget","max_n":0}\n'


def test_a_large_3d_graph_gets_an_exact_hull(tmp_path):
    """A symmetric 3-D graph with 240 vertices (random starts in [-40, 40]^3,
    each unit-step edge paired with its reverse) has an exact hull with no
    cap on its size; its faces are not all accessible."""
    rng = random.Random(240)
    steps = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    edges, seen = [], set()
    while len(seen) < 240:
        s = tuple(rng.randint(-40, 40) for _ in range(3))
        label = rng.randint(1, 6)
        d = tuple(a + b for a, b in zip(s, steps[label - 1]))
        if s in seen or d in seen:
            continue
        seen |= {s, d}
        back = label + 1 if label % 2 else label - 1
        edges += [{"label": label, "s": list(s)}, {"label": back, "s": list(d)}]
    graph = tmp_path / "big_graph.json"
    graph.write_text(json.dumps({"edges": edges, "steps": steps}))
    code, out = run("graph", "analyze", str(graph))
    assert code == 0
    assert json.loads(out)["face_accessible"] is False
    code, out = run("euler-close", str(graph))
    assert code == 1
    assert json.loads(out)["failed"] == "face_accessible"


def test_syzygy_command():
    code, out = run("syzygy", path("inverse_pair.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == 2
    assert doc["generators"] == [[[{"c": "1", "e": [0]}], [{"c": "1", "e": [1]}]]]


def test_frontend_roundtrip(tmp_path):
    out_path = tmp_path / "instance.json"
    code, _ = run("frontend", path("metabelian_free.json"), "-o", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["generators"]) == 4
    # the produced instance is decidable and a group
    code, out = run("check", "group", str(out_path))
    assert code == 0


def test_emitted_witness_reverifies(tmp_path):
    code, out = run("check", "group", path("wreath_pairs.json"))
    assert code == 0
    word = json.loads(out)["witness"]["word"]
    wpath = tmp_path / "witness.json"
    wpath.write_text(json.dumps({"type": "word", "word": word}))
    code, out = run("verify", str(wpath), path("wreath_pairs.json"))
    assert code == 0
    assert json.loads(out)["valid"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "word", "word": [1]}))
    code, out = run("verify", str(bad), path("wreath_pairs.json"))
    assert code == 1


def test_graph_witness_over_other_steps_is_a_data_error(tmp_path, capsys):
    """A graph witness is checked over the instance's steps, so a graph
    whose own steps differ (here the fig2 graph, over the sublattice basis)
    is malformed for that instance; its word verifies."""
    code, out = run("check", "group", path("fig2.json"))
    assert code == 0
    witness = json.loads(out)["witness"]
    word, graph = tmp_path / "word.json", tmp_path / "graph.json"
    word.write_text(json.dumps({"type": "word", "word": witness["word"]}))
    graph.write_text(json.dumps({"type": "graph", "graph": witness["graph"]}))
    assert run("verify", str(word), path("fig2.json")) == (0, '{"valid":true}\n')
    code, out = run("verify", str(graph), path("fig2.json"))
    assert code == 65 and out == ""
    err = capsys.readouterr().err
    assert "[[-1, 3], [1, 0], [0, -2]]" in err and "[[-2, 3], [2, 0], [0, -2]]" in err
    # a graph over the instance's own steps still verifies
    code, out = run("check", "group", path("wreath_pairs.json"))
    graph.write_text(json.dumps({"type": "graph", "graph": json.loads(out)["witness"]["graph"]}))
    assert run("verify", str(graph), path("wreath_pairs.json")) == (0, '{"valid":true}\n')


def test_byte_identical_outputs():
    outs = {run("check", "group", path("inverse_pair.json"))[1] for _ in range(3)}
    assert len(outs) == 1
    outs = {run("syzygy", path("wreath_pairs.json"))[1] for _ in range(3)}
    assert len(outs) == 1


def test_dot_export(tmp_path):
    dot = tmp_path / "g.dot"
    code, _ = run("graph", "word", path("fig2.json"), "--word", "1 2", "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "label=1" in text


def test_usage_and_parse_errors(tmp_path, capsys):
    code, _ = run("check", "nonsense", path("inverse_pair.json"))
    assert code == 64
    code, _ = run()
    assert code == 64
    for argv in (["inverse", path("fig2.json"), "--target", "9"],
                 ["inverse", path("fig2.json"), "--target", "0"],
                 ["group", path("inverse_pair.json"), "--samples", "-1"],
                 ["identity", path("inverse_pair.json"), "--budget-degree", "-1"],
                 ["group", path("fig2.json"), "--timeout", "-1"],
                 ["group", path("fig2.json"), "--timeout", "nan"]):
        capsys.readouterr()
        code, out = run("check", *argv)
        err = capsys.readouterr().err
        assert code == 64 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _ = run("check", "group", str(broken))
    assert code == 65
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"module": {"n": 1, "d": 1}, "generators": []}))
    code, _ = run("check", "group", str(bad))
    assert code == 65


def test_an_internal_error_is_never_read_as_no(monkeypatch, capsys):
    """An exception the CLI does not map, a failed self-check such as
    `_check_refutation`'s included, exits 70 with one stderr line and
    nothing on stdout: exit 1 with a traceback would read as `no`."""
    def broken(gens, budget):
        raise AssertionError("invalid dual certificate")

    monkeypatch.setattr(cli, "decide_identity", broken)
    capsys.readouterr()
    code, out = run("check", "identity", path("fig2.json"))
    assert code == 70 and out == ""
    assert capsys.readouterr().err == "error: internal: AssertionError: invalid dual certificate\n"


def test_a_value_error_inside_a_run_is_internal(monkeypatch, capsys):
    """A ValueError raised inside a decision or a closure is a failed
    self-check, not a usage error: exit 70 with one `error: internal:`
    line.  Only a negative budget, a --target outside 1..K and a negative
    --max-n are exit 64."""
    def broken(message):
        def raise_it(*args, **kwargs):
            raise ValueError(message)
        return raise_it

    with monkeypatch.context() as m:
        m.setattr(positions, "check_escape_condition",
                  broken("escape condition needs a symmetric tuple"))
        m.setattr(geometry, "convex_hull", broken("points of mixed dimension"))
        for argv, message in (
                (["check", "group", path("inverse_pair.json")],
                 "escape condition needs a symmetric tuple"),
                (["euler-close", path("disjoint_loops_graph.json")], "points of mixed dimension")):
            capsys.readouterr()
            code, out = run(*argv)
            assert code == 70 and out == ""
            assert capsys.readouterr().err == f"error: internal: ValueError: {message}\n"
    for argv in (["check", "group", path("inverse_pair.json"), "--samples", "-1"],
                 ["check", "inverse", path("fig2.json"), "--target", "9"],
                 ["euler-close", path("disjoint_loops_graph.json"), "--max-n", "-1"]):
        assert run(*argv)[0] == 64


def test_inverse_target_flag():
    code, out = run("check", "inverse", path("inverse_pair.json"), "--target", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"


def test_gens_m_is_checked_without_a_flag(tmp_path, capsys):
    """A module that carries gens_M asks for the span check: with the
    relations and generators inside span(gens_M) a run prints what it prints
    without gens_M, and with a generator outside it is exit 65.  There is no
    `--strict` flag."""
    with open(path("inverse_pair.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    inst = tmp_path / "instance.json"
    for gens_m, inside in (([[[{"c": "1", "e": [0]}]]], True), ([[[{"c": "2", "e": [0]}]]], False)):
        doc["module"]["gens_M"] = gens_m
        inst.write_text(json.dumps(doc))
        for argv in (("syzygy",), ("check", "group")):
            capsys.readouterr()
            code, out = run(*argv, str(inst))
            err = capsys.readouterr().err
            if inside:
                assert (code, out) == run(*argv, path("inverse_pair.json")) and code == 0
            else:
                assert code == 65 and out == ""
                assert err == f"error: {inst}: module.gens_M: vector outside span(gens_M)\n"
    assert run("syzygy", path("inverse_pair.json"), "--strict")[0] == 64


_MODULE = {"n": 1, "d": 1}
_GENERATORS = [{"y": [[{"c": "1", "e": [0]}]], "a": [1]},
               {"y": [[{"c": "-1", "e": [-1]}]], "a": [-1]}]
_BOOLEAN_INSTANCE = {"module": {"n": True, "d": 1, "rels_N": []}, "generators": [
    {"a": [True], "y": [[{"c": "1", "e": [False]}]]}, {"a": [-1], "y": [[{"c": "-1", "e": [0]}]]}]}


@pytest.mark.parametrize("command, doc", [
    (("graph", "analyze"), {"edges": 5, "steps": [[1]]}),
    (("graph", "analyze"), {"edges": [{"s": 3, "label": 1}], "steps": [[1]]}),
    (("graph", "analyze"), {"edges": [{"s": [0], "label": "x"}], "steps": [[1]]}),
    (("euler-close",), {"edges": 5, "steps": [[1]]}),
    (("euler-close",), {"edges": [{"s": 3, "label": 1}], "steps": [[1]]}),
    (("euler-close",), {"edges": [{"s": [0], "label": "x"}], "steps": [[1]]}),
    (("frontend",), {"s": 1, "relators": [], "gens": [[1]]}),
    (("frontend",), {"s": 2, "relators": [[1, 3]], "gens": [[1], [2]]}),
    (("check", "group"), {"module": dict(_MODULE, rels_N=5), "generators": _GENERATORS}),
    (("check", "group"), {"module": dict(_MODULE, gens_M=5), "generators": _GENERATORS}),
    # module and instance coefficients must be integers
    *[(command, doc) for doc in (
        {"module": dict(_MODULE, rels_N=[[[{"c": "1/2", "e": [0]}]]]), "generators": _GENERATORS},
        {"module": _MODULE, "generators": [{"y": [[{"c": "1/2", "e": [0]}]], "a": [1]}]},
    ) for command in (("check", "group"), ("check", "identity"), ("syzygy",))],
    # numbers with a fraction part are refused, not truncated
    (("graph", "analyze"), {"edges": [{"s": [0.7], "label": 1.9}, {"s": [1], "label": 2}],
                            "steps": [[1], [-1]]}),
    (("graph", "analyze"), {"edges": [{"s": [0], "label": 1.0}], "steps": [[1]]}),
    (("euler-close",), {"edges": [{"s": [0], "label": 1}], "steps": [[1.5]]}),
    # a graph with no edges has no hull to analyze or close
    (("graph", "analyze"), {"edges": [], "steps": [[1], [-1]]}),
    (("euler-close",), {"edges": [], "steps": [[1], [-1]]}),
    # header fields with a fraction part, or as strings, are refused too
    (("check", "group"), {"module": dict(_MODULE, n=1.9), "generators": _GENERATORS}),
    (("check", "group"), {"module": dict(_MODULE, d="1"), "generators": _GENERATORS}),
    (("frontend",), {"s": 2.9, "relators": [], "gens": [[1], [2]]}),
    # booleans are not integers
    (("check", "group"), _BOOLEAN_INSTANCE),
    (("check", "group"), {"module": dict(_MODULE, d=True), "generators": _GENERATORS}),
    (("check", "group"), {"module": _MODULE, "generators": [dict(_GENERATORS[0], a=[True]),
                                                            _GENERATORS[1]]}),
    (("check", "group"), {"module": _MODULE, "generators": [
        {"y": [[{"c": "1", "e": [False]}]], "a": [1]}, _GENERATORS[1]]}),
    (("frontend",), {"s": 2, "relators": [[True, 2, -1, -2]], "gens": [[1], [2], [-1], [-2]]}),
    (("frontend",), {"s": 2, "relators": [], "gens": [[1], [2], [-1], [-2], [True]]}),
    (("graph", "analyze"), {"edges": [{"s": [0], "label": True}, {"s": [1], "label": 2}],
                            "steps": [[1], [-1]]}),
    (("graph", "analyze"), {"edges": [{"s": [False], "label": 1}, {"s": [1], "label": 2}],
                            "steps": [[1], [-1]]}),
    (("euler-close",), {"edges": [{"s": [0], "label": 1}, {"s": [1], "label": 2}],
                        "steps": [[True], [-1]]}),
    # coefficients in exponent or decimal notation are refused before they are read
    *[(("check", "group"), {"module": _MODULE, "generators": [
        {"y": [[{"c": c, "e": [0]}]], "a": [1]}, _GENERATORS[1]]})
      for c in ("1e999999999", "1e0", "1.0", 1.0)],
    # "p/q" is refused even when q divides p: "4/2" is not read as 2
    *[(command, doc) for doc in (
        {"module": dict(_MODULE, rels_N=[[[{"c": "4/2", "e": [0]}]]]), "generators": _GENERATORS},
        {"module": _MODULE, "generators": [_GENERATORS[0], {"y": [[{"c": "4/2", "e": [0]}]],
                                                            "a": [-1]}]},
    ) for command in (("check", "group"), ("syzygy",))],
])
def test_malformed_input_is_a_data_error(tmp_path, capsys, command, doc):
    """Exit 65 with one `error:` line, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(*command, str(bad))
    err = capsys.readouterr().err
    assert code == 65 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fractional_instance_is_a_data_error_everywhere(tmp_path, capsys):
    """`graph word` and `verify` load the instance too; the error names the
    coefficient's JSON path."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"module": _MODULE, "generators": [
        _GENERATORS[0], {"y": [[{"c": "1/2", "e": [0]}]], "a": [-1]}]}))
    word = tmp_path / "word.json"
    word.write_text(json.dumps({"type": "word", "word": [1, 2]}))
    for argv in (("graph", "word", str(bad), "--word", "1 2"), ("verify", str(word), str(bad))):
        capsys.readouterr()
        code, out = run(*argv)
        err = capsys.readouterr().err
        assert code == 65 and out == ""
        assert "instance.generators[1].y[0][0].c" in err and err.count("\n") == 1



def test_booleans_and_oversized_numbers_name_their_path(tmp_path, capsys):
    """A boolean or missing header field, a witness letter and a coefficient
    in exponent notation are named by their JSON path, and the value is
    spelled as JSON; an integer past Python's 4,300-digit limit and arrays
    nested past its recursion limit, which the JSON reader itself refuses,
    by the file's path."""
    instance, witness = tmp_path / "instance.json", tmp_path / "witness.json"
    huge = tmp_path / "huge.json"
    instance.write_text(json.dumps(_BOOLEAN_INSTANCE))
    witness.write_text(json.dumps({"type": "word", "word": [1, True]}))
    huge.write_text(json.dumps({"module": _MODULE, "generators": _GENERATORS})
                    .replace('"e": [0]', '"e": [' + "9" * 5000 + "]"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    exponent = tmp_path / "exponent.json"
    exponent.write_text(json.dumps({"module": _MODULE, "generators": [
        {"y": [[{"c": "1e999999999", "e": [0]}]], "a": [1]}, _GENERATORS[1]]}))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"module": {"d": 1}, "generators": _GENERATORS}))
    for argv, where in (
            (("check", "group", str(instance)), "module.n: need a nonnegative integer, got true"),
            (("check", "group", str(missing)), "module.n: need a nonnegative integer, got null"),
            (("verify", str(witness), path("inverse_pair.json")), "witness.word"),
            (("check", "group", str(exponent)),
             'instance.generators[0].y[0][0].c: bad coefficient "1e999999999"'),
            (("check", "group", str(huge)), f"{huge}: integer over 4,300 digits"),
            (("check", "group", str(deep)), f"{deep}: ")):
        capsys.readouterr()
        code, out = run(*argv)
        err = capsys.readouterr().err
        assert code == 65 and out == ""
        assert err.startswith("error: ") and where in err and err.count("\n") == 1
        assert "sys." not in err
