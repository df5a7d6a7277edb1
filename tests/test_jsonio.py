import json
import re

import pytest

from semizn import jsonio
from semizn.ggraph import StepGraph
from semizn.jsonio import FormatError
from semizn.laurent import LaurentPoly


def test_poly_round_trip():
    p = LaurentPoly(2, {(1, -2): 3, (0, 0): -5})
    data = jsonio.poly_to_json(p)
    assert {"c": "-5", "e": [0, 0]} in data
    back = jsonio.poly_from_json(data, 2, "p")
    assert back == p
    assert jsonio.poly_from_json([], 3, "z") == LaurentPoly.zero(3)
    assert jsonio.poly_to_json(LaurentPoly.zero(3)) == []


def test_poly_accepts_integer_coefficients():
    back = jsonio.poly_from_json([{"c": 4, "e": [1]}], 1, "p")
    assert back == LaurentPoly(1, {(1,): 4})


def test_poly_errors_are_located():
    with pytest.raises(FormatError, match=r"p\[0\]\.e"):
        jsonio.poly_from_json([{"c": "1", "e": [1, 2]}], 1, "p")
    with pytest.raises(FormatError, match=r"p\[1\]\.c"):
        jsonio.poly_from_json([{"c": "1", "e": [0]}, {"c": "x", "e": [0]}], 1, "p")
    with pytest.raises(FormatError):
        jsonio.poly_from_json({"c": "1"}, 1, "p")


def test_instance_round_trip():
    doc = {
        "module": {"n": 1, "d": 1, "rels_N": [[[{"c": "1", "e": [1]}, {"c": "-1", "e": [0]}]]]},
        "generators": [
            {"y": [[{"c": "2", "e": [0]}]], "a": [1]},
            {"y": [[]], "a": [-1]},
        ],
    }
    gens = jsonio.instance_from_json(doc)
    assert gens.K == 2 and gens.n == 1
    again = jsonio.instance_to_json(gens)
    assert jsonio.instance_from_json(again).steps == gens.steps
    # canonical dumps are stable
    assert jsonio.dumps(again) == jsonio.dumps(jsonio.instance_to_json(jsonio.instance_from_json(again)))


def test_instance_errors():
    with pytest.raises(FormatError):
        jsonio.instance_from_json({"module": {"n": 1, "d": 1}})
    with pytest.raises(FormatError, match="generators"):
        jsonio.instance_from_json({"module": {"n": 1, "d": 1}, "generators": []})
    with pytest.raises(FormatError, match=r"\.a"):
        jsonio.instance_from_json({
            "module": {"n": 2, "d": 1},
            "generators": [{"y": [[]], "a": [1]}],
        })


def test_module_and_instance_refuse_fractions():
    """Every coefficient is an integer, in a module, an instance or any other
    polynomial; the error names the coefficient, and "4/2" is refused too,
    not read as 2."""
    for c in ("1/2", "4/2"):
        frac = [{"c": c, "e": [0]}]
        with pytest.raises(FormatError, match=r"^module\.rels_N\[0\]\[0\]\[0\]\.c: bad coef"):
            jsonio.module_from_json({"n": 1, "d": 1, "rels_N": [[frac]]})
        with pytest.raises(FormatError, match=r"^module\.gens_M\[0\]\[0\]\[0\]\.c: bad coef"):
            jsonio.module_from_json({"n": 1, "d": 1, "gens_M": [[frac]]})
        with pytest.raises(FormatError, match=r"^instance\.generators\[1\]\.y\[0\]\[0\]\.c: bad"):
            jsonio.instance_from_json({
                "module": {"n": 1, "d": 1},
                "generators": [{"y": [[]], "a": [1]}, {"y": [frac], "a": [-1]}],
            })
        with pytest.raises(FormatError, match=r"^p\[0\]\.c: bad coefficient"):
            jsonio.poly_from_json(frac, 1, "p")
    whole = jsonio.module_from_json({"n": 1, "d": 1, "rels_N": [[[{"c": "2", "e": [0]}]]]})
    assert whole.rels_N == [[LaurentPoly(1, {(0,): 2})]]


def test_graph_round_trip():
    g = StepGraph([(1, 0), (0, 1)], [((0, 0), 1), ((0, 0), 1), ((1, 0), 2)])
    doc = jsonio.graph_to_json(g)
    assert len(doc["edges"]) == 3  # multiplicity preserved
    assert jsonio.graph_from_json(doc) == g
    with pytest.raises(FormatError, match="steps"):
        jsonio.graph_from_json({"edges": []})


def test_witness_parsing():
    gens = jsonio.instance_from_json({
        "module": {"n": 1, "d": 1},
        "generators": [{"y": [[{"c": "1", "e": [0]}]], "a": [1]}],
    })
    assert jsonio.witness_from_json({"type": "word", "word": [1, 1]}, gens) == [1, 1]
    g = jsonio.witness_from_json(
        {"type": "graph", "graph": {"edges": [{"s": [0], "label": 1}]}}, gens
    )
    assert isinstance(g, StepGraph)
    with pytest.raises(FormatError):
        jsonio.witness_from_json({"type": "spell"}, gens)


def test_dumps_canonical():
    doc = {"b": 1, "a": [2, {"z": 0, "y": 1}]}
    s = jsonio.dumps(doc)
    assert s == '{"a":[2,{"y":1,"z":0}],"b":1}\n'
    assert json.loads(s) == doc


ONE = [{"c": "1", "e": [0]}]


@pytest.mark.parametrize("where, read, args", [
    ("p[0].e", jsonio.poly_from_json, ([{"c": "1", "e": [False]}], 1, "p")),
    ("module.n", jsonio.module_from_json, ({"n": True, "d": 1},)),
    ("module.d", jsonio.module_from_json, ({"n": 1, "d": True},)),
    ("instance.generators[0].a", jsonio.instance_from_json,
     ({"module": {"n": 1, "d": 1}, "generators": [{"y": [ONE], "a": [True]}]},)),
    ("metabelian.s", jsonio.metabelian_from_json, ({"s": True, "gens": [[1]]},)),
    ("metabelian.gens", jsonio.metabelian_from_json, ({"s": 2, "gens": [[1], [True]]},)),
    ("graph.edges[0].label", jsonio.graph_from_json,
     ({"edges": [{"s": [0], "label": True}], "steps": [[1]]},)),
    ("graph.edges[0]", jsonio.graph_from_json,
     ({"edges": [{"s": [False], "label": 1}], "steps": [[1]]},)),
    ("graph.steps", jsonio.graph_from_json,
     ({"edges": [{"s": [0], "label": 1}], "steps": [[True]]},)),
    ("witness.word", jsonio.witness_from_json, ({"type": "word", "word": [True]}, None)),
], ids=lambda x: x if isinstance(x, str) else "")
def test_booleans_are_not_integers(where, read, args):
    with pytest.raises(FormatError, match="^" + re.escape(where)):
        read(*args)


def test_coefficient_grammar():
    """A coefficient is a JSON integer or a string holding one; p/q, even
    with q = 1, and exponent and decimal notation are refused before they
    are read, so "1e999999999" is not expanded."""
    read = jsonio.poly_from_json
    assert read([{"c": "-12", "e": [0]}, {"c": 4, "e": [1]}], 1, "p") == \
        LaurentPoly(1, {(0,): -12, (1,): 4})
    assert read([{"c": "-0", "e": [0]}, {"c": "007", "e": [1]}], 1, "p") == \
        LaurentPoly(1, {(1,): 7})
    for c in ("4/2", "-5/7", "1/0", "3/1", "1E5", "1.5", "2.0", 2.0, "+1", " 1", "1/-2", "1_000",
              "٣", "inf", True, None, "1e999999999"):
        with pytest.raises(FormatError, match=r"^p\[0\]\.c: bad coefficient"):
            read([{"c": c, "e": [0]}], 1, "p")
