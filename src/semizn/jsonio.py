"""JSON encodings for all exchange formats.

Polynomial: array of {"c": coefficient, "e": [int;n]}, the coefficient a JSON
integer or a string holding one (every coefficient is in Z; "p/q" is refused);
the zero polynomial is the empty array.  Module presentation, instance,
metabelian presentation, graph, witness and verdict formats build on it.
Serialization is canonical (sorted keys, fixed separators, trailing newline)
so identical inputs produce byte-identical outputs.
"""
from __future__ import annotations

import json
import re

from semizn.algebra import ModulePresentation
from semizn.decide import Verdict
from semizn.ggraph import StepGraph
from semizn.group import GeneratorSet, GroupElement, MetabelianPresentation
from semizn.laurent import LaurentPoly, grlex_key


class FormatError(ValueError):
    """Malformed input document; message carries the JSON path."""


_COEFFICIENT = re.compile(r"-?[0-9]+")  # exponent, decimal and p/q forms refused


def _is_int(x) -> bool:
    """A JSON integer: an int and not a bool (`true` is not 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(x) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# -- polynomials --------------------------------------------------------------

def poly_to_json(p: LaurentPoly) -> list:
    out = []
    for e, c in sorted(p.terms.items(), key=lambda t: grlex_key(t[0])):
        out.append({"c": str(c), "e": list(e)})
    return out


def poly_from_json(data, n: int, path: str) -> LaurentPoly:
    if not isinstance(data, list):
        raise FormatError(f"{path}: polynomial must be an array of terms")
    terms = {}
    for i, t in enumerate(data):
        where = f"{path}[{i}]"
        if not isinstance(t, dict) or "c" not in t or "e" not in t:
            raise FormatError(f'{where}: term must be {{"c": ..., "e": [...]}}')
        c = t["c"]
        if not (_is_int(c) or isinstance(c, str) and _COEFFICIENT.fullmatch(c)):
            raise FormatError(f"{where}.c: bad coefficient {json.dumps(c)}")
        try:
            c = int(c)
        except ValueError as exc:  # past the digit limit
            raise FormatError(f"{where}.c: bad coefficient {json.dumps(c)}") from exc
        e = t["e"]
        if not _int_list(e) or len(e) != n:
            raise FormatError(f"{where}.e: need {n} integer exponents")
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return LaurentPoly(n, terms)


def vector_to_json(vec) -> list:
    return [poly_to_json(p) for p in vec]


def vector_from_json(data, n: int, d: int, path: str) -> list:
    if not isinstance(data, list) or len(data) != d:
        raise FormatError(f"{path}: need a vector of {d} polynomials")
    return [poly_from_json(p, n, f"{path}[{j}]") for j, p in enumerate(data)]


# -- modules and instances ----------------------------------------------------

def module_to_json(pres: ModulePresentation) -> dict:
    out = {
        "n": pres.n,
        "d": pres.d,
        "rels_N": [vector_to_json(r) for r in pres.rels_N],
    }
    if pres.gens_M is not None:
        out["gens_M"] = [vector_to_json(g) for g in pres.gens_M]
    return out


def module_from_json(data, path: str = "module") -> ModulePresentation:
    if not isinstance(data, dict):
        raise FormatError(f"{path}: must be an object")
    n, d = data.get("n"), data.get("d")
    for name, v in (("n", n), ("d", d)):
        if not _is_int(v) or v < 0:
            raise FormatError(f"{path}.{name}: need a nonnegative integer, got {json.dumps(v)}")
    for name in ("rels_N", "gens_M"):
        if not isinstance(data.get(name, []), list):
            raise FormatError(f"{path}.{name}: need an array of vectors")
    rels = [vector_from_json(r, n, d, f"{path}.rels_N[{j}]")
            for j, r in enumerate(data.get("rels_N", []))]
    gens_m = None
    if "gens_M" in data:
        gens_m = [vector_from_json(g, n, d, f"{path}.gens_M[{j}]")
                  for j, g in enumerate(data["gens_M"])]
    return ModulePresentation(n=n, d=d, rels_N=rels, gens_M=gens_m)


def instance_to_json(gens: GeneratorSet) -> dict:
    return {
        "module": module_to_json(gens.presentation),
        "generators": [
            {"y": vector_to_json(g.y), "a": list(g.a)} for g in gens.elements
        ],
    }


def instance_from_json(data) -> GeneratorSet:
    if not isinstance(data, dict) or "module" not in data or "generators" not in data:
        raise FormatError('instance: need {"module": ..., "generators": [...]}')
    pres = module_from_json(data["module"])
    gens = []
    raw = data["generators"]
    if not isinstance(raw, list) or not raw:
        raise FormatError("instance.generators: need a nonempty array")
    for i, g in enumerate(raw):
        path = f"instance.generators[{i}]"
        if not isinstance(g, dict) or "y" not in g or "a" not in g:
            raise FormatError(f'{path}: need {{"y": [...], "a": [...]}}')
        y = vector_from_json(g["y"], pres.n, pres.d, f"{path}.y")
        a = g["a"]
        if not _int_list(a) or len(a) != pres.n:
            raise FormatError(f"{path}.a: need {pres.n} integers")
        gens.append(GroupElement(pres, y, a))
    return GeneratorSet(pres, gens)


def metabelian_from_json(data) -> tuple:
    if not isinstance(data, dict) or "s" not in data:
        raise FormatError('metabelian: need {"s": int, "relators": [...], "gens": [...]}')
    s = data["s"]
    if not _is_int(s):
        raise FormatError(f"metabelian.s: need an integer, got {json.dumps(s)}")
    relators = data.get("relators", [])
    gens = data.get("gens", [])
    for name, words in (("relators", relators), ("gens", gens)):
        if not isinstance(words, list) or not all(map(_int_list, words)):
            raise FormatError(f"metabelian.{name}: need arrays of signed integers")
    try:
        pres = MetabelianPresentation(s=s, relators=[list(r) for r in relators])
    except ValueError as exc:
        raise FormatError(f"metabelian: {exc}") from exc
    return pres, [list(w) for w in gens]


# -- graphs ---------------------------------------------------------------------

def graph_to_json(graph: StepGraph) -> dict:
    # the parallel copies of an edge share one dict: the document is only written out
    return {
        "edges": [e for (s, label), k in graph.counts.items()
                  for e in [{"s": list(s), "label": label}] * k],
        "steps": [list(a) for a in graph.steps],
    }


def graph_from_json(data, steps=None) -> StepGraph:
    if not isinstance(data, dict) or "edges" not in data:
        raise FormatError('graph: need {"edges": [...]} (plus "steps" unless supplied)')
    if steps is None:
        steps = data.get("steps")
        if steps is None:
            raise FormatError('graph: missing "steps" table and no instance supplied')
    if not isinstance(data["edges"], list) or not data["edges"]:
        raise FormatError("graph.edges: need a nonempty array of edges")
    if not isinstance(steps, list) or not all(_int_list(a) for a in steps):
        raise FormatError("graph.steps: need an array of integer step vectors")
    edges = []
    for i, e in enumerate(data["edges"]):
        if not isinstance(e, dict) or not _int_list(e.get("s")) or "label" not in e:
            raise FormatError(f'graph.edges[{i}]: need {{"s": [int, ...], "label": int}}')
        if not _is_int(e["label"]):
            raise FormatError(f"graph.edges[{i}].label: need an integer")
        edges.append((tuple(e["s"]), e["label"]))
    try:
        return StepGraph(steps, edges)
    except ValueError as exc:  # a label out of range or a wrong length
        raise FormatError(f"graph: {exc}") from exc


# -- verdicts and witnesses ------------------------------------------------------

def verdict_to_json(verdict: Verdict) -> dict:
    out = {"verdict": verdict.kind}
    if verdict.witness is not None:
        w = {}
        for key, value in verdict.witness.items():
            if key == "graph" and isinstance(value, StepGraph):
                w[key] = graph_to_json(value)
            elif key == "positions":
                w[key] = [poly_to_json(p) for p in value]
            else:
                w[key] = value
        out["witness"] = w
    if verdict.certificate is not None:
        out["certificate"] = verdict.certificate
    if verdict.budget_report is not None:
        out["budget_report"] = verdict.budget_report
    return out


def witness_from_json(data, gens: GeneratorSet):
    if not isinstance(data, dict) or "type" not in data:
        raise FormatError('witness: need {"type": "word"|"graph", ...}')
    if data["type"] == "word":
        word = data.get("word")
        if not _int_list(word):
            raise FormatError("witness.word: need an array of letters")
        return list(word)
    if data["type"] == "graph":
        graph, steps = data.get("graph"), [list(a) for a in gens.steps]
        own = graph.get("steps") if isinstance(graph, dict) else None
        if own is not None and own != steps:
            raise FormatError(f"witness.graph.steps: {own} differ from the instance's steps {steps}")
        return graph_from_json(graph, steps=steps)
    raise FormatError(f"witness.type: unknown type {json.dumps(data['type'])}")
