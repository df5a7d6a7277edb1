"""The instances of the three benchmark workloads.

Instances are built as plain JSON documents (the exchange format read by
`semizn check` and `semizn syzygy`) with integer arithmetic written here, so
generating them runs none of the code being measured.

A workload's corpus is its pinned ops followed by a fixed number of rounds;
a round holds one instance of every class of the workload (for `syzygy`,
every (n, K)), drawn from a fixed corpus seed.  The run's --seed draws the
order in which the corpus is run.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from math import gcd
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("syzygy", "group", "subsets")


@dataclass
class Op:
    """One decision the benchmark times: `kind` is syzygy, group, identity
    or inverse; `doc` is the instance as JSON text.  `expect` is "yes" when
    the instance is a group by construction, so a "no" on it is an error."""

    id: int
    kind: str
    cls: str
    doc: str
    expect: Optional[str] = None
    pinned: Optional[str] = None


# -- polynomials as {exponent tuple: int} -----------------------------------

def _poly_json(p: dict) -> list:
    return [{"c": str(c), "e": list(e)} for e, c in sorted(p.items()) if c]


def _instance(n: int, d: int, rels: list, gens: list) -> dict:
    return {
        "module": {"n": n, "d": d, "rels_N": [[_poly_json(p) for p in r] for r in rels]},
        "generators": [{"y": [_poly_json(p) for p in y], "a": list(a)} for y, a in gens],
    }


def _shift(p: dict, z) -> dict:
    return {tuple(x + s for x, s in zip(e, z)): c for e, c in p.items()}


def _add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return out


def _neg(p: dict) -> dict:
    return {e: -c for e, c in p.items()}


def _mul(g, h):
    """(y, a) * (z, b) = (y + X^a z, a + b), the product of `semizn.group`."""
    (y, a), (z, b) = g, h
    return [_add(p, _shift(q, a)) for p, q in zip(y, z)], tuple(u + v for u, v in zip(a, b))


def _inv(g):
    y, a = g
    neg_a = tuple(-v for v in a)
    return [_shift(_neg(p), neg_a) for p in y], neg_a


def _rand_poly(rng: random.Random, n: int, terms: int, exp: int, coef: int) -> dict:
    p = {}
    for _ in range(terms):
        e = tuple(rng.randint(-exp, exp) for _ in range(n))
        c = rng.randint(-coef, coef)
        if c:
            p[e] = p.get(e, 0) + c
            if not p[e]:
                del p[e]
    return p


def spans_lattice(steps, n: int) -> bool:
    """The steps generate Z^n as a group: the gcd of the n x n minors is 1."""
    if n == 0:
        return True
    g = 0
    for rows in itertools.combinations(steps, n):
        g = gcd(g, abs(_det([list(r) for r in rows])))
    return g == 1


def _det(m: list) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


# -- modules Y ----------------------------------------------------------------

FREE = "free"            # Z[X^±]
LAMPLIGHTER = "z2"       # (Z/2)[X^±]
BS12 = "bs12"            # Z[X^±]/(X - 2), the Baumslag-Solitar group BS(1,2)
MINUS1 = "xplus1"        # Z[X^±]/(X + 1)


def _module_rels(kind: str) -> list:
    if kind == FREE:
        return []
    if kind == LAMPLIGHTER:
        return [[{(0,): 2}]]
    if kind == BS12:
        return [[{(1,): 1, (0,): -2}]]
    if kind == MINUS1:
        return [[{(1,): 1, (0,): 1}]]
    raise ValueError(kind)


# -- syzygy -------------------------------------------------------------------

def _syzygy_instance(rng: random.Random, n: int, K: int) -> dict:
    """Shaped like acceptance criterion 5: d in {1, 2}, 0-2 relations,
    1-2-term polynomials with exponents <= 2 and coefficients <= 4, steps in
    [-2, 2]^n."""
    d = rng.randint(1, 2)

    def poly():
        return _rand_poly(rng, n, rng.randint(1, 2), 2, 4)

    rels = [[poly() for _ in range(d)] for _ in range(rng.randint(0, 2))]
    rels = [r for r in rels if any(r)]
    gens = [([poly() for _ in range(d)], tuple(rng.randint(-2, 2) for _ in range(n)))
            for _ in range(K)]
    return _instance(n, d, rels, gens)


def _syzygy_round(rng: random.Random):
    classes = [(n, K) for n in (0, 1, 2) for K in range(1, 5)]
    rng.shuffle(classes)
    for n, K in classes:
        yield f"n{n}K{K}", _syzygy_instance(rng, n, K), None


# -- group ----------------------------------------------------------------------

def _group_element(rng: random.Random, n: int):
    """1-term (or zero) y with exponents in [-1, 1]; step in [-1, 1]^n."""
    y = _rand_poly(rng, n, 1, 1, 2)
    return [y], tuple(rng.randint(-1, 1) for _ in range(n))


def _group_gens(rng: random.Random, shape: str, n: int = 2):
    """Draw generator sets of one shape until the steps span Z^n."""
    while True:
        if shape == "pairs":      # g, g^-1, h, h^-1: a group by construction
            g, h = _group_element(rng, n), _group_element(rng, n)
            gens = [g, _inv(g), h, _inv(h)]
        elif shape == "ghk":      # g, h, k, (ghk)^-1: a group by construction
            g, h, k = (_group_element(rng, n) for _ in range(3))
            gens = [g, h, k, _inv(_mul(_mul(g, h), k))]
        else:                     # random K = 3
            gens = [_group_element(rng, n) for _ in range(3)]
        if spans_lattice([a for _, a in gens], n):
            return gens


def _group_round(rng: random.Random):
    shapes = ["pairs", "ghk", "random", "random"]
    classes = [(s, y) for s in shapes for y in (FREE, LAMPLIGHTER)]
    rng.shuffle(classes)
    for shape, ykind in classes:
        gens = _group_gens(rng, shape)
        rels = [[{(0, 0): 2}]] if ykind == LAMPLIGHTER else []
        expect = "yes" if shape in ("pairs", "ghk") else None
        yield f"{shape}-{ykind}", _instance(2, 1, rels, gens), expect


# -- subsets (Identity and Inverse) -------------------------------------------

def _subsets_instance(rng: random.Random, ykind: str, K: int) -> dict:
    """n = 1: 0-2-term y's (exponents and coefficients <= 2), steps in
    [-2, 2]."""
    gens = []
    for _ in range(K):
        y = _rand_poly(rng, 1, rng.randint(0, 2), 2, 2)
        gens.append(([y], (rng.randint(-2, 2),)))
    return _instance(1, 1, _module_rels(ykind), gens)


def _subsets_round(rng: random.Random):
    classes = [(y, K, kind) for y in (FREE, LAMPLIGHTER, BS12, MINUS1)
               for K in (3, 4, 5) for kind in ("identity", "inverse")]
    rng.shuffle(classes)
    for ykind, K, kind in classes:
        yield f"{kind}-{ykind}-K{K}", _subsets_instance(rng, ykind, K), kind


# -- corpora --------------------------------------------------------------------

def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _group_valid_files(instances_dir: str) -> list:
    """The instance files of the repository that `check group` accepts: an
    instance document whose steps span Z^n."""
    out = []
    for name in sorted(os.listdir(instances_dir)):
        doc = _load(os.path.join(instances_dir, name))
        if "module" not in doc or "generators" not in doc:
            continue
        n = doc["module"]["n"]
        if spans_lattice([g["a"] for g in doc["generators"]], n):
            out.append((name, doc))
    return out


def pinned_ops(workload: str, root: str) -> list:
    """(name, kind, instance document, expect) of the fixed ops that open
    every run of the workload."""
    data = os.path.join(HERE, "data")
    if workload == "syzygy":
        return [("rng555_instance20", "syzygy",
                 _load(os.path.join(data, "rng555_instance20.json")), None)]
    if workload == "group":
        ops = [("torsion_clear_to_int", "group",
                _load(os.path.join(data, "torsion_clear_to_int.json")), "yes")]
        for name, doc in _group_valid_files(os.path.join(root, "instances")):
            ops.append((name, "group", doc, None))
        return ops
    if workload == "subsets":
        doc = _load(os.path.join(root, "instances", "fig2.json"))
        return [("fig2.json", "identity", doc, None), ("fig2.json", "inverse", doc, None)]
    raise ValueError(f"unknown workload {workload!r}")


# The corpus is drawn once, from this seed, by the generators above.  The
# run's --seed orders it (see `ordered`).  A fresh draw per run seed would
# move every time metric by tens of percent between seeds, because op times
# are heavy-tailed (a few ops per round reach the per-op limit).
CORPUS_SEED = 20230425
ROUNDS = {"syzygy": 4, "group": 6, "subsets": 3}


def corpus(workload: str, root: str) -> list:
    """The workload's ops: its pinned ops, then its seeded rounds."""
    make_round = {"syzygy": _syzygy_round, "group": _group_round,
                  "subsets": _subsets_round}[workload]
    rng = random.Random(f"{workload}:{CORPUS_SEED}")
    ops = []
    for name, kind, doc, expect in pinned_ops(workload, root):
        ops.append(Op(len(ops), kind, f"pinned:{name}", json.dumps(doc), expect, name))
    for _ in range(ROUNDS[workload]):
        for cls, doc, tag in make_round(rng):
            kind = tag if workload == "subsets" else workload
            expect = tag if tag == "yes" else None
            ops.append(Op(len(ops), kind, cls, json.dumps(doc), expect))
    return ops


def ordered(ops: list, seed: int) -> list:
    """The run's op sequence: the corpus in an order drawn from `seed`."""
    out = list(ops)
    random.Random(seed).shuffle(out)
    return out
