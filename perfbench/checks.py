"""Output checks, run after the timed region on the JSON text an op emitted.

Each check re-parses the instance, so it shares no objects with the run it
checks.  A check returns None when the output holds, else the reason.
"""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

EXPECTED_SYZYGY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                               "syzygy_expected.json")


def instance_key(doc: str) -> str:
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def _expected_syzygy() -> dict:
    with open(EXPECTED_SYZYGY, encoding="utf-8") as fh:
        return json.load(fh)


def check_syzygy(doc: str, text: str, expected=None):
    """Every generator lies in the relation module (`algebra.residual`), and
    the generators span all of it: when they differ from the reference basis
    on file for the instance (data/syzygy_expected.json, or `expected`), each
    reference generator must lie in their Laurent span."""
    from semizn import algebra, jsonio

    gens = jsonio.instance_from_json(json.loads(doc))
    out = json.loads(text)
    pres = gens.presentation
    returned = [[jsonio.poly_from_json(p, pres.n, "f") for p in g] for g in out["generators"]]
    for i, f in enumerate(returned):
        sym, neu = algebra.residual(f, pres, gens.ys, gens.steps)
        if not sym.is_zero() or not neu.is_zero():
            return f"generator {i} has a nonzero residual"
    if expected is None:
        expected = _expected_syzygy().get(instance_key(doc))
    if expected is None or out["generators"] == expected:
        return None
    if not returned:
        return "no generators, but the relation module is not zero"
    span = algebra.LaurentSubmodule(gens.K, pres.n, returned)
    for i, g in enumerate(expected):
        if not span.contains([jsonio.poly_from_json(p, pres.n, "f") for p in g]):
            return f"reference generator {i} is not in the span of the generators"
    return None


def _check_word(word, gens):
    from semizn import decide

    if not decide.verify_witness(list(word), gens):
        return "the witness word does not verify"
    return None


def _check_group_no(cert: dict, gens):
    """Recompute the relation module, evaluate it at the sample point and
    re-decide infeasibility by Fourier-Motzkin; check the dual annihilates
    every evaluated generator."""
    from semizn import algebra, linalg

    basis = algebra.syzygy_basis(gens.presentation, gens.ys, gens.steps)
    r = [Fraction(x) for x in cert["sample"]]
    lam = [Fraction(x) for x in cert["dual"]]
    K = gens.K
    columns = [[g[i].evaluate_positive(r) for i in range(K)] for g in basis.generators]
    if columns and linalg.fm_strictly_feasible(columns):
        return "a strictly positive combination exists at the sample point"
    if len(lam) != K or any(x < 0 for x in lam) or not any(lam):
        return "the dual is not a nonnegative nonzero K-vector"
    for col in columns:
        if sum(l * c for l, c in zip(lam, col)) != 0:
            return "the dual does not annihilate a generator"
    return None


def _expected_subsets(kind: str, K: int):
    if kind == "identity":
        return {tuple(s) for k in range(1, K + 1) for s in combinations(range(1, K + 1), k)}
    rest = range(2, K + 1)
    return {(1,) + s for k in range(K) for s in combinations(rest, k)}


def check_decision(kind: str, doc: str, text: str, expect):
    """Check a verdict of `decide_group`, `decide_identity` or
    `decide_inverse(target=1)`."""
    from semizn import group, jsonio

    gens = jsonio.instance_from_json(json.loads(doc))
    out = json.loads(text)
    verdict = out["verdict"]
    if verdict == "no" and expect == "yes":
        return "no on an instance that is a group by construction"
    if verdict == "yes":
        w = out["witness"]
        if kind == "group":
            return _check_word(w["word"], gens)
        subset = w["subset"]
        if kind == "inverse" and 1 not in subset:
            return "the witness subset does not contain the target"
        bad = _check_word(w["word"], gens.subset(subset))
        if bad:
            return bad
        original = w["word_in_original_letters"]
        if set(original) != set(subset):
            return "the original-letter word does not use exactly the subset"
        if not group.evaluate_word(gens, original).is_neutral():
            return "the original-letter word is not neutral"
        return None
    if verdict == "no":
        cert = out["certificate"]
        if kind == "group":
            return _check_group_no(cert, gens)
        listed = {tuple(s["subset"]) for s in cert["subsets"]}
        if listed != _expected_subsets(kind, gens.K):
            return "the refuted subsets are not all the subsets"
    return None
