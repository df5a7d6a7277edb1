"""Golden digests: the sha256 of the canonical JSON of a fixed set of
decisions, of relation-module bases and of hull outputs, so a change
meant to keep the output can be checked byte for byte.

    PYTHONPATH=src python tests/make_golden.py     # rewrite the files in data/

`data/golden_verdicts.json` holds verdicts: the instance files of
`instances/` under group, identity and inverse 1; the yes/no families of
`corpus.py` under group; seeded n = 2 group instances with 1-term y's,
which reach the window LP and the refuter; and seeded n = 1 instances
with K = 3..5 over Z[X^±], (Z/2)[X^±], Z[X^±]/(X - 2) and Z[X^±]/(X + 1)
under identity and inverse 1, whose subset refutations pin the refuter's
dual certificates.  `data/golden_syzygies.json`
holds `syzygy_basis` outputs, serialized as `semizn syzygy` prints them:
the instance files, and seeded instances shaped like acceptance criterion 5.
`data/golden_geometry.json` holds what the hulls decide: the `semizn graph
analyze --certificate` and `semizn euler-close` documents (with their exit
codes) of the graph files in `instances/`, and the `check_escape_condition`
face report of every YES in `data/golden_verdicts.json` whose witness
carries position polynomials.
Cases that raise or take longer than `SLOW_S` are left out of the files,
so the checks stay fast.  `test_golden.py` recomputes every digest in them.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
import signal
import time
from contextlib import redirect_stdout
from math import gcd

from semizn import jsonio
from semizn.algebra import ModulePresentation, syzygy_basis
from semizn.cli import main as cli_main
from semizn.decide import Budget, decide_group, decide_identity, decide_inverse
from semizn.group import GeneratorSet, GroupElement
from semizn.laurent import LaurentPoly
from semizn.positions import check_escape_condition

from conftest import random_poly
from corpus import no_instances, yes_instances

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "data", "golden_verdicts.json")
GOLDEN_SYZYGIES = os.path.join(HERE, "data", "golden_syzygies.json")
GOLDEN_GEOMETRY = os.path.join(HERE, "data", "golden_geometry.json")
SLOW_S = 0.5
STOP_S = 3  # alarm for a case far over SLOW_S, so generation ends in minutes

DECIDERS = {
    "group": decide_group,
    "identity": decide_identity,
    "inverse1": lambda gens, budget: decide_inverse(gens, 1, budget),
}


def _n2_instances(count: int, seed: int = 2304):
    """n = 2 instances with 1-term y's (exponents in [-1, 1], coefficients in
    [-2, 2]) and steps in [-1, 1]^2 spanning Z^2, over free or Z/2
    coefficients: g, g^-1, h, h^-1 and g, h, k, (ghk)^-1, which are groups
    by construction, and three random elements."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        shape = ("pairs", "ghk", "random")[len(out) % 3]
        torsion = len(out) % 2 == 1
        pres = ModulePresentation(
            n=2, d=1, rels_N=[[LaurentPoly.constant(2, 2)]] if torsion else [])

        def element():
            c = rng.randint(-2, 2)
            e = (rng.randint(-1, 1), rng.randint(-1, 1))
            y = LaurentPoly(2, {e: c} if c else {})
            return GroupElement(pres, [y], (rng.randint(-1, 1), rng.randint(-1, 1)))

        if shape == "pairs":
            g, h = element(), element()
            els = [g, g.inverse(), h, h.inverse()]
        elif shape == "ghk":
            g, h, k = element(), element(), element()
            els = [g, h, k, (g * h * k).inverse()]
        else:
            els = [element() for _ in range(3)]
        steps = [g.a for g in els]
        if gcd(*(a[0] * b[1] - a[1] * b[0] for a in steps for b in steps)) == 1:
            out.append(GeneratorSet(pres, els))
    return out


def _subsets_instances(count: int, seed: int = 4711):
    """n = 1 generating sets with K = 3..5 over the four modules in turn:
    0-2-term y's (exponents and coefficients in [-2, 2]), steps in [-2, 2]."""
    rng = random.Random(seed)
    modules = [("free", []), ("z2", [[LaurentPoly.constant(1, 2)]]),
               ("bs12", [[LaurentPoly(1, {(1,): 1, (0,): -2})]]),
               ("xplus1", [[LaurentPoly(1, {(1,): 1, (0,): 1})]])]
    out = []
    for i in range(count):
        name, rels = modules[i % 4]
        K = 3 + i // 4 % 3
        pres = ModulePresentation(n=1, d=1, rels_N=rels)
        els = [GroupElement(pres, [random_poly(rng, 1, max_terms=2, exp=2, coef=2)],
                            (rng.randint(-2, 2),)) for _ in range(K)]
        out.append((f"{name}-K{K}", GeneratorSet(pres, els)))
    return out


def _criterion5_instances(count: int, seed: int = 5550):
    """(presentation, ys, steps) shaped like acceptance criterion 5: n <= 2,
    d <= 2, K <= 4, 0-2 relations, polynomials of at most two terms."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, d, K = rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 4)
        rels = [[random_poly(rng, n, max_terms=2) for _ in range(d)]
                for _ in range(rng.randint(0, 2))]
        rels = [r for r in rels if any(not p.is_zero() for p in r)]
        pres = ModulePresentation(n=n, d=d, rels_N=rels)
        ys = [[random_poly(rng, n, max_terms=2) for _ in range(d)] for _ in range(K)]
        steps = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(K)]
        out.append((pres, ys, steps))
    return out


def _instance_files():
    for name in sorted(os.listdir(os.path.join(ROOT, "instances"))):
        with open(os.path.join(ROOT, "instances", name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if "module" in doc and "generators" in doc:
            yield name, doc


def _decisions():
    """(case id, decider, generating set) for every candidate verdict case,
    in a fixed order."""
    out = []
    for name, doc in _instance_files():
        for kind, decide in DECIDERS.items():
            out.append((f"instances/{name}:{kind}", decide,
                        jsonio.instance_from_json(doc)))
    for i, (family, gens) in enumerate(yes_instances(20) + no_instances(10)):
        out.append((f"corpus/{i}-{family}:group", decide_group, gens))
    for i, gens in enumerate(_n2_instances(24)):
        out.append((f"n2/{i}:group", decide_group, gens))
    for i, (shape, gens) in enumerate(_subsets_instances(24)):
        for kind in ("identity", "inverse1"):
            out.append((f"subsets/{i}-{shape}:{kind}", DECIDERS[kind], gens))
    return out


def cases():
    """(case id, thunk) for every candidate verdict case, in a fixed order; a
    thunk returns the decision's digest."""
    return [(case_id, lambda decide=decide, gens=gens: digest(decide, gens))
            for case_id, decide, gens in _decisions()]


def digest(decide, gens) -> str:
    """sha256 of the canonical verdict JSON."""
    verdict = decide(gens, Budget())
    return _sha256(jsonio.dumps(jsonio.verdict_to_json(verdict)))


def syzygy_inputs():
    """(case id, (presentation, ys, steps)) for every candidate syzygy case,
    in a fixed order."""
    out = []
    for name, doc in _instance_files():
        gens = jsonio.instance_from_json(doc)
        out.append((f"instances/{name}", (gens.presentation, gens.ys, gens.steps)))
    out += [(f"c5/{i}", args) for i, args in enumerate(_criterion5_instances(120))]
    return out


def syzygy_cases():
    """(case id, thunk) for every candidate syzygy case, in a fixed order; a
    thunk returns the digest of the relation-module basis."""
    return [(case_id, lambda args=args: basis_digest(*args)) for case_id, args in syzygy_inputs()]


def basis_digest(pres, ys, steps) -> str:
    """sha256 of the basis JSON as `semizn syzygy` prints it."""
    basis = syzygy_basis(pres, ys, steps)
    return _sha256(jsonio.dumps({
        "K": basis.K,
        "generators": [[jsonio.poly_to_json(p) for p in g] for g in basis.generators],
    }))


def geometry_cases():
    """(case id, thunk) for every candidate hull case, in a fixed
    order; a thunk returns the digest of the output."""
    out = []
    for name in sorted(os.listdir(os.path.join(ROOT, "instances"))):
        if "graph" in name:
            graph = os.path.join(ROOT, "instances", name)
            for argv in (["graph", "analyze", "--certificate", graph],
                         ["euler-close", graph]):
                out.append((f"{argv[0]}:instances/{name}",
                            lambda argv=argv: cli_digest(argv)))
    with open(GOLDEN, encoding="utf-8") as fh:
        decided = json.load(fh)
    for case_id, decide, gens in _decisions():
        if case_id in decided:
            out.append((f"escape:{case_id}",
                        lambda decide=decide, gens=gens: escape_cells_digest(decide, gens)))
    return out


def cli_digest(argv) -> str:
    """sha256 of the exit code and stdout of `semizn ARGV`."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return _sha256(f"{code}\n{buf.getvalue()}")


class _NoPositions(Exception):
    pass


def escape_cells_digest(decide, gens) -> str:
    """sha256 of the escape-condition face report of a YES witness's
    positions."""
    verdict = decide(gens, Budget())
    if verdict.kind != "yes" or "positions" not in verdict.witness:
        raise _NoPositions(f"verdict {verdict.kind} without positions")
    fs = verdict.witness["positions"]
    steps = verdict.witness["graph"].steps
    _, faces = check_escape_condition(fs, steps)
    return _sha256(jsonio.dumps(faces))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Stopped(Exception):
    pass


def _stop(signum, frame):
    raise _Stopped(f"over {STOP_S} s")


def _write(path, case_list):
    golden = {}
    for case_id, thunk in case_list:
        t0 = time.perf_counter()
        signal.alarm(STOP_S)
        try:
            value = thunk()
        except Exception as exc:  # left out: the check pins finished cases
            print(f"skip {case_id}: {type(exc).__name__}: {exc}", flush=True)
            continue
        finally:
            signal.alarm(0)
        elapsed = time.perf_counter() - t0
        if elapsed > SLOW_S:
            print(f"skip {case_id}: {elapsed:.2f} s", flush=True)
            continue
        golden[case_id] = value
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {path}")


def main():
    signal.signal(signal.SIGALRM, _stop)
    _write(GOLDEN, cases())
    _write(GOLDEN_SYZYGIES, syzygy_cases())
    _write(GOLDEN_GEOMETRY, geometry_cases())


if __name__ == "__main__":
    main()
