"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured scale and time (run with -s to see them).

Scales and time limits are pinned from the build contract:
 1. figure reproduction, exact, < 1 s
 2. structural equivalence on >= 500 random graphs, exact, < 60 s
 3. word/graph correspondence on >= 500 random words, exact, < 30 s
 4. Eulerian closure on >= 50 qualifying graphs, N <= 16, <= 10 s each
 5. syzygy correctness on >= 20 random instances + 100 combinations, < 120 s
 6. double-procedure soundness on >= 20 YES + >= 10 NO instances, <= 30 s each
 7. oracle cross-validation on the full corpus at the default budget
 8. n = 0 degeneration vs direct feasibility on 50 random abelian instances
 9. byte-identical outputs across 3 runs
"""
import io
import os
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from semizn import linalg
from semizn.algebra import ModulePresentation, residual, syzygy_basis
from semizn.closure import ClosurePreconditionError, eulerian_closure
from semizn.cli import main as cli_main
from semizn.decide import Budget, decide_group, verify_witness
from semizn.geometry import is_face_accessible
from semizn.ggraph import StepGraph, graph_of_word
from semizn.group import GeneratorSet, GroupElement, evaluate_word
from semizn.laurent import LaurentPoly
from semizn.positions import position_polynomials

from conftest import (crossing_indices, free_presentation, leading_indices, normalize_unit,
                      oracle_bfs, random_poly)
from corpus import no_instances, yes_instances
from test_positions import (check_full_image, check_neutral, check_symmetry,
                            ref_check_escape_condition)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_BUDGET = Budget()  # the published budget: degree 2, samples 12


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_figure_reproduction():
    t0 = time.monotonic()
    steps = [(-2, 3), (2, 0), (0, -2)]
    graph = StepGraph(
        steps,
        [((0, 0), 1), ((2, -1), 1), ((-2, 3), 2), ((2, 3), 3), ((3, 1), 3)],
    )
    fs = position_polynomials(graph)
    assert fs[0] == LaurentPoly(2, {(0, 0): 1, (2, -1): 1})
    assert fs[1] == LaurentPoly(2, {(-2, 3): 1})
    assert fs[2] == LaurentPoly(2, {(2, 3): 1, (3, 1): 1})
    assert leading_indices({1, 2, 3}, fs, (0, 1)) == frozenset({2, 3})
    assert crossing_indices(steps, (0, 1)) == frozenset({1, 3})
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report("criterion 1", f"figure values exact in {elapsed:.3f}s")


def _random_graph_c2(rng, symmetric):
    if symmetric:
        half = rng.randint(1, 2)
        steps = []
        for _ in range(half):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            steps.extend([a, tuple(-x for x in a)])
        edges = []
        for _ in range(rng.randint(1, 4)):
            s = (rng.randint(-3, 3), rng.randint(-3, 3))
            k = rng.randint(1, half) * 2 - 1
            edges.append((s, k))
            edges.append((tuple(x + y for x, y in zip(s, steps[k - 1])), k + 1))
    else:
        K = rng.randint(1, 4)
        steps = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(K)]
        edges = [
            ((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(1, K))
            for _ in range(rng.randint(1, 8))
        ]
    return StepGraph(steps, edges)


def test_criterion_2_structural_equivalence_500():
    """Graph-side definitions vs polynomial-side characterizations.

    (i) and (ii) are compared on every graph; (iii) and (iv) on the
    symmetric ones (the correspondence presumes every vertex starts an edge,
    which symmetry guarantees; see the neutrality precondition)."""
    t0 = time.monotonic()
    rng = random.Random(424242)
    pres = free_presentation(2)
    total = symmetric_count = 0
    for i in range(500):
        g = _random_graph_c2(rng, symmetric=(i % 2 == 0))
        assert sum(g.counts.values()) <= 8 and g.n == 2
        fs = position_polynomials(g)
        assert check_full_image(fs) == g.is_full_image()
        assert check_symmetry(fs, g.steps) == g.is_symmetric()
        if g.is_symmetric():
            symmetric_count += 1
            geometric, _ = is_face_accessible(g)
            algebraic = ref_check_escape_condition(fs, range(1, g.K + 1), (), g.steps)[0]
            assert geometric == algebraic
            ys = [[random_poly(rng, 2, max_terms=1)] for _ in range(g.K)]
            gens = GeneratorSet(pres, [GroupElement(pres, y, a) for y, a in zip(ys, g.steps)])
            assert check_neutral(fs, pres, ys, g.steps) == g.represented_element(gens).is_neutral()
        total += 1
    elapsed = time.monotonic() - t0
    assert total >= 500 and symmetric_count >= 200
    assert elapsed < 60.0
    _report("criterion 2", f"{total} graphs ({symmetric_count} symmetric) in {elapsed:.1f}s")


def test_criterion_3_word_graph_correspondence_500():
    t0 = time.monotonic()
    rng = random.Random(31337)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 2)
        K = rng.randint(1, 3)
        pres = free_presentation(n)
        els = [
            GroupElement(pres, [random_poly(rng, n, max_terms=2)],
                         tuple(rng.randint(-2, 2) for _ in range(n)))
            for _ in range(K)
        ]
        gens = GeneratorSet(pres, els)
        for _ in range(5):
            w = [rng.randint(1, K) for _ in range(rng.randint(1, 10))]
            assert graph_of_word(gens, w).represented_element(gens) == evaluate_word(gens, w)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 500
    assert elapsed < 30.0
    _report("criterion 3", f"{checked} words in {elapsed:.1f}s")


def _closure_corpus():
    rng = random.Random(777)
    out = [
        StepGraph([(1,), (-1,)], [((0,), 1), ((1,), 2), ((3,), 1), ((4,), 2)]),
    ]
    steps2 = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    square = lambda ox, oy: [
        ((ox, oy), 1), ((ox + 1, oy), 2), ((ox + 1, oy + 1), 3), ((ox, oy + 1), 4)
    ]
    out.append(StepGraph(steps2, square(0, 0) + square(0, 3)))  # Fig-5 style
    while len(out) < 50:
        n = rng.choice([1, 2])
        if n == 1:
            steps = [(1,), (-1,)]
            edges = []
            for _ in range(rng.randint(1, 5)):
                s = (rng.randint(-3, 3),)
                edges.append((s, 1))
                edges.append(((s[0] + 1,), 2))
        else:
            steps = steps2
            edges = []
            for _ in range(rng.randint(2, 5)):
                s = (rng.randint(-2, 2), rng.randint(-2, 2))
                k = rng.choice([1, 2])  # label k's inverse is k + 2
                edges.append((s, k))
                edges.append((tuple(x + y for x, y in zip(s, steps[k - 1])), k + 2))
        g = StepGraph(steps, edges)
        if sum(g.counts.values()) > 10 or not g.is_zn_generating():
            continue
        if not is_face_accessible(g)[0]:
            continue
        out.append(g)
    return out


def test_criterion_4_constructive_closure():
    corpus = _closure_corpus()
    assert len(corpus) >= 50
    worst = 0.0
    for g in corpus:
        t0 = time.monotonic()
        res = eulerian_closure(g, max_n=16)
        union = res.union
        assert union.is_symmetric() and union.is_connected()
        assert union.euler_circuit(min(union.vertices())) is not None
        assert union.is_full_image() == g.is_full_image()
        worst = max(worst, time.monotonic() - t0)
        assert worst <= 10.0
    # negative control: detached bar on the hull's top face
    bar = StepGraph(
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [((0, 0), 1), ((1, 0), 2), ((1, 1), 3), ((0, 1), 4),
         ((0, 3), 1), ((1, 3), 3)],
    )
    with pytest.raises(ClosurePreconditionError):
        eulerian_closure(bar)
    _report("criterion 4", f"{len(corpus)} closures, worst instance {worst:.2f}s")


def test_criterion_5_syzygy_correctness():
    t0 = time.monotonic()
    rng = random.Random(555)
    combos_checked = 0
    instances = 0
    while instances < 20 or combos_checked < 100:
        n = rng.randint(0, 2)
        d = rng.randint(1, 2)
        K = rng.randint(1, 4)
        rels = [
            [random_poly(rng, n, max_terms=2) for _ in range(d)]
            for _ in range(rng.randint(0, 2))
        ]
        rels = [r for r in rels if any(not p.is_zero() for p in r)]
        pres = ModulePresentation(n=n, d=d, rels_N=rels)
        ys = [[random_poly(rng, n, max_terms=2) for _ in range(d)] for _ in range(K)]
        steps = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(K)]
        basis = syzygy_basis(pres, ys, steps)
        for g in basis.generators:
            sym, neu = residual(g, pres, ys, steps)
            assert sym.is_zero() and neu.is_zero()
        for _ in range(5):
            if not basis.generators:
                break
            acc = [LaurentPoly.zero(n)] * K
            for g in basis.generators:
                h = random_poly(rng, n, max_terms=2)
                acc = [a + h * gi for a, gi in zip(acc, g)]
            sym, neu = residual(acc, pres, ys, steps)
            assert sym.is_zero() and neu.is_zero()
            combos_checked += 1
        instances += 1
    # pinned example: the inverse-pair basis is unit-equivalent to (X^-1, 1)
    pres = free_presentation(1)
    basis = syzygy_basis(pres, [[LaurentPoly.one(1)], [LaurentPoly.monomial((-1,), -1)]],
                         [(1,), (-1,)])
    assert len(basis.generators) == 1
    assert basis.generators[0] == normalize_unit(
        [LaurentPoly.monomial((-1,)), LaurentPoly.one(1)], 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    assert instances >= 20 and combos_checked >= 100
    _report("criterion 5", f"{instances} instances, {combos_checked} combinations in {elapsed:.1f}s")


def test_criterion_6_double_procedure_soundness():
    yes = yes_instances(20)
    no = no_instances(10)
    worst = 0.0
    for name, gens in yes:
        t0 = time.monotonic()
        v = decide_group(gens, DEFAULT_BUDGET)
        worst = max(worst, time.monotonic() - t0)
        assert v.kind == "yes", (name, v.kind)
        assert verify_witness(v.witness["word"], gens)
        assert worst <= 30.0
    for name, gens in no:
        t0 = time.monotonic()
        v = decide_group(gens, DEFAULT_BUDGET)
        worst = max(worst, time.monotonic() - t0)
        assert v.kind == "no", (name, v.kind)
        # independent exact re-check of the refutation certificate
        r = tuple(Fraction(x) for x in v.certificate["sample"])
        lam = [Fraction(x) for x in v.certificate["dual"]]
        basis = syzygy_basis(gens.presentation, gens.ys, gens.steps)
        columns = [[g[i].evaluate_positive(r) for i in range(gens.K)]
                   for g in basis.generators]
        assert not linalg.fm_strictly_feasible(columns)
        assert all(x >= 0 for x in lam) and any(x > 0 for x in lam)
        for col in columns:
            assert sum(l * c for l, c in zip(lam, col)) == 0
        assert worst <= 30.0
    _report("criterion 6", f"20 YES + 10 NO sound, worst instance {worst:.2f}s")


def test_criterion_7_oracle_cross_validation():
    corpus = yes_instances(20) + no_instances(10)
    agreed = 0
    for name, gens in corpus:
        word = oracle_bfs(gens, 8)
        if word is not None:
            v = decide_group(gens, DEFAULT_BUDGET)
            assert v.kind == "yes", (name, "oracle found a witness but decide did not")
            agreed += 1
        else:
            v = decide_group(gens, DEFAULT_BUDGET)
            assert v.kind != "yes" or len(v.witness["word"]) > 8, name
    assert agreed >= 20
    _report("criterion 7", f"oracle agreement on {agreed} witnessed instances")


def test_criterion_8_n0_degeneration():
    rng = random.Random(808)
    for _ in range(50):
        d = rng.randint(1, 2)
        K = rng.randint(1, 3)
        pres = ModulePresentation(n=0, d=d, rels_N=[])
        ys = [[LaurentPoly.constant(0, rng.randint(-3, 3)) for _ in range(d)]
              for _ in range(K)]
        gens = GeneratorSet(pres, [GroupElement(pres, y, ()) for y in ys])
        got = decide_group(gens, DEFAULT_BUDGET)
        assert got.kind in ("yes", "no")
        # direct oracle: exists f >= 1 (rational) with sum f_i y_i = 0
        cons = []
        for j in range(d):
            row = [Fraction(ys[i][j].terms.get((), 0)) for i in range(K)]
            cons.append((row, "==", 0))
        for i in range(K):
            e = [Fraction(0)] * K
            e[i] = Fraction(1)
            cons.append((e, ">=", 1))
        feasible = linalg.lp_feasible_point(cons, K) is not None
        assert (got.kind == "yes") == feasible
    _report("criterion 8", "50 abelian instances agree with direct feasibility")


def _cli(*argv):
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, buf.getvalue()


def test_criterion_9_determinism():
    inst = os.path.join(ROOT, "instances")
    commands = [
        ("check", "group", os.path.join(inst, "inverse_pair.json")),
        ("check", "group", os.path.join(inst, "one_way.json")),
        ("check", "group", os.path.join(inst, "wreath_pairs.json")),
        ("syzygy", os.path.join(inst, "wreath_pairs.json")),
        ("euler-close", os.path.join(inst, "disjoint_loops_graph.json")),
        ("graph", "word", os.path.join(inst, "fig2.json"), "--word", "1 2 2 3 3 1 3"),
    ]
    for cmd in commands:
        runs = {_cli(*cmd) for _ in range(3)}
        assert len(runs) == 1, cmd
        code, out = runs.pop()
        assert code in (0, 1, 2) and out, (cmd, code)
    _report("criterion 9", f"{len(commands)} commands byte-identical across 3 runs")
