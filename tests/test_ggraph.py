import json
import random
from collections import Counter
from operator import add

import pytest

from semizn import jsonio
from semizn.closure import ClosurePreconditionError, eulerian_closure
from semizn.decide import Budget, decide_group
from semizn.ggraph import StepGraph, graph_of_word
from semizn.group import GeneratorSet, GroupElement, evaluate_word
from semizn.laurent import LaurentPoly
from semizn.positions import graph_from_positions, position_polynomials

from conftest import (EdgeListGraph, free_presentation, inverse_pair, long_witness, random_poly,
                      ref_graph_from_positions, ref_graph_to_json, ref_position_polynomials)
from make_golden import GOLDEN, _decisions

FIG_STEPS = [(-2, 3), (2, 0), (0, -2)]
FIG_WORD = [1, 2, 2, 3, 3, 1, 3]


def fig_gens():
    pres = free_presentation(2)
    els = [GroupElement(pres, [LaurentPoly.zero(2)], a) for a in FIG_STEPS]
    return GeneratorSet(pres, els)


def copies(g):
    """The graph's edges with one entry per parallel copy, in sorted order."""
    return [e for e, k in g.counts.items() for _ in range(k)]


def test_graph_of_word_figure_trace():
    g = graph_of_word(FIG_STEPS, FIG_WORD)
    assert sum(g.counts.values()) == 7 and len(g.counts) == 7
    assert g.vertices() == sorted(
        [(0, 0), (-2, 3), (0, 3), (2, 3), (2, 1), (2, -1), (0, 2)]
    )
    assert g.is_symmetric()  # the trace closes at the origin


def test_graph_of_word_small():
    g = graph_of_word([(1,), (-1,)], [1])
    assert g.counts == {((0,), 1): 1}
    assert g.destination(((0,), 1)) == (1,)
    g2 = graph_of_word([(1,), (-1,)], [1, 2])
    assert list(g2.counts.items()) == [(((0,), 1), 1), (((1,), 2), 1)]
    g3 = graph_of_word([(1,), (-1,)], [1, 2, 1, 2])
    assert list(g3.counts.items()) == [(((0,), 1), 2), (((1,), 2), 2)]
    with pytest.raises(ValueError):
        graph_of_word([(1,)], [])


def test_graph_of_word_matches_the_checked_construction(rng):
    """The trace's edges skip `StepGraph`'s checks; the graph is still the
    one the checked constructor makes of the same edges, and bad letters
    and steps are still refused."""
    for _ in range(200):
        n, K = rng.randint(0, 3), rng.randint(1, 4)
        steps = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(K)]
        word = [rng.randint(1, K) for _ in range(rng.randint(1, 30))]
        edges, pos = [], (0,) * n
        for letter in word:
            edges.append((pos, letter))
            pos = tuple(a + b for a, b in zip(pos, steps[letter - 1]))
        g = graph_of_word(steps, word)
        assert g == StepGraph(steps, edges) and (g.n, g.K) == (n, K)
    for letter in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            graph_of_word([(1,), (-1,)], [1, letter])
    with pytest.raises(ValueError, match="inconsistent step lengths"):
        graph_of_word([(1,), (-1, 0)], [1])
    for k in (0, -1):
        with pytest.raises(ValueError, match="not positive"):
            StepGraph([(1,)], {((0,), 1): k})

def test_represented_element_matches_word(rng):
    pres = free_presentation(2)
    els = [
        GroupElement(pres, [random_poly(rng, 2)], tuple(rng.randint(-2, 2) for _ in range(2)))
        for _ in range(3)
    ]
    gens = GeneratorSet(pres, els)
    for _ in range(60):
        w = [rng.randint(1, 3) for _ in range(rng.randint(1, 8))]
        assert graph_of_word(gens, w).represented_element(gens) == evaluate_word(gens, w)


def test_represented_element_examples():
    gens = inverse_pair()
    single = StepGraph(gens.steps, [((0,), 1)])
    el = single.represented_element(gens)
    assert el.a == (1,) and list(el.y) == [LaurentPoly.one(1)]
    fig = graph_of_word(FIG_STEPS, FIG_WORD)
    el2 = fig.represented_element(fig_gens())
    assert el2.is_neutral()


def test_structural_predicates():
    pair = StepGraph([(1,), (-1,)], [((0,), 1), ((1,), 2)])
    assert pair.is_symmetric() and pair.is_full_image() and pair.is_zn_generating()
    single = StepGraph([(1,), (-1,)], [((0,), 1)])
    assert not single.is_symmetric()
    assert not single.is_full_image()
    assert graph_of_word(FIG_STEPS, FIG_WORD).is_symmetric()
    # x-coordinates of the figure steps are all even: proper sublattice
    assert not graph_of_word(FIG_STEPS, FIG_WORD).is_zn_generating()


# -- reference: the edge-list graph and walks over every parallel copy --------
# The walks are kept verbatim as an oracle for the walks over distinct
# (start, label) pairs; they run on `EdgeListGraph`, which holds the copies.

def ref_vertices(g):
    vs = set()
    for e in g.edges:
        vs.add(e[0])
        vs.add(g.destination(e))
    return sorted(vs)


def ref_is_symmetric(g):
    bal = Counter()
    for e in g.edges:
        bal[e[0]] += 1
        bal[g.destination(e)] -= 1
    return all(v == 0 for v in bal.values())


def ref_is_connected(g):
    verts = ref_vertices(g)
    if len(verts) <= 1:
        return True
    index = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in g.edges:
        a, b = find(index[e[0]]), find(index[g.destination(e)])
        if a != b:
            parent[a] = b
    roots = {find(i) for i in range(len(verts))}
    return len(roots) == 1


def _assert_matches_edge_list(g, ref, gens=None):
    """The counted graph `g` and the edge-list graph `ref` of the same copies
    give the same vertices, predicates, position polynomials, JSON, DOT,
    represented element (over `gens`, if given) and Euler words: from every
    vertex of a small graph, from the least of a large one."""
    assert copies(g) == list(ref.edges)
    verts = ref.vertices()
    assert g.vertices() == verts == ref_vertices(ref)
    assert g.is_symmetric() == ref.is_symmetric() == ref_is_symmetric(ref)
    assert g.is_connected() == ref.is_connected() == ref_is_connected(ref)
    assert g.is_full_image() == ref.is_full_image()
    assert g.is_zn_generating() == ref.is_zn_generating()
    assert position_polynomials(g) == ref_position_polynomials(ref)
    assert jsonio.graph_to_json(g) == ref_graph_to_json(ref)
    if gens is not None:
        assert g.represented_element(gens) == ref.represented_element(gens)
    if len(ref.edges) <= 100:
        assert g.to_dot() == ref.to_dot()
    starts = verts if len(ref.edges) <= 100 else verts[:1]
    for v in starts:
        assert g.euler_circuit(v) == ref.euler_circuit(v)


def _random_gens(seed, steps):
    """A generating set over the free module with one-term y's and `steps`."""
    rng = random.Random(seed)
    n = len(steps[0])
    pres = free_presentation(n)
    return GeneratorSet(pres, [GroupElement(pres, [random_poly(rng, n, max_terms=1)], a)
                               for a in steps])


def test_predicates_match_edge_walks(rng):
    """Seeded multigraphs with parallel edges: closed walks traced once or
    several times, with translated copies near or far, and random edge
    multisets; every combination of symmetric and connected occurs.  The
    counted graph, built from the copies or from their counts, matches the
    edge-list graph of the same copies."""
    seen = Counter()
    for case in range(300):
        n = rng.randint(0, 3)
        if case % 2:
            K = rng.randint(1, 4)
            steps = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(K)]
            edges = [(tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(1, K))
                     for _ in range(rng.randint(0, 8))]
            edges += [rng.choice(edges) for _ in range(rng.randint(0, 6))] if edges else []
        else:  # letters 2i + 1 and 2i + 2 step by a and -a, so the walk closes
            base = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 2))]
            steps = [s for a in base for s in (a, tuple(-x for x in a))]
            half = [rng.randint(1, len(steps)) for _ in range(rng.randint(1, 5))]
            back = [x + 1 if x % 2 else x - 1 for x in reversed(half)]
            walk = copies(graph_of_word(steps, half + back))
            far = rng.choice([1, 20])  # 20: the translate is a second component
            shift = tuple(far * rng.randint(-1, 1) for _ in range(n))
            edges = list(walk) * rng.randint(1, 3) + [
                (tuple(a + b for a, b in zip(s, shift)), label) for s, label in walk
            ] * rng.randint(0, 2)
            if rng.random() < 0.3:  # one more copy of an edge: not symmetric
                edges.append(rng.choice(walk))
        g = StepGraph(steps, edges)
        assert StepGraph(steps, Counter(edges)) == g
        _assert_matches_edge_list(g, EdgeListGraph(steps, edges), _random_gens(case, steps))
        seen[(g.is_symmetric(), g.is_connected())] += 1
    assert len(seen) == 4 and min(seen.values()) >= 15, seen


def test_predicates_match_edge_walks_on_the_long_witness():
    """The long witness's graph has 244,360 edges over 13 distinct (start,
    label) pairs; its word is the edge-list graph's Euler word."""
    v = decide_group(long_witness(), Budget())
    assert v.kind == "yes"
    graph = v.witness["graph"]
    assert sum(graph.counts.values()) == 244360 and len(graph.counts) == 13
    ref = EdgeListGraph(graph.steps, copies(graph))
    _assert_matches_edge_list(graph, ref)
    assert graph.represented_element(long_witness()).is_neutral()
    assert ref.euler_circuit(min(ref.vertices())) == v.witness["word"]
    halves = copies(graph)[::2]  # parallel copies split unevenly
    _assert_matches_edge_list(StepGraph(graph.steps, halves), EdgeListGraph(graph.steps, halves))


def _golden_yes_witnesses():
    with open(GOLDEN, encoding="utf-8") as fh:
        pinned = set(json.load(fh))
    for case_id, decide, gens in _decisions():
        if case_id in pinned:
            verdict = decide(gens, Budget())
            if verdict.kind == "yes":
                yield case_id, verdict.witness


def test_yes_witnesses_match_edge_lists():
    """Every `yes` pinned by the golden digests (the instance files, the
    corpus, the seeded n = 2 and n = 1 sets): the positions' graph, its
    translation union and the word match the edge-list graphs that repeat
    each support point by its coefficient."""
    count = 0
    for case_id, w in _golden_yes_witnesses():
        union, fs = w["graph"], w["positions"]
        base, ref = graph_from_positions(fs, union.steps), ref_graph_from_positions(fs, union.steps)
        _assert_matches_edge_list(base, ref)
        moved = [(tuple(map(add, s, z)), label) for z in w["translations"] for s, label in ref.edges]
        ref_union = EdgeListGraph(union.steps, moved)
        _assert_matches_edge_list(union, ref_union)
        assert ref_union.euler_circuit(min(ref_union.vertices())) == w["word"], case_id
        count += 1
    assert count == 75


def test_closure_unions_match_edge_lists(rng):
    """Translation unions of seeded symmetric graphs whose loops repeat: the
    closure's union is the edge-list union of the same translations."""
    steps = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    closed = 0
    for _ in range(40):
        edges = []
        for _ in range(rng.randint(1, 3)):
            ox, oy, k = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3)
            edges += [((ox, oy), 1), ((ox + 1, oy), 2), ((ox + 1, oy + 1), 3),
                      ((ox, oy + 1), 4)] * k
        try:
            res = eulerian_closure(StepGraph(steps, edges))
        except ClosurePreconditionError:
            continue
        moved = [(tuple(map(add, s, z)), label) for z in res.translations for s, label in edges]
        _assert_matches_edge_list(res.union, EdgeListGraph(steps, moved))
        closed += res.N > 1
    assert closed >= 10


def test_translate_union_represented(rng):
    """The translate of a graph by z represents the element shifted by X^z,
    and the union with it the sum.  The word walks its two edges three
    and two times; their single copies would represent the neutral element."""
    gens = inverse_pair()
    g = graph_of_word(gens, [1, 2, 1, 2, 1])
    el = g.represented_element(gens)
    assert el.a == (1,) and list(el.y) == [LaurentPoly.one(1)]
    z = (3,)
    moved = Counter({(tuple(a + b for a, b in zip(s, z)), label): k
                     for (s, label), k in g.counts.items()})
    shifted = StepGraph(g.steps, moved).represented_element(gens)
    assert shifted.a == el.a
    assert list(shifted.y) == [p.shift(z) for p in el.y]
    u = StepGraph(g.steps, Counter(g.counts) + moved).represented_element(gens)
    assert u.a == tuple(2 * v for v in el.a)
    assert list(u.y) == [p + q for p, q in zip(el.y, shifted.y)]


def test_euler_circuit_examples():
    pair = StepGraph([(1,), (-1,)], [((0,), 1), ((1,), 2)])
    assert pair.euler_circuit((0,)) == [1, 2]
    disconnected = StepGraph(
        [(1,), (-1,)],
        [((0,), 1), ((1,), 2), ((3,), 1), ((4,), 2)],
    )
    assert disconnected.euler_circuit((0,)) is None
    with pytest.raises(ValueError):
        pair.euler_circuit((9,))
    fig = graph_of_word(FIG_STEPS, FIG_WORD)
    circuit = fig.euler_circuit((0, 0))
    assert sorted(circuit) == sorted(FIG_WORD)
    assert graph_of_word(FIG_STEPS, circuit) == fig  # round trip


def test_euler_round_trip_random(rng):
    # random closed walks: trace a word, extract a circuit, rebuild the graph
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    inverse = {1: 2, 2: 1, 3: 4, 4: 3}
    for _ in range(20):
        half = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        word = half + [inverse[x] for x in reversed(half)]
        g = graph_of_word(steps, word)
        circuit = g.euler_circuit((0, 0))
        assert circuit is not None
        assert graph_of_word(steps, circuit) == g


def test_full_image_eulerian_neutral_word_extraction():
    # a full-image Eulerian graph representing the neutral element yields a
    # full-image neutral word when read from any vertex
    gens = inverse_pair()
    g = graph_of_word(gens, [1, 1, 2, 2])
    assert g.is_full_image() and g.is_symmetric() and g.is_connected()
    assert g.represented_element(gens).is_neutral()
    w = g.euler_circuit((0,))
    assert set(w) == {1, 2}
    assert evaluate_word(gens, w).is_neutral()


def test_dot_export():
    pair = StepGraph([(1,), (-1,)], [((0,), 1), ((1,), 2)])
    dot = pair.to_dot()
    assert dot.startswith("digraph")
    assert '"v(0)" -> "v(1)" [label=1];' in dot
    assert dot == pair.to_dot()  # stable
