from collections import Counter

import pytest

from semizn.decide import Budget, decide_group
from semizn.ggraph import StepGraph, graph_of_word
from semizn.group import GeneratorSet, GroupElement, evaluate_word
from semizn.laurent import LaurentPoly

from conftest import free_presentation, inverse_pair, long_witness, random_poly

FIG_STEPS = [(-2, 3), (2, 0), (0, -2)]
FIG_WORD = [1, 2, 2, 3, 3, 1, 3]


def fig_gens():
    pres = free_presentation(2)
    els = [GroupElement(pres, [LaurentPoly.zero(2)], a) for a in FIG_STEPS]
    return GeneratorSet(pres, els)


def test_graph_of_word_figure_trace():
    g = graph_of_word(FIG_STEPS, FIG_WORD)
    assert len(g.edges) == 7
    assert g.vertices() == sorted(
        [(0, 0), (-2, 3), (0, 3), (2, 3), (2, 1), (2, -1), (0, 2)]
    )
    assert g.is_symmetric()  # the trace closes at the origin


def test_graph_of_word_small():
    g = graph_of_word([(1,), (-1,)], [1])
    assert g.edges == (((0,), 1),)
    assert g.destination(g.edges[0]) == (1,)
    g2 = graph_of_word([(1,), (-1,)], [1, 2])
    assert g2.edges == (((0,), 1), ((1,), 2))
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


# -- reference: the predicates walking every parallel edge -------------------
# Kept verbatim as an oracle for the walks over distinct (start, label) pairs.

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


def _assert_predicates_match_reference(g):
    assert g.vertices() == ref_vertices(g)
    assert g.is_symmetric() == ref_is_symmetric(g)
    assert g.is_connected() == ref_is_connected(g)


def test_predicates_match_edge_walks(rng):
    """Seeded multigraphs with parallel edges: closed walks traced once or
    several times, with translated copies near or far, and random edge
    multisets; every combination of symmetric and connected occurs."""
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
            walk = graph_of_word(steps, half + back).edges
            far = rng.choice([1, 20])  # 20: the translate is a second component
            shift = tuple(far * rng.randint(-1, 1) for _ in range(n))
            edges = list(walk) * rng.randint(1, 3) + [
                (tuple(a + b for a, b in zip(s, shift)), label) for s, label in walk
            ] * rng.randint(0, 2)
            if rng.random() < 0.3:  # one more copy of an edge: not symmetric
                edges.append(rng.choice(walk))
        g = StepGraph(steps, edges)
        _assert_predicates_match_reference(g)
        seen[(g.is_symmetric(), g.is_connected())] += 1
    assert len(seen) == 4 and min(seen.values()) >= 15, seen


def test_predicates_match_edge_walks_on_the_long_witness():
    """The long witness's graph has 244,360 edges over a handful of distinct
    (start, label) pairs."""
    v = decide_group(long_witness(), Budget())
    assert v.kind == "yes"
    graph = v.witness["graph"]
    assert len(graph.edges) == 244360
    _assert_predicates_match_reference(graph)
    halves = StepGraph(graph.steps, graph.edges[::2])  # parallel copies split unevenly
    _assert_predicates_match_reference(halves)


def test_translate_union_represented(rng):
    """The translate of a graph by z represents the element shifted by X^z,
    and the union with it the sum."""
    gens = inverse_pair()
    g = graph_of_word(gens, [1, 2, 1, 2])
    el = g.represented_element(gens)
    z = (3,)
    moved = [(tuple(a + b for a, b in zip(s, z)), label) for s, label in g.edges]
    shifted = StepGraph(g.steps, moved).represented_element(gens)
    assert shifted.a == el.a
    assert list(shifted.y) == [p.shift(z) for p in el.y]
    u = StepGraph(g.steps, list(g.edges) + moved).represented_element(gens)
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
