import pytest

from semizn.ggraph import StepGraph, graph_of_word
from semizn.group import GeneratorSet, GroupElement, evaluate_word
from semizn.laurent import LaurentPoly

from conftest import free_presentation, inverse_pair, random_poly

FIG_STEPS = [(-2, 3), (2, 0), (0, -2)]
FIG_WORD = [1, 2, 2, 3, 3, 1, 3]


def fig_gens():
    pres = free_presentation(2)
    els = [GroupElement(pres, [LaurentPoly.zero(2)], a) for a in FIG_STEPS]
    return GeneratorSet(pres, els)


def test_graph_of_word_figure_trace():
    g = graph_of_word(FIG_STEPS, FIG_WORD)
    assert g.edge_count() == 7
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


def test_translate_and_union():
    g = graph_of_word(FIG_STEPS, FIG_WORD)
    assert g.translate((0, 0)) == g
    assert g.union() == g
    t = g.translate((3, 1))
    assert t.vertices() == sorted(tuple(a + b for a, b in zip(v, (3, 1))) for v in g.vertices())
    with pytest.raises(ValueError):
        g.union(StepGraph([(1, 0)], [((0, 0), 1)]))


def test_translate_union_represented(rng):
    gens = inverse_pair()
    g = graph_of_word(gens, [1, 2, 1, 2])
    el = g.represented_element(gens)
    z = (3,)
    shifted = g.translate(z).represented_element(gens)
    assert shifted.a == el.a
    assert list(shifted.y) == [p.shift(z) for p in el.y]
    u = g.union(g.translate(z)).represented_element(gens)
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
