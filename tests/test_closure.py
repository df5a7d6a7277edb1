import pytest

from semizn.closure import (ClosureBudgetError, ClosurePreconditionError,
                            eulerian_closure, translation_set)
from semizn.geometry import convex_hull
from semizn.ggraph import StepGraph, graph_of_word
from semizn.groebner import DeadlineExceeded, deadline_scope

from conftest import inverse_pair


def test_already_eulerian_needs_one_translation():
    pair = StepGraph([(1,), (-1,)], [((0,), 1), ((1,), 2)])
    res = eulerian_closure(pair)
    assert res.N == 1
    assert res.translations == [(0,)]
    assert res.union == pair


def test_disjoint_loops():
    loops = StepGraph([(1,), (-1,)],
                      [((0,), 1), ((1,), 2), ((3,), 1), ((4,), 2)])
    res = eulerian_closure(loops)
    assert res.N == 2
    assert res.translations == [(0,), (1,), (2,), (3,), (4,)]
    assert res.union.is_symmetric() and res.union.is_connected()
    assert res.union.euler_circuit((0,)) is not None


def test_translation_set_exact():
    hull = convex_hull([(0,), (4,)])
    assert translation_set(hull, 1) == [(0,)]
    assert translation_set(hull, 2) == [(0,), (1,), (2,), (3,), (4,)]


def two_cube_walks(d):
    """Two closed walks around a unit cube of Z^3, d apart along (1, 1, 1):
    symmetric, face-accessible, Z^3-generating, but disconnected."""
    steps = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    cycle = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1)]
    edges = []
    for off in (0, d):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            step = tuple(y - x for x, y in zip(a, b))
            edges.append((tuple(x + off for x in a), steps.index(step) + 1))
    return StepGraph(steps, edges)


def test_a_deadline_stops_the_closure():
    """Past the deadline the closure stops in its hull, and its translation
    set stops inside the box it scans: for walks 60 apart that box has
    61^3 points at N = 2, so it reaches a check every 4096 points."""
    graph = two_cube_walks(60)
    assert eulerian_closure(two_cube_walks(2)).N == 2
    with pytest.raises(DeadlineExceeded), deadline_scope(-1):
        eulerian_closure(graph)
    hull = convex_hull(graph.vertices())
    with pytest.raises(DeadlineExceeded), deadline_scope(-1):
        translation_set(hull, 2)


def test_two_separated_squares():
    # symmetric, face-accessible, Z^2-generating, but disconnected
    steps = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    square = lambda ox, oy: [
        ((ox, oy), 1), ((ox + 1, oy), 2), ((ox + 1, oy + 1), 3), ((ox, oy + 1), 4)
    ]
    g = StepGraph(steps, square(0, 0) + square(0, 3))
    assert g.is_symmetric() and not g.is_connected()
    res = eulerian_closure(g)
    assert res.N >= 2 and len(res.translations) >= 2
    union = res.union
    assert union.is_symmetric() and union.is_connected() and union.is_full_image()
    assert union.euler_circuit(min(union.vertices())) is not None


def test_precondition_rejections():
    # not symmetric
    single = StepGraph([(1,), (-1,)], [((0,), 1)])
    with pytest.raises(ClosurePreconditionError) as e:
        eulerian_closure(single)
    assert e.value.failed == "symmetric"
    # symmetric but not face-accessible (detached bar on the hull's top face)
    bar = StepGraph(
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [((0, 0), 1), ((1, 0), 2), ((1, 1), 3), ((0, 1), 4),
         ((0, 3), 1), ((1, 3), 3)],
    )
    with pytest.raises(ClosurePreconditionError) as e:
        eulerian_closure(bar)
    assert e.value.failed == "face_accessible"
    assert e.value.report
    # symmetric, accessible within its line, but not Z^2-generating
    flat = StepGraph([(1, 0), (-1, 0)], [((0, 0), 1), ((1, 0), 2)])
    with pytest.raises(ClosurePreconditionError) as e:
        eulerian_closure(flat)
    assert e.value.failed == "face_accessible"  # directional accessibility fails first


def test_union_represents_scaled_element():
    gens = inverse_pair()
    g = graph_of_word(gens, [1, 2])
    assert g.represented_element(gens).is_neutral()
    res = eulerian_closure(g)
    assert res.union.represented_element(gens).is_neutral()


def test_budget_exhaustion_reported():
    loops = StepGraph([(1,), (-1,)],
                      [((0,), 1), ((1,), 2), ((30,), 1), ((31,), 2)])
    with pytest.raises(ClosureBudgetError) as e:
        eulerian_closure(loops, max_n=1)
    assert e.value.max_n == 1
