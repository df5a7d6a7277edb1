from fractions import Fraction
from math import gcd

import pytest

from semizn import linalg
from semizn.geometry import LatticePolytope, convex_hull, is_face_accessible, refined_fan
from semizn.ggraph import StepGraph
from semizn.laurent import LaurentPoly

from conftest import crossing_indices, leading_indices, solve_linear


def test_hull_point_and_segment():
    P = convex_hull([(0,)])
    assert P.dim == 0 and P.vertices == [(0,)] and P.strict_faces() == []
    S = convex_hull([(0,), (2,), (1,)])
    assert S.dim == 1
    assert S.vertices == [(0,), (2,)]
    faces = S.strict_faces()
    assert {f.points for f in faces} == {((0,),), ((2,),)}
    dirs = {f.points[0]: f.direction for f in faces}
    assert dirs[(0,)] == (-1,) and dirs[(2,)] == (1,)


def test_hull_triangle_and_square():
    T = convex_hull([(0, 0), (2, 0), (0, 2), (1, 1)])  # (1,1) on the edge
    faces = T.strict_faces()
    assert sum(1 for f in faces if f.dim == 0) == 3
    assert sum(1 for f in faces if f.dim == 1) == 3
    assert len(faces) == 6
    Q = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(Q.strict_faces()) == 8


def test_hull_figure_vertices():
    pts = [(-2, 3), (0, 0), (0, 2), (0, 3), (2, -1), (2, 1), (2, 3)]
    P = convex_hull(pts)
    assert P.dim == 2
    assert (0, 2) in P.points and (0, 2) not in P.vertices


def test_hull_idempotence(rng):
    for _ in range(25):
        n = rng.randint(1, 3)
        pts = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 9))]
        P = convex_hull(pts)
        Q = convex_hull(P.vertices)
        assert Q == P
        assert Q.vertices == P.vertices


def test_hull_pivots_are_the_rank_jumps(rng):
    # column j is a pivot iff the differences' first j + 1 columns have a
    # larger rank than their first j
    for _ in range(60):
        n = rng.randint(1, 4)
        pts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.5:  # a flat point set
            pts = [p[:1] + (p[0],) * (n - 1) for p in pts]
        hull = convex_hull(pts)
        p0 = hull.points[0]
        diffs = [[a - b for a, b in zip(p, p0)] for p in hull.points[1:]]
        ranks = [linalg.rank([d[:j] for d in diffs], j) for j in range(n + 1)]
        assert hull._pivots == [j for j in range(n) if ranks[j + 1] > ranks[j]]
        assert hull.dim == ranks[n]


def ref_build(self):
    p0 = self.points[0]
    basis = []
    echelon = []  # (pivot column, integer row) spanning the picked diffs
    for p in self.points[1:]:
        diff = [a - b for a, b in zip(p, p0)]
        v = diff
        for pc, row in echelon:
            if v[pc]:
                f, g = v[pc], row[pc]
                v = [g * x - f * y for x, y in zip(v, row)]
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is not None:  # diff is independent of the picked ones
            g = gcd(*v)
            echelon.append((pc, [x // g for x in v]))
            basis.append(diff)
    self.dim = len(basis)
    self._basis = self._diffs = basis
    bmat = [[basis[j][i] for j in range(self.dim)] for i in range(self.n)]
    self._coords = []
    for p in self.points:
        rhs = [a - b for a, b in zip(p, p0)]
        c = solve_linear(bmat, rhs) if self.dim else []
        self._coords.append(tuple(c))
    self._facets = self._facet_hyperplanes()
    self._faces = self._face_lattice()
    if self.dim == 0:
        self.vertices = [self.points[0]]
    else:
        self.vertices = sorted(
            f.points[0] for f in self._faces if f.dim == 0
        )
    self._verify_faces()


def ref_ambient_normal(self, h_coords):
    """Lift a coord-space normal to an ambient integer direction."""
    rows = [list(b) for b in self._basis]
    w = solve_linear(rows, list(h_coords))
    return linalg.primitive_vector(w)


class RefPolytope(LatticePolytope):
    """The hull in Fraction coordinates over the picked differences, with
    facet normals lifted by an exact solve."""

    _build = ref_build
    _ambient_normal = ref_ambient_normal


def test_hull_matches_reference(rng):
    """Integer pivot coordinates give the same faces, vertices, complement
    basis and halfspaces as the solve-based reference."""
    flat = 0
    for t in range(2000):
        n = rng.randint(1, 3)
        if t % 2:  # a flat set: points of a rank < n lattice through an offset
            gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
            off = [rng.randint(-3, 3) for _ in range(n)]
            pts = [tuple(off[i] + sum(rng.randint(-2, 2) * g[i] for g in gens) for i in range(n))
                   for _ in range(rng.randint(1, 8))]
        else:
            pts = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 9))]
        got, want = LatticePolytope(pts), RefPolytope(pts)
        assert [(f.point_indices, f.dim, f.direction) for f in got.strict_faces()] == \
            [(f.point_indices, f.dim, f.direction) for f in want.strict_faces()]
        assert got.vertices == want.vertices
        assert got.complement_basis() == want.complement_basis()
        if want.dim == n:
            assert got.ambient_halfspaces() == want.ambient_halfspaces()
        else:
            flat += 1
    assert flat >= 1000


def test_hull_3d_cube():
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    P = convex_hull(cube + [(0, 0, 0)])
    assert P.dim == 3
    assert len(P.vertices) == 8
    faces = P.strict_faces()
    assert sum(1 for f in faces if f.dim == 2) == 6
    assert sum(1 for f in faces if f.dim == 1) == 12
    assert sum(1 for f in faces if f.dim == 0) == 8


def test_face_accessibility_examples():
    pair = StepGraph([(1,), (-1,)], [((0,), 1), ((1,), 2)])
    ok, report = is_face_accessible(pair)
    assert ok
    loops = StepGraph([(1,), (-1,)],
                      [((0,), 1), ((1,), 2), ((3,), 1), ((4,), 2)])
    ok, _ = is_face_accessible(loops)
    assert ok
    single = StepGraph([(1,), (-1,)], [((0,), 1)])
    ok, report = is_face_accessible(single)
    assert not ok  # vertex {1} has no escaping edge


def test_face_accessibility_negative_control():
    # square circuit plus a detached 2-cycle bar on the hull's top face
    g = StepGraph(
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [((0, 0), 1), ((1, 0), 2), ((1, 1), 3), ((0, 1), 4),
         ((0, 3), 1), ((1, 3), 3)],
    )
    assert g.is_symmetric()
    ok, report = is_face_accessible(g)
    assert not ok
    bad = [r for r in report if not r["accessible"]]
    assert any(set(map(tuple, r["face"])) == {(0, 3), (1, 3)} for r in bad)


def test_face_accessibility_degenerate_hull():
    # inverse pair embedded in Z^2: flat hull, flattening directions fail
    g = StepGraph([(1, 0), (-1, 0)], [((0, 0), 1), ((1, 0), 2)])
    ok, report = is_face_accessible(g)
    assert not ok
    assert any(r.get("reason") == "hull is not full-dimensional" for r in report)


def test_refined_fan_small():
    assert refined_fan([[(0,)]], []) == [(-1,), (1,)]
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    cells = refined_fan([square], [])
    assert len(cells) == 8
    assert set(cells) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)
    }


def test_refined_fan_figure_profile():
    """The fan over the union of figure supports must realize the documented
    profile at direction (0,1): leading = {2,3}, crossing = {1,3}."""
    steps = [(-2, 3), (2, 0), (0, -2)]
    fs = [
        LaurentPoly(2, {(0, 0): 1, (2, -1): 1}),
        LaurentPoly(2, {(-2, 3): 1}),
        LaurentPoly(2, {(2, 3): 1, (3, 1): 1}),
    ]
    support = set()
    for f in fs:
        support |= f.support()
    cells = refined_fan([sorted(support)], steps)
    Q = convex_hull(linalg_minkowski(sorted(support), steps))
    target_face = Q.face_points((0, 1))
    matched = [c for c in cells if Q.face_points(c) == target_face]
    assert matched, "no cell selects the same face as (0,1)"
    v = matched[0]
    assert leading_indices({1, 2, 3}, fs, v) == frozenset({2, 3})
    assert crossing_indices(steps, v) == frozenset({1, 3})


def linalg_minkowski(points, steps):
    acc = [tuple(p) for p in points]
    for a in steps:
        if any(a):
            acc = [tuple(x + y for x, y in zip(p, q)) for p in acc for q in [(0,) * len(a), a]]
    return acc


def test_fan_sampled_soundness(rng):
    """Random directions have the same (leading, crossing) profile as the
    representative of the fan cell they fall in."""
    steps = [(-2, 3), (2, 0), (0, -2)]
    fs = [
        LaurentPoly(2, {(0, 0): 1, (2, -1): 1}),
        LaurentPoly(2, {(-2, 3): 1}),
        LaurentPoly(2, {(2, 3): 1, (3, 1): 1}),
    ]
    support = sorted(set().union(*(f.support() for f in fs)))
    cells = refined_fan([support], steps)
    Q = convex_hull(linalg_minkowski(support, steps))
    by_face = {}
    for c in cells:
        by_face[Q.face_points(c)] = c
    checked = 0
    for _ in range(300):
        v = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
             Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        if not any(v):
            continue
        cell = by_face.get(Q.face_points(v))
        assert cell is not None, "direction not covered by any cell"
        assert leading_indices({1, 2, 3}, fs, v) == leading_indices({1, 2, 3}, fs, cell)
        assert crossing_indices(steps, v) == crossing_indices(steps, cell)
        checked += 1
    assert checked > 250


def test_fan_lineality():
    # all data orthogonal to (0,1): lineality representatives appear
    cells = refined_fan([[(0, 0), (1, 0)]], [(1, 0)])
    dirs = set(cells)
    assert (0, 1) in dirs and (0, -1) in dirs


def test_face_cover_partition(rng):
    """Every input point has a unique smallest face containing it (the faces
    are closed under intersection), so relative interiors partition P."""
    for _ in range(15):
        n = rng.randint(1, 2)
        pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(2, 8))]
        P = convex_hull(pts)
        face_sets = [set(f.points) for f in P.strict_faces()]
        all_points = set(P.points)
        for p in P.points:
            containing = [fs for fs in face_sets if p in fs] + [all_points]
            smallest = min(containing, key=len)
            for fs in containing:
                assert smallest <= fs  # containment chain: unique minimum


def test_empty_hull_rejected():
    with pytest.raises(ValueError):
        convex_hull([])
