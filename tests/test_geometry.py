import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from semizn import linalg
from semizn.geometry import LatticePolytope, convex_hull, is_face_accessible, refined_fan
from semizn.ggraph import StepGraph
from semizn.groebner import DeadlineExceeded, check_deadline, deadline_scope
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


def ref_build(self, deadline=None):
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


def ref_facet_hyperplanes(self):
    """Facets as (coord normal, support, point index set), exact."""
    k = self.dim
    coords = self._coords
    m = len(coords)
    if k == 0:
        return []
    if k == 1:
        vals = [c[0] for c in coords]
        top = max(vals)
        bot = min(vals)
        return [
            ((1,), top, frozenset(i for i in range(m) if vals[i] == top)),
            ((-1,), -bot, frozenset(i for i in range(m) if vals[i] == bot)),
        ]
    if k == 2:
        return ref_facets_2d(self)
    found = {}
    for idxs in combinations(range(m), k):
        base = coords[idxs[0]]
        diffs = [
            [coords[i][j] - base[j] for j in range(k)] for i in idxs[1:]
        ]
        null = linalg.nullspace(diffs, k)
        if len(null) != 1:
            continue
        h = linalg.primitive_vector(null[0])
        vals = [linalg.dot(h, c) for c in coords]
        ref = linalg.dot(h, base)
        if all(v <= ref for v in vals):
            pass
        elif all(v >= ref for v in vals):
            h = tuple(-x for x in h)
            vals = [-v for v in vals]
            ref = -ref
        else:
            continue
        on = frozenset(i for i in range(m) if vals[i] == ref)
        found[h] = (h, ref, on)
    return sorted(found.values())


def ref_facets_2d(self):
    coords = self._coords
    order = sorted(range(len(coords)), key=lambda i: coords[i])

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(coords[lower[-2]], coords[lower[-1]], coords[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(coords[upper[-2]], coords[upper[-1]], coords[i]) <= 0:
            upper.pop()
        upper.append(i)
    ring = lower[:-1] + upper[:-1]
    facets = {}
    for t in range(len(ring)):
        p = coords[ring[t]]
        q = coords[ring[(t + 1) % len(ring)]]
        h = linalg.primitive_vector((q[1] - p[1], -(q[0] - p[0])))
        ref = linalg.dot(h, p)
        on = frozenset(
            i for i, c in enumerate(coords) if linalg.dot(h, c) == ref
        )
        facets[h] = (h, ref, on)
    return sorted(facets.values())


class RefPolytope(LatticePolytope):
    """The hull in Fraction coordinates over the picked differences, with
    facet normals lifted by an exact solve, and facets found by min/max at
    k = 1, Andrew's monotone chain at k = 2 and one nullspace per k-subset
    of the points from k = 3."""

    _build = ref_build
    _ambient_normal = ref_ambient_normal
    _facet_hyperplanes = ref_facet_hyperplanes


def assert_matches_reference(pts):
    """Same facets (in the pivot coordinates), faces, vertices, complement
    basis and halfspaces as the reference."""
    got, want = LatticePolytope(pts), RefPolytope(pts)
    assert got._facets == sorted(ref_facet_hyperplanes(got))
    assert [(f.point_indices, f.dim, f.direction) for f in got.strict_faces()] == \
        [(f.point_indices, f.dim, f.direction) for f in want.strict_faces()]
    assert got.vertices == want.vertices
    assert got.complement_basis() == want.complement_basis()
    if want.dim == len(pts[0]):
        assert got.ambient_halfspaces() == want.ambient_halfspaces()
    return want.dim


def test_hull_matches_reference(rng):
    """The beneath-beyond hull in integer pivot coordinates gives the same
    facets, faces, vertices, complement basis and halfspaces as the
    solve-based, facet-enumerating reference."""
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
        if assert_matches_reference(pts) < n:
            flat += 1
    assert flat >= 1000


@pytest.mark.parametrize("n, m, seed", [(3, 40, 0), (3, 30, 1), (3, 20, 2),
                                         (4, 30, 3), (4, 25, 4), (4, 20, 5)])
def test_larger_hulls_match_reference(n, m, seed):
    """Full-dimensional n = 3 and n = 4 sets of 20-40 points: the same
    facets as the reference's k-subset enumeration, in the same frame."""
    rng = random.Random(seed)
    hull = LatticePolytope([tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)])
    assert hull.dim == n
    assert hull._facets == sorted(ref_facet_hyperplanes(hull))


# -- reference: the beneath-beyond facets with span's normal in Fractions ----
# `LatticePolytope._facet_hyperplanes` as it was when `span` took its normal
# from `linalg.nullspace` and `primitive_vector`, verbatim but for its name.

def ref_nullspace_facet_hyperplanes(self, deadline):
    """Facets as (coord normal, support, point index set), exact, by
    beneath-beyond: the first affinely independent points as a simplex,
    then each further point in order deletes the facets it sees and
    spans a new facet with each horizon ridge (the points a seen facet
    shares with an unseen one, when their affine dimension is k - 2).
    A facet is keyed by its primitive outer normal, oriented against
    the simplex's centroid, so a new facet on an unseen facet's
    hyperplane merges into it.  Past `deadline` it raises
    DeadlineExceeded, checked once per point."""
    k, coords = self.dim, self._coords
    if k == 0:
        return []
    simplex = [0]
    for i in range(1, len(coords)):
        if len(simplex) > k:
            break
        rows = [[a - b for a, b in zip(coords[j], coords[0])] for j in simplex[1:] + [i]]
        if linalg.rank(rows, k) == len(simplex):
            simplex.append(i)
    centre = [sum(col) for col in zip(*(coords[j] for j in simplex))]  # (k + 1) x centroid
    facets = {}  # outer normal -> (support, indices of points on it, its vertices included)

    def span(idxs):
        base = coords[idxs[0]]
        null = linalg.nullspace([[a - b for a, b in zip(coords[i], base)] for i in idxs[1:]], k)
        if len(null) != 1:
            return
        h = linalg.primitive_vector(null[0])
        b = linalg.dot(h, base)
        if linalg.dot(h, centre) > (k + 1) * b:
            h, b = tuple(-x for x in h), -b
        facets.setdefault(h, (b, set()))[1].update(idxs)

    for j in simplex:
        span([i for i in simplex if i != j])
    for i, q in enumerate(coords):
        check_deadline()
        if i in simplex:
            continue
        visible = [h for h, (b, _) in facets.items() if linalg.dot(h, q) > b]
        seen = [facets.pop(h)[1] for h in visible]
        for r in [v & on for v in seen for _, on in facets.values()]:
            if len(r) >= k - 1:
                span([i, *r])
    m = len(coords)
    return sorted(
        (h, b, frozenset(i for i in range(m) if linalg.dot(h, coords[i]) == b))
        for h, (b, _) in facets.items()
    )


def test_integer_facet_normals_match_the_nullspace_reference():
    """Seeded n = 2 and n = 3 sets of 4-20 points, a third of them flat:
    the normals read off the integer echelon rows give the facets of the
    Fraction nullspace, primitive vectors and orientations included."""
    rng = random.Random(240)
    for t in range(240):
        n = rng.choice((2, 3))
        pts = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(rng.randint(4, 20))]
        if t % 3 == 0:
            pts = [p[:-1] + (p[0] - p[1],) for p in pts]
        hull = LatticePolytope(pts)
        assert hull._facets == ref_nullspace_facet_hyperplanes(hull, None), pts


def test_hull_of_154_points_in_3d():
    rng, pts = random.Random(154), set()
    while len(pts) < 154:
        pts.add(tuple(rng.randint(-4, 4) for _ in range(3)))
    t0 = time.monotonic()
    hull = convex_hull(pts)
    assert time.monotonic() - t0 < 5
    assert hull.dim == 3 and len(hull.points) == 154


def test_an_expired_deadline_stops_a_hull():
    with pytest.raises(DeadlineExceeded), deadline_scope(-1):
        convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


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
