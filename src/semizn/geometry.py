"""Exact lattice-polytope machinery: convex hulls in integer coordinates,
strict faces with witnessing directions, face-accessibility of step graphs
(which also decides the escape condition of a symmetric position tuple, see
`positions.check_escape_condition`), and the refined normal fan that turns
"for every nonzero direction v" conditions into a finite list of integer
representatives.

A hull works in the coordinates p - p0 read at the pivot columns of an
integer echelon form of the point differences; the echelon is triangular
there, so these coordinates are one-to-one on the affine hull, and a facet
normal lifts to the ambient space by writing it into the same columns.
Its facets come from one incremental algorithm in every dimension,
beneath-beyond (Kallay 1981; Seidel 1981): a simplex on the first affinely
independent points, then every other point in a fixed order, each deleting
the facets it sees and joining itself to the ridges on their horizon.  A
facet is a primitive integer normal with an integer support, so nothing is
rounded, and the run's deadline is checked once per point, so a large hull
stops like any other phase of a decision.

The fan construction rests on two standard facts: the common refinement of
the normal fans of several polytopes is the normal fan of their Minkowski
sum, and a hyperplane split by a^⊥ is the normal fan of the segment
conv{0, a}.  Each face of the sum polytope yields one cell; its
representative direction is the sum of the primitive outer normals of the
facets containing the face (plus, when the sum polytope is not
full-dimensional, both signs of each basis vector of the orthogonal
complement of its affine hull for the lineality cell).  Every
representative is verified a posteriori to select exactly its face, so the
enumeration is self-certifying.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Sequence

from semizn import linalg
from semizn.groebner import check_deadline


@dataclass(frozen=True)
class Face:
    """Strict face: all input points on it, its dimension, and an ambient
    direction whose argmax over the polytope is exactly this face."""

    point_indices: frozenset
    points: tuple
    dim: int
    direction: tuple


class LatticePolytope:
    def __init__(self, points: Sequence[Sequence[int]]):
        if not points:
            raise ValueError("empty point set")
        pts = sorted({tuple(int(v) for v in p) for p in points})
        self.points = tuple(pts)
        self.n = len(pts[0])
        if any(len(p) != self.n for p in pts):
            raise ValueError("points of mixed dimension")
        self._build()

    # -- construction ---------------------------------------------------------
    def _build(self):
        p0 = self.points[0]
        self._diffs = [[a - b for a, b in zip(p, p0)] for p in self.points[1:]]
        # p - p0 at the echelon's pivot columns: one-to-one on the affine hull
        self._pivots = linalg._echelon(self._diffs, self.n)[1]
        self.dim = len(self._pivots)
        self._coords = [
            tuple(p[pc] - p0[pc] for pc in self._pivots) for p in self.points
        ]
        self._facets = self._facet_hyperplanes()
        self._faces = self._face_lattice()
        if self.dim == 0:
            self.vertices = [self.points[0]]
        else:
            self.vertices = sorted(
                f.points[0] for f in self._faces if f.dim == 0
            )
        self._verify_faces()

    def _facet_hyperplanes(self):
        """Facets as (coord normal, support, point index set), exact, by
        beneath-beyond: the first affinely independent points as a simplex,
        then each further point in order deletes the facets it sees and
        spans a new facet with each horizon ridge (the points a seen facet
        shares with an unseen one, when their affine dimension is k - 2).
        A facet is keyed by its primitive outer normal, oriented against
        the simplex's centroid, so a new facet on an unseen facet's
        hyperplane merges into it.  Past the deadline it raises
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
            # the one null vector of the differences, from the integer
            # echelon rows: x_fc = L, the lcm of the pivots, and
            # x_pc = -row[fc] * L / row[pc], then made primitive
            base = coords[idxs[0]]
            rows, pivots = linalg._echelon(
                [[a - b for a, b in zip(coords[i], base)] for i in idxs[1:]], k)
            if len(pivots) != k - 1:
                return
            fc = next(c for c in range(k) if c not in pivots)
            L = lcm(*(row[pc] for row, pc in zip(rows, pivots)))
            x = [0] * k
            x[fc] = L
            for row, pc in zip(rows, pivots):
                x[pc] = -row[fc] * (L // row[pc])
            g = gcd(*x)
            h = tuple(v // g for v in x)
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

    def _ambient_normal(self, h_coords):
        """Lift a primitive coord-space normal to an ambient integer
        direction: the unique one supported on the pivot columns."""
        w = [0] * self.n
        for pc, x in zip(self._pivots, h_coords):
            w[pc] = x
        return tuple(w)

    def _face_lattice(self):
        facet_sets = [f[2] for f in self._facets]
        ambient = [self._ambient_normal(f[0]) for f in self._facets]
        self._facet_normals = ambient
        seen = set(facet_sets)
        queue = list(facet_sets)
        while queue:
            cur = queue.pop()
            for fs in facet_sets:
                inter = cur & fs
                if inter and inter not in seen:
                    seen.add(inter)
                    queue.append(inter)
        faces = []
        for s in seen:
            pts = tuple(self.points[i] for i in sorted(s))
            d = self._affine_dim(s)
            direction = [0] * self.n
            for fs, w in zip(facet_sets, ambient):
                if s <= fs:
                    direction = [a + b for a, b in zip(direction, w)]
            faces.append(
                Face(frozenset(s), pts, d, linalg.primitive_vector(direction))
            )
        faces.sort(key=lambda f: (f.dim, f.points))
        return faces

    def _affine_dim(self, idx_set) -> int:
        idxs = sorted(idx_set)
        base = self._coords[idxs[0]]
        rows = [
            [self._coords[i][j] - base[j] for j in range(self.dim)] for i in idxs[1:]
        ]
        return linalg.rank(rows, self.dim) if rows else 0

    def _verify_faces(self):
        for f in self._faces:
            got = self.face_points(f.direction)
            if got != f.point_indices:
                raise RuntimeError("face witness direction failed verification")

    # -- queries ----------------------------------------------------------------
    def strict_faces(self) -> list[Face]:
        return list(self._faces)

    def support_value(self, v: Sequence):
        return max(linalg.dot(v, p) for p in self.points)

    def face_points(self, v: Sequence) -> frozenset:
        """Indices of the points attaining max v.x."""
        vals = [linalg.dot(v, p) for p in self.points]
        top = max(vals)
        return frozenset(i for i, val in enumerate(vals) if val == top)

    def complement_basis(self) -> list[tuple]:
        """Primitive integer basis of the orthogonal complement of the
        affine hull's direction space (empty when full-dimensional)."""
        if self.dim == self.n:
            return []
        return [linalg.primitive_vector(v) for v in linalg.nullspace(self._diffs, self.n)]

    def ambient_halfspaces(self) -> list[tuple]:
        """Facet description {x : w.x <= b} in ambient coordinates; only
        complete for full-dimensional polytopes."""
        if self.dim != self.n:
            raise ValueError("halfspace description requires a full-dimensional polytope")
        out = []
        for w in self._facet_normals:
            out.append((w, self.support_value(w)))
        return sorted(out)

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.n == other.n
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.n, tuple(self.vertices)))

    def __repr__(self):
        return f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)})"


convex_hull = LatticePolytope  # the exact hull; past the deadline it raises DeadlineExceeded


# ---------------------------------------------------------------------------
# Face accessibility of step graphs
# ---------------------------------------------------------------------------

def is_face_accessible(graph):
    """Directional accessibility: for every nonzero direction, the argmax
    face of the vertex hull must contain the start of an edge leaving it.

    Returns (ok, report).  For full-dimensional hulls this is exactly
    "every strict face has an escaping edge"; lower-dimensional hulls are
    never accessible (any direction flattening the hull selects the whole
    polytope, which no edge can leave), and the report marks them so.
    The deadline bounds the hull.
    """
    return face_accessibility(convex_hull(graph.vertices()), graph)


def face_accessibility(P: LatticePolytope, graph):
    """`is_face_accessible` on `P`, the hull of the graph's vertices."""
    report = []
    ok = True
    for face in P.strict_faces():
        fpts = set(face.points)
        acc = any(
            e[0] in fpts and graph.destination(e) not in fpts for e in graph.counts
        )
        report.append({
            "direction": list(face.direction),
            "face": [list(p) for p in face.points],
            "accessible": acc,
        })
        ok = ok and acc
    for w in P.complement_basis():
        report.append({
            "direction": list(w),
            "face": [list(p) for p in P.points],
            "accessible": False,
            "reason": "hull is not full-dimensional",
        })
        ok = False
    return ok, report


# ---------------------------------------------------------------------------
# Refined normal fan
# ---------------------------------------------------------------------------

def _minkowski_points(point_sets):
    acc = None
    for pts in point_sets:
        if acc is None:
            acc = [tuple(p) for p in pts]
        else:
            acc = [
                tuple(a + b for a, b in zip(p, q)) for p in acc for q in pts
            ]
        acc = list(convex_hull(acc).vertices)
    return acc


def refined_fan(polytopes, hyperplanes=()) -> list[tuple]:
    """Sorted integer directions, one in the relative interior of every
    cell of the common refinement of the polytopes' normal fans and the
    hyperplanes a^⊥, covering all nonzero directions.  No decision path
    calls it, since the escape condition needs only the support hull's
    faces; the tests' reference escape check and perfbench's tracer use it."""
    point_sets = []
    for P in polytopes:
        pts = P.points if isinstance(P, LatticePolytope) else [tuple(p) for p in P]
        if not pts:
            raise ValueError("empty polytope in fan input")
        point_sets.append(list(pts))
    if not point_sets:
        raise ValueError("need at least one polytope")
    n = len(point_sets[0][0])
    segs = []
    for a in hyperplanes:
        a = tuple(int(v) for v in a)
        if any(a):
            segs.append([(0,) * n, a])
    if n == 0:
        return []
    Q = convex_hull(_minkowski_points(point_sets + segs))
    directions = [face.direction for face in Q.strict_faces()]
    all_idx = frozenset(range(len(Q.points)))
    for w in Q.complement_basis():
        for v in (w, tuple(-x for x in w)):
            if Q.face_points(v) != all_idx:
                raise RuntimeError("lineality representative failed verification")
            directions.append(v)
    return sorted(directions)
