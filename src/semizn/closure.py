"""Constructive Eulerian closure: a symmetric, face-accessible,
Z^n-generating step graph has a finite union of lattice translates that is
connected (hence Eulerian, symmetry being preserved by unions).

The search realizes the constructive side of that theorem directly: for
N = 1, 2, ... take all integer translations z keeping z + C inside the
scaled hull N*C (C scales from the origin), form the union, and return the
first N whose union is connected.  Termination for valid inputs is the
theorem's content; correctness of the returned union is checked a
posteriori, so every N is admissible (the proof's quantitative constants are
sufficient, not necessary).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

from semizn import geometry
from semizn.ggraph import StepGraph
from semizn.groebner import CHECK_EVERY, check_deadline


class ClosurePreconditionError(ValueError):
    """The input graph fails symmetry, face-accessibility or lattice
    generation; carries which predicate failed and its report."""

    def __init__(self, failed: str, report=None):
        super().__init__(f"eulerian closure precondition failed: {failed}")
        self.failed = failed
        self.report = report


class ClosureBudgetError(RuntimeError):
    def __init__(self, max_n: int):
        super().__init__(f"no connected union of translations found for N <= {max_n}")
        self.max_n = max_n


@dataclass
class ClosureResult:
    translations: list
    union: StepGraph
    N: int


def translation_set(hull: geometry.LatticePolytope, N: int) -> list[tuple]:
    """All z in Z^n with z + C contained in N*C, by exact facet arithmetic:
    w.z <= (N-1) * b for every facet {x : w.x <= b} of C, over the box
    (N-1) * [lo, hi]^n; the deadline is checked every CHECK_EVERY points
    of the box."""
    halfspaces = hull.ambient_halfspaces()
    n = hull.n
    los, his = [], []
    for i in range(n):
        lo = min(p[i] for p in hull.points)
        hi = max(p[i] for p in hull.points)
        los.append(N * lo - lo)
        his.append(N * hi - hi)
    out = []
    for t, z in enumerate(product(*(range(lo, hi + 1) for lo, hi in zip(los, his))), start=1):
        if t % CHECK_EVERY == 0:
            check_deadline()
        if all(
            sum(w[i] * z[i] for i in range(n)) <= (N - 1) * b
            for w, b in halfspaces
        ):
            out.append(z)
    return out


def eulerian_closure(graph: StepGraph, max_n: int = 16) -> ClosureResult:
    """A negative `max_n` is refused with ValueError.  Past the deadline it
    raises DeadlineExceeded: inside the hull, before each N, and every
    CHECK_EVERY points of the translation box and translations."""
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    if not graph.is_symmetric():
        raise ClosurePreconditionError("symmetric")
    hull = geometry.convex_hull(graph.vertices())
    accessible, report = geometry.face_accessibility(hull, graph)
    if not accessible:
        raise ClosurePreconditionError("face_accessible", report)
    if not graph.is_zn_generating():
        raise ClosurePreconditionError("zn_generating")
    if graph.n == 0:
        return ClosureResult(translations=[()], union=graph, N=1)
    for N in range(1, max_n + 1):
        check_deadline()
        zs = translation_set(hull, N)
        if not zs:
            continue
        counts = Counter()
        for t, z in enumerate(zs, start=1):
            if t % CHECK_EVERY == 0:
                check_deadline()
            for (s, label), k in graph.counts.items():
                counts[tuple(a + b for a, b in zip(s, z)), label] += k
        union = StepGraph(graph.steps, counts)
        if union.is_connected():
            return ClosureResult(translations=sorted(zs), union=union, N=N)
    raise ClosureBudgetError(max_n)
