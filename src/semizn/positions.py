"""Position polynomials of a step graph and the polynomial-side versions of
its structural predicates.

The i-th position polynomial sums X^{s(e)} over the label-i edges, with
multiplicity, so a graph is equivalent data to a K-tuple of Laurent
polynomials with nonnegative integer coefficients.  Symmetry, full-image,
face-accessibility and neutrality all become exact polynomial conditions.
The escape condition, universal over directions, is checked on the faces of
the support hull: for a symmetric tuple with coefficients in N every edge
ends inside the support, so on the open normal cone of a face the indices
that lead and the steps that leave the face do not change.
"""
from __future__ import annotations

from typing import Sequence

from semizn import geometry
from semizn.ggraph import StepGraph
from semizn.laurent import LaurentPoly


def position_polynomials(graph: StepGraph) -> list[LaurentPoly]:
    terms = [dict() for _ in range(graph.K)]
    for (s, label), k in graph.counts.items():
        terms[label - 1][s] = k
    return [LaurentPoly(graph.n, t) for t in terms]


def graph_from_positions(fs: Sequence[LaurentPoly], steps) -> StepGraph:
    """Inverse of position_polynomials: each coefficient is the multiplicity
    of its edge.  Requires nonnegative coefficients."""
    counts = {}
    for i, f in enumerate(fs, start=1):
        for e, c in f.terms.items():
            if c < 0:
                raise ValueError("position polynomials need coefficients in N")
            counts[e, i] = c
    if not counts:
        raise ValueError("all position polynomials are zero")
    return StepGraph(steps, counts)


# ---------------------------------------------------------------------------
# Structural checks (polynomial side)
# ---------------------------------------------------------------------------

def check_escape_condition(fs: Sequence[LaurentPoly], steps):
    """The escape condition of a symmetric tuple with coefficients in N: for
    every nonzero direction v, some index of maximal v-degree has a step that
    crosses v's hyperplane.  Returns (ok, face report).

    Symmetry puts s + a_i in the union U of the supports for every support
    point s of f_i.  So if s is on the face of conv U that v selects, the
    edge (s, i) leaves that face exactly when a_i.v != 0, and the condition
    is face accessibility of the tuple's graph.  Raises ValueError on a
    tuple that is not in N, all zero or not symmetric, and DeadlineExceeded
    past the deadline.
    """
    graph = graph_from_positions(fs, steps)
    if not graph.is_symmetric():
        raise ValueError("escape condition needs a symmetric tuple")
    return geometry.is_face_accessible(graph)
