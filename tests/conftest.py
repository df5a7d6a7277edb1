import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from semizn.algebra import ModulePresentation
from semizn.group import GeneratorSet, GroupElement, evaluate_word
from semizn.laurent import LaurentPoly
from semizn.linalg import _echelon


def mono(e, c=1):
    return LaurentPoly.monomial(e, c)


def poly(n, terms):
    return LaurentPoly(n, terms)


def free_presentation(n, d=1):
    return ModulePresentation(n=n, d=d, rels_N=[])


def inverse_pair():
    """The canonical 2-generator group instance in Z[X^pm] x| Z."""
    pres = free_presentation(1)
    g1 = GroupElement(pres, [LaurentPoly.one(1)], (1,))
    g2 = GroupElement(pres, [mono((-1,), -1)], (-1,))
    return GeneratorSet(pres, [g1, g2])


def long_witness():
    """CI's long-witness instance: n = 1 over Z[X^pm]/(X - 2), with
    (2X^-1 - 2X^2, 1), (2X^-2, -2) and (2X^2, -1).  Its `yes` word has
    244,360 letters."""
    pres = ModulePresentation(n=1, d=1, rels_N=[[LaurentPoly(1, {(1,): 1, (0,): -2})]])
    return GeneratorSet(pres, [GroupElement(pres, [LaurentPoly(1, y)], a) for y, a in [
        ({(-1,): 2, (2,): -2}, (1,)), ({(-2,): 2}, (-2,)), ({(2,): 2}, (-1,))]])


def random_poly(rng: random.Random, n, max_terms=3, exp=2, coef=4, allow_zero=True):
    t = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        e = tuple(rng.randint(-exp, exp) for _ in range(n))
        c = rng.randint(-coef, coef)
        if c:
            t[e] = t.get(e, 0) + c
    return LaurentPoly(n, t)


def solve_linear(rows, rhs):
    """One exact solution of rows * x = rhs, or None if inconsistent: each
    pivot variable takes its row's right-hand side, the free ones 0."""
    n = len(rows[0]) if rows else 0
    a, pivots = _echelon([list(r) + [v] for r, v in zip(rows, rhs)], n)
    if any(row[n] for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(a, pivots):
        x[c] = Fraction(row[n], row[c])
    return x


def lattice_coordinates(basis_rows, target):
    """Integer coordinates of `target` in the lattice basis, or None."""
    if not basis_rows:
        return [] if not any(target) else None
    cols = [[Fraction(row[j]) for row in basis_rows] for j in range(len(target))]
    sol = solve_linear(cols, [Fraction(t) for t in target])
    if sol is None:
        return None
    if any(x.denominator != 1 for x in sol):
        return None
    return [int(x) for x in sol]


# -- references that only the tests compare against --------------------------

NEG_INF = float("-inf")  # order-only sentinel for deg of the zero polynomial


def _dot(v, e) -> Fraction:
    return sum((a * b for a, b in zip(v, e)), Fraction(0))


def as_direction(v: Sequence, n: int):
    """Validate and normalize a nonzero rational direction vector."""
    vec = tuple(Fraction(x) for x in v)
    if len(vec) != n:
        raise ValueError(f"direction has length {len(vec)}, expected {n}")
    if all(x == 0 for x in vec):
        raise ValueError("direction must be nonzero")
    return vec


def weighted_degree(p: LaurentPoly, v: Sequence):
    """Max of v . a over the support of p; NEG_INF for the zero polynomial."""
    if not p.terms:
        return NEG_INF
    v = as_direction(v, p.n)
    return max(_dot(v, e) for e in p.terms)


def leading_indices(subset, fs: Sequence[LaurentPoly], v) -> frozenset:
    """Indices of `subset` whose v-weighted degree is maximal.

    Zero entries have degree -inf and never attain a maximum against a
    nonzero entry; if every entry of the subset is zero, the whole subset is
    returned (all attain -inf)."""
    subset = sorted(subset)
    if not subset:
        raise ValueError("empty index subset")
    n = fs[0].n
    v = as_direction(v, n)
    degs = {i: weighted_degree(fs[i - 1], v) for i in subset}
    top = max(degs.values())
    if top == NEG_INF:
        return frozenset(subset)
    return frozenset(i for i in subset if degs[i] == top)


def crossing_indices(steps, v) -> frozenset:
    """Indices whose step vector is not orthogonal to v."""
    out = set()
    for i, a in enumerate(steps, start=1):
        if sum(Fraction(x) * y for x, y in zip(v, a)) != 0:
            out.add(i)
    return frozenset(out)


def oracle_bfs(gens: GeneratorSet, max_len: int) -> Optional[list[int]]:
    """Breadth-first ground truth: the shortest (then lexicographically
    smallest) full-image word evaluating to the neutral element, within the
    length bound.  States deduplicate on exact representatives only, so this
    shares no machinery with the decision procedures."""
    if max_len <= 0:
        return None
    pres = gens.presentation
    full_mask = (1 << gens.K) - 1

    def key_of(el, mask):
        return (el.a, tuple(frozenset(p.terms.items()) for p in el.y), mask)

    frontier = [(evaluate_word(gens, []), 0, [])]
    seen = {key_of(frontier[0][0], 0)}
    for _ in range(max_len):
        nxt = []
        for el, mask, word in frontier:
            for i in range(1, gens.K + 1):
                el2 = el * gens.elements[i - 1]
                mask2 = mask | (1 << (i - 1))
                word2 = word + [i]
                if mask2 == full_mask and all(v == 0 for v in el2.a):
                    if pres.is_zero(list(el2.y)):
                        return word2
                k = key_of(el2, mask2)
                if k not in seen:
                    seen.add(k)
                    nxt.append((el2, mask2, word2))
        frontier = nxt
    return None


@pytest.fixture
def rng():
    return random.Random(20240817)
