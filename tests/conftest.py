import random
from fractions import Fraction

import pytest

from semizn.algebra import ModulePresentation
from semizn.group import GeneratorSet, GroupElement
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


@pytest.fixture
def rng():
    return random.Random(20240817)
