import itertools
import random
from fractions import Fraction
from math import gcd
from typing import Sequence

import pytest

from semizn import linalg
from semizn.decide import sample_points
from semizn.linalg import lp_feasible_point

from conftest import lattice_coordinates, random_poly, ref_kernel_then_lp, solve_linear


def test_solve_linear_and_nullspace():
    x = solve_linear([[2, 1], [1, -1]], [5, 1])
    assert x == [Fraction(2), Fraction(1)]
    assert solve_linear([[1, 1], [1, 1]], [0, 1]) is None
    ns = linalg.nullspace([[1, 1, 0]], 3)
    assert len(ns) == 2
    for v in ns:
        assert v[0] + v[1] == 0


def frac_vec(v):
    return [Fraction(x) for x in v]


# -- reference: solve_linear and nullspace by Gauss-Jordan over Fractions ----
# Kept verbatim as an oracle for the fraction-free elimination: geometry's
# facets and fan cells and the refuter's certificates are read off these
# solutions, so they must not move.

def ref_solve_linear(rows, rhs):
    """One exact solution of rows * x = rhs, or None if inconsistent."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [frac_vec(r) + [Fraction(v)] for r, v in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def ref_nullspace(rows, n):
    """Basis of {x : rows * x = 0} over Q."""
    m = len(rows)
    a = [frac_vec(r) for r in rows]
    pivots = {}
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots[c] = r
        r += 1
        if r == m:
            break
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for pc, pr in pivots.items():
            v[pc] = -a[pr][fc]
        basis.append(v)
    return basis


def test_elimination_matches_reference():
    rng = random.Random(5150)
    seen = {"solved": 0, "inconsistent": 0, "kernel": 0, "empty": 0}
    for case in range(600):
        m = rng.randint(0, 7 if case % 2 else 5)
        n = rng.randint(1, 5)
        nums, dens = ([0, 0, 1, -1, 2, -3], [1, 1, 2, 3]) if case % 2 else (
            [0, 5, -7, 12, -30], [1, 4, 9])
        A = [[Fraction(rng.choice(nums), rng.choice(dens)) for _ in range(n)]
             for _ in range(m)]
        if m >= 2 and rng.random() < 0.3:
            A.append([x - 2 * y for x, y in zip(A[0], A[1])])
        rhs = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in A]
        assert linalg.nullspace(A, n) == ref_nullspace(A, n), A
        assert linalg.rank(A, n) == n - len(ref_nullspace(A, n)), A
        if A:
            want = ref_solve_linear(A, rhs)
            assert solve_linear(A, rhs) == want, (A, rhs)
            seen["inconsistent" if want is None else "solved"] += 1
        else:
            seen["empty"] += 1
        if ref_nullspace(A, n):
            seen["kernel"] += 1
    assert min(seen.values()) >= 40, seen


def test_simplex_basic():
    # x1 + x2 <= 4 via equality form with slack: phase 1 stops at a vertex
    x = linalg.simplex([[1, 1, 1]], [4])
    assert x == _ref_simplex([[1, 1, 1]], [4], [0, 0, 0])[1]
    assert x[0] + x[1] + x[2] == 4 and min(x) >= 0
    assert linalg.simplex([[1, 0]], [-1]) is None  # x1 = -1, x >= 0
    assert linalg.simplex([[1, -1]], [0]) == [0, 0]  # x1 - x2 = 0 has an unbounded ray


# -- reference: the dense Fraction simplex the integer-row kernel replaced ----
# Kept verbatim apart from the pivot log, as an oracle.  Run with zero costs,
# it is the kernel's specification: the kernel must make the pivots of its
# phase 1 and return its vertex, because the final vertex is part of the
# output (the drive-out pivots after phase 1 keep every rhs, and phase 2
# makes none).

class _RefTableau:
    def __init__(self, A, b, c, basis, log):
        self.A = A
        self.b = b
        self.c = c
        self.basis = basis
        self.m = len(A)
        self.n = len(c)
        self.log = log

    def _reduced_costs(self):
        cb = [self.c[j] for j in self.basis]
        red = list(self.c)
        for i in range(self.m):
            if cb[i] == 0:
                continue
            row = self.A[i]
            for j in range(self.n):
                if row[j]:
                    red[j] -= cb[i] * row[j]
        return red

    def _pivot(self, pr, pc):
        self.log.append(("pivot", pr, pc))
        pv = self.A[pr][pc]
        self.A[pr] = [x / pv for x in self.A[pr]]
        self.b[pr] /= pv
        for i in range(self.m):
            if i != pr and self.A[i][pc] != 0:
                f = self.A[i][pc]
                self.A[i] = [x - f * y for x, y in zip(self.A[i], self.A[pr])]
                self.b[i] -= f * self.b[pr]
        self.basis[pr] = pc

    def run(self):
        status = self._run()
        self.log.append((status, tuple(self.basis)))
        return status

    def _run(self):
        pivots = 0
        while True:
            red = self._reduced_costs()
            if pivots < 500:
                pc = None
                for j in range(self.n):
                    if red[j] < 0 and (pc is None or red[j] < red[pc]):
                        pc = j
            else:
                pc = next((j for j in range(self.n) if red[j] < 0), None)
            if pc is None:
                return "optimal"
            best = None
            for i in range(self.m):
                if self.A[i][pc] > 0:
                    ratio = self.b[i] / self.A[i][pc]
                    key = (ratio, self.basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return "unbounded"
            self._pivot(best[1], pc)
            pivots += 1

    def solution(self):
        x = [Fraction(0)] * self.n
        for i, j in enumerate(self.basis):
            x[j] = self.b[i]
        return x

    def objective(self):
        return linalg.dot(self.c, self.solution())


def _ref_simplex(A, b, c, log=None):
    log = [] if log is None else log
    m = len(A)
    n = len(c)
    A = [frac_vec(row) for row in A]
    b = frac_vec(b)
    c = frac_vec(c)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    art = list(range(n, n + m))
    A1 = [row + [Fraction(int(i == k)) for k in range(m)] for i, row in enumerate(A)]
    c1 = [Fraction(0)] * n + [Fraction(1)] * m
    t = _RefTableau(A1, b, c1, list(art), log)
    t.run()
    if t.objective() != 0:
        return "infeasible", None
    for i in range(m):
        if t.basis[i] >= n:
            pc = next((j for j in range(n) if t.A[i][j] != 0), None)
            if pc is not None:
                t._pivot(i, pc)
    keep = [i for i in range(m) if t.basis[i] < n]
    log.append(("keep", tuple(keep)))
    A2 = [t.A[i][:n] for i in keep]
    b2 = [t.b[i] for i in keep]
    basis2 = [t.basis[i] for i in keep]
    t2 = _RefTableau(A2, b2, list(c), basis2, log)
    status = t2.run()
    if status == "unbounded":
        return "unbounded", None
    return "optimal", t2.solution()


def _phase_1(ref_log):
    """The reference's log up to the end of its phase 1: the kernel's
    pivots, when it stops at the same basis."""
    end = next(k for k, e in enumerate(ref_log) if e[0] != "pivot")
    return ref_log[:end + 1]


def _ref_kernel(log=None):
    """The reference at the kernel's seam: `simplex(A, b)` with zero costs."""
    return lambda A, b: _ref_simplex(A, b, [0] * len(A[0]), log)[1]


@pytest.fixture
def pivot_log(monkeypatch):
    """Log the kernel's pivots and its basis at the end of phase 1, in the
    reference's format."""
    log = []
    pivot, run = linalg._Tableau._pivot, linalg._Tableau.run

    def logged_pivot(self, pr, pc):
        log.append(("pivot", pr, pc))
        return pivot(self, pr, pc)

    def logged_run(self):
        run(self)
        log.append(("optimal", tuple(self.basis)))

    monkeypatch.setattr(linalg._Tableau, "_pivot", logged_pivot)
    monkeypatch.setattr(linalg._Tableau, "run", logged_run)
    return log


def _random_lp(rng):
    """Small integer (sometimes rational) LP; zero-heavy, often degenerate,
    sometimes with a redundant row (a combination of two others).  Half are
    feasible by construction: b = A x0 for some x0 >= 0 with zeros."""
    m = rng.randint(1, 6)
    n = rng.randint(1, 8)

    def entry():
        v = rng.choice([0, 0, 0, 1, -1, 2, -2, 3, -3])
        return Fraction(v, rng.choice([1, 1, 1, 2, 3])) if v else 0

    A = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        x0 = [rng.choice([0, 0, 1, 2]) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = [rng.choice([0, 0, 1, 2, -1, 4]) for _ in range(m)]
    if m >= 2 and rng.random() < 0.3:
        i, j = rng.sample(range(m), 2)
        k = rng.choice([1, -1, 2])
        A.append([x + k * y for x, y in zip(A[i], A[j])])
        b.append(b[i] + k * b[j])
    return A, b


def test_simplex_matches_dense_reference(pivot_log):
    rng = random.Random(2304)
    seen = {"feasible": 0, "infeasible": 0, "redundant": 0, "degenerate": 0}
    for _ in range(600):
        A, b = _random_lp(rng)
        ref_log = []
        want = _ref_kernel(ref_log)(A, b)
        pivot_log.clear()
        assert linalg.simplex(A, b) == want, (A, b)
        assert pivot_log == _phase_1(ref_log), (A, b)
        seen["infeasible" if want is None else "feasible"] += 1
        keep = next((e[1] for e in ref_log if e[0] == "keep"), None)
        if keep is not None and len(keep) < len(A):
            seen["redundant"] += 1
        if want is not None and sum(1 for x in want if x) < len(keep):
            seen["degenerate"] += 1
    assert min(seen.values()) >= 20, seen


def _wide_lp(rng):
    """LP whose integer tableau rows need denominators and gcd reductions:
    wide entries with common factors over mixed denominators, and a row k
    that agrees with s * row i on some columns and the rhs, so the ratio
    test meets equal positive ratios."""
    m = rng.randint(2, 6)
    n = rng.randint(2, 8)

    def entry():
        if rng.random() < 0.35:
            return 0
        return Fraction(rng.choice([1, -1]) * rng.randint(1, 10**4) * rng.choice([1, 6, 30]),
                        rng.choice([1, 1, 4, 9, 35]))

    A = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.6:
        x0 = [rng.choice([0, 0, 1, Fraction(1, 2), 3]) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = [entry() for _ in range(m)]
    i, k = rng.sample(range(m), 2)
    s = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    for j in rng.sample(range(n), rng.randint(1, n)):
        A[k][j] = s * A[i][j]
    b[k] = s * b[i]
    return A, b


def test_wide_rational_lps_match_dense_reference(pivot_log, monkeypatch):
    seen = {"feasible": 0, "infeasible": 0, "tie": 0, "denominator": 0, "reduced": 0}
    pivot, lowest = linalg._Tableau._pivot, linalg._lowest

    def watched_pivot(self, pr, pc):
        ratios = [Fraction(row[self.n], row[pc]) for row in self.rows[:self.m] if row[pc] > 0]
        if ratios and min(ratios) > 0 and ratios.count(min(ratios)) > 1:
            seen["tie"] += 1
        if any(d > 1 for d in self.dens):
            seen["denominator"] += 1
        return pivot(self, pr, pc)

    def watched_lowest(nums, den):
        out = lowest(nums, den)
        if out[1] != den:
            seen["reduced"] += 1
        return out

    monkeypatch.setattr(linalg._Tableau, "_pivot", watched_pivot)
    monkeypatch.setattr(linalg, "_lowest", watched_lowest)
    rng = random.Random(8128)
    for _ in range(300):
        A, b = _wide_lp(rng)
        ref_log = []
        want = _ref_kernel(ref_log)(A, b)
        pivot_log.clear()
        assert linalg.simplex(A, b) == want, (A, b)
        assert pivot_log == _phase_1(ref_log), (A, b)
        seen["infeasible" if want is None else "feasible"] += 1
    assert min(seen.values()) >= 40, seen


def test_corpus_lps_match_dense_reference(pivot_log, monkeypatch):
    """The LPs `decide_group` poses on the shared corpus, the positive
    search's window LPs and the refuter's Gordan LPs (kernels of dimension
    2 or more with no visibly positive column, negated column or column
    sum), make the reference's pivots and reach its point."""
    from corpus import no_instances, yes_instances
    from semizn.decide import Budget, decide_group

    systems = {"window": [], "gordan": []}
    solve, kernel = linalg.lp_feasible_point, linalg.simplex
    refute, refuting = linalg.strict_positive_combination, []

    def recorded(cons, num_vars):
        systems["gordan" if refuting else "window"].append((cons, num_vars))
        return solve(cons, num_vars)

    def recording_refuter(columns):
        refuting.append(columns)
        try:
            return refute(columns)
        finally:
            refuting.pop()

    monkeypatch.setattr(linalg, "lp_feasible_point", recorded)
    monkeypatch.setattr(linalg, "strict_positive_combination", recording_refuter)
    for _, gens in yes_instances(150) + no_instances(150):
        decide_group(gens, Budget())
    assert len(systems["window"]) >= 50 and len(systems["gordan"]) >= 10, systems
    for kind, posed in systems.items():
        for cons, num_vars in posed:
            pivot_log.clear()
            got = solve(cons, num_vars)
            ref_log = []
            monkeypatch.setattr(linalg, "simplex", _ref_kernel(ref_log))
            want = solve(cons, num_vars)
            monkeypatch.setattr(linalg, "simplex", kernel)
            assert got == want, (kind, cons)
            assert kind == "gordan" or got is not None, cons
            assert pivot_log == _phase_1(ref_log), (kind, cons)


def test_lp_wrappers_match_dense_reference(monkeypatch):
    rng = random.Random(77)
    feasible_cases, gordan_cases = [], []
    for _ in range(100):
        k = rng.randint(1, 4)
        cons = [([rng.randint(-3, 3) for _ in range(k)], rng.choice(["<=", ">=", "=="]),
                 rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        feasible_cases.append((cons, k))
        K = rng.randint(1, 4)
        gordan_cases.append([[rng.randint(-3, 3) for _ in range(K)]
                             for _ in range(rng.randint(1, 4))])

    def run_all():
        return ([linalg.lp_feasible_point(cons, k) for cons, k in feasible_cases],
                [linalg.strict_positive_combination(cols) for cols in gordan_cases])

    got = run_all()
    monkeypatch.setattr(linalg, "simplex", _ref_kernel())
    want = run_all()
    assert got == want
    assert any(p is None for p in got[0]) and any(p is not None for p in got[0])
    assert {s for s, _ in got[1]} == {"feasible", "infeasible"}


def test_int_and_fraction_data_pivot_alike(pivot_log, monkeypatch):
    """`lp_feasible_point` on int data (the refuter's Gordan systems over
    values that are ints where integral, and random systems) and on the
    same data as Fractions returns the same point with the same pivots, and
    the dense reference logs those pivots too."""
    rng = random.Random(3303)
    seen = {"gordan": 0, "mixed": 0, "found": 0, "none": 0}
    kernel = linalg.simplex
    for case in range(300):
        if case % 2:
            K, n = rng.randint(2, 5), rng.randint(1, 2)
            r = rng.choice(list(sample_points(n, 12)))
            pq = [(x.numerator, x.denominator) for x in r]
            cols = [[random_poly(rng, n, max_terms=3, exp=1, coef=3)._value_at(pq)
                     for _ in range(K)] for _ in range(rng.randint(1, 4))]
            cons = [([1] * K, "==", 1)] + [(col, "==", 0) for col in cols]
            cons += [([int(i == k) for k in range(K)], ">=", 0) for i in range(K)]
            seen["gordan"] += 1
            seen["mixed"] += any(type(x) is int for c in cols for x in c) and any(
                type(x) is Fraction for c in cols for x in c)
        else:
            K = rng.randint(1, 4)
            cons = [([rng.randint(-3, 3) for _ in range(K)], rng.choice(["<=", ">=", "=="]),
                     rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        as_fractions = [([Fraction(x) for x in coeffs], sense, Fraction(rhs))
                        for coeffs, sense, rhs in cons]
        pivot_log.clear()
        got = lp_feasible_point(cons, K)
        logged = list(pivot_log)
        pivot_log.clear()
        assert lp_feasible_point(as_fractions, K) == got and pivot_log == logged, cons
        ref_log = []
        monkeypatch.setattr(linalg, "simplex", _ref_kernel(ref_log))
        assert lp_feasible_point(cons, K) == got, cons
        monkeypatch.setattr(linalg, "simplex", kernel)
        assert _phase_1(ref_log) == logged, cons
        seen["none" if got is None else "found"] += 1
    assert min(seen.values()) >= 40, seen


def test_strict_positive_combination_gordan():
    # single column with a sign conflict
    status, lam = linalg.strict_positive_combination([[1, -1]])
    assert status == "infeasible"
    assert all(l >= 0 for l in lam) and any(l > 0 for l in lam)
    assert lam[0] * 1 + lam[1] * (-1) == 0
    # feasible: identity columns; the Gordan LP decides, it builds no witness
    assert linalg.strict_positive_combination([[1, 0], [0, 1]]) == ("feasible", None)


# -- reference: strict_positive_combination before the Gordan LP alone decided -
# Kept verbatim as an oracle, less its "max t" half, which only built a
# witness for the feasible side: the certificates must not move.

def ref_strict_positive_combination(columns: list[Sequence]):
    """Decide whether some real combination of `columns` is strictly positive.

    Columns are rational K-vectors.  Returns ('feasible', None), or
    ('infeasible', lam) with a Gordan certificate: lam >= 0, lam != 0, and
    sum_i lam_i * columns[j][i] = 0 for every j.
    """
    # Gordan alternative: lam >= 0, sum lam = 1, lam . col_j = 0 for all j
    K = len(columns[0]) if columns else 0
    if K == 0:
        raise ValueError("need at least one coordinate")
    cons = [([Fraction(1)] * K, "==", 1)]
    for j, col in enumerate(columns):
        cons.append((frac_vec(col), "==", 0))
    for i in range(K):
        e = [Fraction(0)] * K
        e[i] = Fraction(1)
        cons.append((e, ">=", 0))
    lam = lp_feasible_point(cons, K)
    if lam is None:
        return "feasible", None
    return "infeasible", lam


def _refuter_column_sets(rng):
    """Column sets like the ones the refuter poses, at rank 0 too:
    K 1-5 coordinates, 0-6 columns, integer or small-Fraction entries, or
    the values of random Laurent generators at refuter sample points."""
    def entry():
        v = rng.randint(-3, 3)
        return Fraction(v, rng.choice([1, 2, 3])) if rng.random() < 0.4 else v

    for case in range(420):
        K = rng.randint(1, 5)
        m = rng.randint(0, 6)
        if case % 3 < 2:
            yield [[entry() for _ in range(K)] for _ in range(m)]
            continue
        n = rng.randint(1, 2)
        gens = [[random_poly(rng, n, max_terms=3, exp=1, coef=3) for _ in range(K)]
                for _ in range(m)]
        r = rng.choice(list(sample_points(n, 12)))
        yield [[g[i].evaluate_positive(r) for i in range(K)] for g in gens]


def test_refuter_lp_matches_reference():
    rng = random.Random(4404)
    seen = {"feasible": 0, "infeasible": 0, "empty": 0, "fraction": 0}
    for cols in _refuter_column_sets(rng):
        if not cols:
            with pytest.raises(ValueError):
                ref_strict_positive_combination(cols)
            with pytest.raises(ValueError):
                linalg.strict_positive_combination(cols)
            seen["empty"] += 1
            continue
        want_status, want = ref_strict_positive_combination(cols)
        status, got = linalg.strict_positive_combination(cols)
        assert status == want_status, cols
        assert (status == "feasible") == linalg.fm_strictly_feasible(cols), cols
        assert got == want, cols
        if status == "infeasible":
            assert len(got) == len(cols[0]), cols
        seen[status] += 1
        if any(isinstance(x, Fraction) and x.denominator != 1 for c in cols for x in c):
            seen["fraction"] += 1
    assert min(seen.values()) >= 40, seen


def _kernel_column_sets(rng):
    """(columns, kernel vectors) with a prescribed kernel: K 1-5, kernel
    vectors that are nonnegative, mixed-sign with a nonzero sum, or of sum
    zero, and columns that are rational combinations of a basis of the
    kernel's orthogonal complement, zero columns among them."""
    def entry():
        v = rng.randint(-3, 3)
        return Fraction(v, rng.choice([1, 2, 3])) if rng.random() < 0.4 else v

    for case in range(600):
        K = 1 + case % 5
        kernel = []
        for _ in range(rng.choice([0, 1, 1, 1, 2, 3])):
            shape = rng.choice(["nonneg", "mixed", "sum0"])
            v = [rng.randint(0, 3) if shape == "nonneg" else rng.randint(-3, 3)
                 for _ in range(K)]
            if shape == "sum0":
                v[-1] -= sum(v)
            kernel.append(v)
        complement = ref_nullspace(kernel, K) if kernel else [
            [int(i == k) for k in range(K)] for i in range(K)]
        columns = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.15:
                columns.append([0] * K)
                continue
            coef = [entry() for _ in complement]
            columns.append([sum(c * w[k] for c, w in zip(coef, complement))
                            for k in range(K)])
        yield columns


def test_kernel_path_matches_refuter_lp():
    """Kernels of dimension 0 and 1 are decided without the LP; every
    verdict and certificate is the LP's, and each case the kernel path tells
    apart is covered: no kernel, a unique certificate, a mixed-sign vector,
    a vector of sum zero, zero columns, Fraction entries, and kernels of
    dimension 2 or more, which still go to the LP."""
    rng = random.Random(2121)
    seen = {f"K{K}": 0 for K in range(1, 6)}
    seen.update(dict.fromkeys(["dim0", "unique", "mixed", "sum0", "dim2+", "zero_column",
                               "fraction"], 0))
    for cols in _kernel_column_sets(rng):
        K = len(cols[0])
        kernel = ref_nullspace(cols, K)
        assert linalg.strict_positive_combination(cols) == ref_strict_positive_combination(cols)
        seen[f"K{K}"] += 1
        if len(kernel) == 1:
            v, total = kernel[0], sum(kernel[0])
            if not total:
                seen["sum0"] += 1
            elif all(x * total >= 0 for x in v):
                seen["unique"] += 1
            else:
                seen["mixed"] += 1
        else:
            seen["dim0" if not kernel else "dim2+"] += 1
        seen["zero_column"] += any(not any(c) for c in cols)
        seen["fraction"] += any(isinstance(x, Fraction) and x.denominator != 1
                                for c in cols for x in c)
    assert min(seen.values()) >= 30, seen


def test_visibly_positive_shortcut_matches_kernel_then_lp(monkeypatch):
    """K <= 6 and kernels of dimension 0-4: the status and the certificate
    are the reference's (the kernel path, then the LP for every kernel of
    dimension 2 or more), the status is Fourier-Motzkin's, and the LP runs
    only when no column, negated column or column sum is strictly positive.
    In a third of the sets the kernel vectors sum to zero and the first
    column is shifted along all-ones, so that shortcut is often taken."""
    calls = []
    monkeypatch.setattr(linalg, "lp_feasible_point",
                        lambda *a: calls.append(1) or lp_feasible_point(*a))
    rng = random.Random(3232)
    seen = {f"dim{d}": 0 for d in range(5)}
    seen.update(dict.fromkeys(["shortcut", "lp_feasible", "lp_infeasible"], 0))
    for case in range(500):
        K = rng.randint(1, 6)
        kernel = [[rng.randint(0 if rng.random() < 0.3 else -3, 3) for _ in range(K)]
                  for _ in range(rng.randint(0, min(K, 4)))]
        if case % 3 == 0:  # all-ones is in the complement: more visible cases
            for v in kernel:
                v[-1] -= sum(v)
        complement = ref_nullspace(kernel, K) if kernel else [
            [int(i == k) for k in range(K)] for i in range(K)]
        cols = [[sum(c * w[k] for c, w in zip(coef, complement)) for k in range(K)]
                for coef in ([rng.randint(-3, 3) for _ in complement]
                             for _ in range(rng.randint(1, 4)))]
        if case % 3 == 0:
            cols[0] = [x + 3 for x in cols[0]]
        del calls[:]
        got = linalg.strict_positive_combination(cols)
        assert got == ref_kernel_then_lp(cols), cols
        assert (got[0] == "feasible") == linalg.fm_strictly_feasible(cols), cols
        dim = len(ref_nullspace(cols, K))
        seen[f"dim{min(dim, 4)}"] += 1
        visible = any(min(v) > 0 or max(v) < 0
                      for v in [*cols, [sum(x) for x in zip(*cols)]])
        if dim >= 2:
            assert bool(calls) != visible, cols
            seen["shortcut" if visible else "lp_" + got[0]] += 1
    assert min(seen.values()) >= 15, seen


def test_gordan_agrees_with_fourier_motzkin():
    rng = random.Random(7)
    for _ in range(120):
        K = rng.randint(1, 4)
        m = rng.randint(0, 3)
        cols = [[Fraction(rng.randint(-3, 3)) for _ in range(K)] for _ in range(m)]
        if not cols:
            assert not linalg.fm_strictly_feasible(cols)
            continue
        status, _ = linalg.strict_positive_combination(cols)
        assert (status == "feasible") == linalg.fm_strictly_feasible(cols)


def _det(M):
    """Integer determinant by Laplace expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)) if M[0][j])


def _minors_gcd(A, k):
    """gcd of the k x k minors of A (0 when all vanish)."""
    g = 0
    for rows in itertools.combinations(range(len(A)), k):
        for cols in itertools.combinations(range(len(A[0])), k):
            g = gcd(g, _det([[A[i][j] for j in cols] for i in rows]))
    return g


def test_lattice_rank_and_full_against_minors():
    """Independent oracle: the rank is the largest k with a nonzero k x k
    minor, and the lattice is Z^n iff the n x n minors have gcd 1."""
    rng = random.Random(11)
    seen = {"full": 0, "index": 0, "deficient": 0}
    for _ in range(400):
        m = rng.randint(1, 5)
        n = rng.randint(1, 4)
        A = [[rng.choice([0, 0, 1, -1, 2, -2, 3, 6]) for _ in range(n)] for _ in range(m)]
        r = max((k for k in range(1, min(m, n) + 1) if _minors_gcd(A, k)), default=0)
        full = r == n and _minors_gcd(A, n) == 1
        assert linalg.lattice_rank_and_full(A, n) == (r, full), A
        seen["full" if full else "index" if r == n else "deficient"] += 1
    assert min(seen.values()) >= 40, seen


def test_lattice_rank_and_full():
    assert linalg.lattice_rank_and_full([[1, 0], [0, 1]], 2) == (2, True)
    assert linalg.lattice_rank_and_full([[2, 0], [0, 1]], 2) == (2, False)
    assert linalg.lattice_rank_and_full([[1, 1]], 2) == (1, False)
    assert linalg.lattice_rank_and_full([], 0) == (0, True)
    assert linalg.lattice_rank_and_full([[-2, 3], [2, 0], [0, -2]], 2) == (2, False)


def test_hermite_row_basis_membership():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        basis = linalg.hermite_row_basis(vecs)
        for v in vecs:
            coords = lattice_coordinates(basis, v)
            assert coords is not None
            back = [sum(c * b[i] for c, b in zip(coords, basis)) for i in range(n)]
            assert back == list(v)


def test_primitive_vector():
    assert linalg.primitive_vector([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert linalg.primitive_vector([0, 0]) == (0, 0)
    assert linalg.primitive_vector([6, -9]) == (2, -3)
