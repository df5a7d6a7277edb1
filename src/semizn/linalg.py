"""Exact rational linear algebra: Gauss-Jordan elimination, a two-phase
simplex (Dantzig's most-negative-reduced-cost rule for the first 500 pivots
of a phase, then Bland's rule) behind one front end for LPs over free
variables, Fourier-Motzkin elimination, and the Hermite basis of an integer
lattice, which also gives its rank and whether it is all of Z^n.
Everything runs on Fractions / ints; no floats.

Strict positivity of a combination of columns is decided by one LP, the
Gordan alternative, which yields the dual certificate on a NO.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Vec = list
Mat = list


def frac_vec(v: Iterable) -> list[Fraction]:
    return [Fraction(x) for x in v]


def dot(a: Sequence, b: Sequence):
    """Exact dot product of int / Fraction vectors: an int for two integer
    vectors, else a Fraction."""
    return sum(x * y for x, y in zip(a, b))


def primitive_vector(v: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving direction."""
    fracs = frac_vec(v)
    if all(x == 0 for x in fracs):
        return tuple(0 for _ in fracs)
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# Gaussian elimination over Q
# ---------------------------------------------------------------------------

def _gauss_jordan(a: Mat, ncols: int) -> list[int]:
    """Reduce the Fraction rows `a` in place to reduced row echelon form over
    their first `ncols` columns (later columns are carried along); returns
    the pivot column of each leading row."""
    m = len(a)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
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
        pivots.append(c)
    return pivots


def solve_linear(rows: Mat, rhs: Vec):
    """One exact solution of rows * x = rhs, or None if inconsistent."""
    n = len(rows[0]) if rows else 0
    aug = [frac_vec(r) + [Fraction(v)] for r, v in zip(rows, rhs)]
    pivots = _gauss_jordan(aug, n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(aug, pivots):
        x[c] = row[n]
    return x


def nullspace(rows: Mat, n: int) -> list[list[Fraction]]:
    """Basis of {x : rows * x = 0} over Q."""
    a = [frac_vec(r) for r in rows]
    pivots = _gauss_jordan(a, n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(a, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def rank(rows: Mat, n: int) -> int:
    return n - len(nullspace(rows, n)) if rows else 0


# ---------------------------------------------------------------------------
# Simplex (exact; Dantzig's rule, then Bland's)
# ---------------------------------------------------------------------------

class _Tableau:
    """min c.x  s.t.  A x = b, x >= 0, with b >= 0, kept in canonical form
    over `basis` (the basis columns form an identity).

    `rows[i]` is row i of [A | b]; the reduced costs c - c_B A, with -c_B.b
    in the rhs slot, are one more row, `rows[m]`, updated by the same
    elimination.  Entries are Fractions, or int 0.  A pivot touches only the
    rows with a nonzero pivot-column entry, and in them only the pivot row's
    nonzero columns.

    The pivot sequence is part of the output contract: dual certificates
    and window-LP points are the final vertex, so a change to the entering
    rule, the ratio test or its tie-break changes the verdict JSON."""

    def __init__(self, rows: Mat, c: Vec, basis: list[int]):
        self.m = len(rows)
        self.n = len(c)
        self.basis = basis
        self.rows = rows
        z = list(c) + [Fraction(0)]
        for j, row in zip(basis, rows):
            q = c[j]
            if q:
                for k, x in enumerate(row):
                    if x:
                        z[k] -= q * x
        rows.append(z)

    def _pivot(self, pr: int, pc: int):
        prow = self.rows[pr]
        pv = prow[pc]
        nz = [j for j, x in enumerate(prow) if x]
        for j in nz:
            prow[j] /= pv
        for i, row in enumerate(self.rows):
            f = row[pc]
            if f and i != pr:
                for j in nz:
                    row[j] -= f * prow[j]
        self.basis[pr] = pc

    def run(self):
        """Returns 'optimal' or 'unbounded'; tableau left at the final basis.

        Entering variable: most negative reduced cost (lowest index among
        ties) for the first 500 pivots, which is fast in practice, then
        Bland's smallest-index rule, which guarantees termination; the
        switchover point is fixed, so runs stay deterministic.  Leaving row:
        least ratio b_i / A[i][pc] over A[i][pc] > 0, ties to the lowest
        basic variable index."""
        n, m = self.n, self.m
        rows, basis = self.rows, self.basis
        z = rows[m]
        pivots = 0
        while True:
            if pivots < 500:
                pc = min(range(n), key=z.__getitem__, default=None)
                if pc is not None and z[pc] >= 0:
                    pc = None
            else:
                pc = next((j for j in range(n) if z[j] < 0), None)
            if pc is None:
                return "optimal"
            best = None
            for i in range(m):
                a = rows[i][pc]
                if a > 0:
                    key = (rows[i][n] / a, basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return "unbounded"
            self._pivot(best[1], pc)
            pivots += 1

    def solution(self):
        x = [Fraction(0)] * self.n
        for j, row in zip(self.basis, self.rows):
            x[j] = row[self.n]
        return x

    def objective(self):
        return -self.rows[self.m][self.n]


def simplex(A: Mat, b: Vec, c: Vec):
    """min c.x s.t. A x = b, x >= 0.  Returns (status, x) with status in
    {'optimal', 'infeasible', 'unbounded'}.

    Phase 1 starts from one artificial variable per row; artificials left
    basic at level zero are pivoted out where a structural column allows,
    and their rows, which are then redundant, are dropped for phase 2."""
    m = len(A)
    n = len(c)
    rows = []
    for i, (row, rhs) in enumerate(zip(A, frac_vec(b))):
        sign = -1 if rhs < 0 else 1
        art = [0] * m
        art[i] = Fraction(1)
        rows.append([Fraction(sign * x) if x else 0 for x in row] + art + [sign * rhs])
    # phase 1
    c1 = [Fraction(0)] * n + [Fraction(1)] * m
    t = _Tableau(rows, c1, list(range(n, n + m)))
    t.run()
    if t.objective() != 0:
        return "infeasible", None
    # drive artificials out of the basis where possible
    for i in range(m):
        if t.basis[i] >= n:
            pc = next((j for j in range(n) if rows[i][j] != 0), None)
            if pc is not None:
                t._pivot(i, pc)
    keep = [i for i in range(m) if t.basis[i] < n]  # rows with artificial basis are redundant
    t2 = _Tableau([rows[i][:n] + rows[i][-1:] for i in keep], frac_vec(c),
                  [t.basis[i] for i in keep])
    status = t2.run()
    if status == "unbounded":
        return "unbounded", None
    return "optimal", t2.solution()


def lp_feasible_point(constraints, num_vars: int):
    """Feasible point of a system over free rational variables, or None.

    `constraints` is a list of (coeffs, sense, rhs) with sense in
    {'<=', '>=', '=='}.  Each free variable is split into positive parts
    x = x+ - x-, each constraint gets one slack column (zero for '=='), and
    `simplex` runs with a zero objective."""
    if not constraints:
        return [Fraction(0)] * num_vars
    m = len(constraints)
    A, b = [], []
    for idx, (coeffs, sense, rhs) in enumerate(constraints):
        row = [x for c in frac_vec(coeffs) for x in (c, -c)]
        srow = [Fraction(0)] * m
        if sense == "<=":
            srow[idx] = Fraction(1)
        elif sense == ">=":
            srow[idx] = Fraction(-1)
        elif sense != "==":
            raise ValueError(f"bad sense {sense!r}")
        A.append(row + srow)
        b.append(Fraction(rhs))
    status, x = simplex(A, b, [Fraction(0)] * (2 * num_vars + m))
    if status != "optimal":
        return None
    return [x[2 * j] - x[2 * j + 1] for j in range(num_vars)]


# ---------------------------------------------------------------------------
# Strict positive combinations (Gordan pair), plus an independent checker
# ---------------------------------------------------------------------------

def strict_positive_combination(columns: list[Sequence]):
    """Decide whether some real combination of `columns` is strictly positive.

    Columns are rational K-vectors.  By Gordan's alternative exactly one of
    two things holds: some combination is strictly positive, or some lam >= 0,
    lam != 0 annihilates every column.  One exact LP decides which: the
    second system, solved for lam.  Returns ('infeasible', lam) with that
    certificate (lam >= 0, sum lam = 1, sum_i lam_i * columns[j][i] = 0 for
    every j), or ('feasible', None).
    """
    if not columns:
        raise ValueError("need at least one column")
    K = len(columns[0])
    # Gordan alternative: lam >= 0, sum lam = 1, lam . col_j = 0 for all j
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


def fm_strictly_feasible(columns: list[Sequence]) -> bool:
    """Fourier-Motzkin decision of the same system as
    strict_positive_combination; independent of the simplex path."""
    if not columns:
        return False
    K = len(columns[0])
    m = len(columns)
    rows = []
    for i in range(K):
        rows.append(tuple(Fraction(columns[j][i]) for j in range(m)))
    rows = {primitive_vector(r) for r in rows}
    for var in range(m):
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        zero = [r for r in rows if r[var] == 0]
        if pos and neg:
            new = set(zero)
            for p in pos:
                for q in neg:
                    comb = tuple(
                        Fraction(pc) * -q[var] + Fraction(qc) * p[var]
                        for pc, qc in zip(p, q)
                    )
                    new.add(primitive_vector(comb))
            rows = new
        else:
            rows = set(zero)  # one-signed rows satisfied by pushing x_var
    return not any(all(x == 0 for x in r) for r in rows)


# ---------------------------------------------------------------------------
# Integer lattices
# ---------------------------------------------------------------------------

def lattice_rank_and_full(vectors: list[Sequence[int]], n: int):
    """Rank of the lattice generated by `vectors` in Z^n, and whether it is
    all of Z^n: its Hermite basis is triangular with positive pivots, so the
    lattice is Z^n iff there are n rows and every pivot is 1.  Returns
    (rank, is_full)."""
    if n == 0:
        return 0, True
    basis = hermite_row_basis(vectors)
    full = len(basis) == n and all(row[i] == 1 for i, row in enumerate(basis))
    return len(basis), full


def hermite_row_basis(vectors: list[Sequence[int]]) -> list[list[int]]:
    """Basis of the row lattice of `vectors` (integer row echelon form)."""
    rows = [list(map(int, v)) for v in vectors if any(v)]
    if not rows:
        return []
    n = len(rows[0])
    basis = []
    col = 0
    while col < n and rows:
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            reduced = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                nr = [a - q * b for a, b in zip(r, p)]
                if nr[col] != 0:
                    reduced.append(nr)
                elif any(nr):
                    rest.append(nr)
            live = reduced
        pivot = live[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        rows = [r for r in rest if any(r)]
        col += 1
    # reduce entries above pivots for determinism
    for i in range(len(basis) - 1, -1, -1):
        pc = next(j for j in range(n) if basis[i][j] != 0)
        for k in range(i):
            q = basis[k][pc] // basis[i][pc]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return basis


def lattice_coordinates(basis_rows: list[Sequence[int]], target: Sequence[int]):
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
