"""Exact rational linear algebra: fraction-free Gauss-Jordan elimination
(integer rows, each kept primitive, read off as the unique reduced row
echelon form), a feasibility kernel that is phase 1 of the simplex and
nothing else (Dantzig's most-negative-reduced-cost rule for the first 500
pivots, then Bland's rule) behind one front end for LPs over free
variables, Fourier-Motzkin elimination, and the Hermite basis of an integer
lattice, which also gives its rank and whether it is all of Z^n.
Every LP here asks only for a point, never for an optimum: a feasible
system's point is the vertex at which phase 1 stops.
Everything runs on Fractions / ints; no floats.  The simplex tableau is
fraction-free: each row is a list of integers over one positive denominator,
and only the final vertex is built as Fractions.  Its pivot sequence is part
of the output contract, because the final vertex is.

Strict positivity of a combination of columns is decided by the Gordan
alternative, which yields the dual certificate on a NO: read off the kernel
of the columns when that kernel has dimension at most 1 (the certificate
is then unique or absent), and found by one exact LP otherwise.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from semizn.groebner import check_deadline

Vec = list
Mat = list


def dot(a: Sequence, b: Sequence):
    """Exact dot product of int / Fraction vectors: an int for two integer
    vectors, else a Fraction."""
    return sum(x * y for x, y in zip(a, b))


def _int_row(values: Sequence) -> tuple[list[int], int]:
    """(nums, den) with nums[k] / den == values[k], den > 0, in lowest terms."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def primitive_vector(v: Sequence) -> tuple[int, ...]:
    """Scale an int / Fraction vector to coprime integers, preserving
    direction."""
    nums, _ = _int_row(v)
    g = gcd(*nums) or 1
    return tuple(x // g for x in nums)


# ---------------------------------------------------------------------------
# Gaussian elimination over Q, fraction-free
# ---------------------------------------------------------------------------

def _echelon(rows: Mat, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of the int / Fraction `rows`
    over their first `ncols` columns (later columns are carried along).

    Each row is scaled to integers; a pivot row is kept primitive with a
    positive pivot, and each other row r with a nonzero entry f in the pivot
    column becomes the primitive part of p * r - f * pivot row.  Scaling a
    row changes neither its row space nor its zeros, so row k / (its pivot)
    is row k of the reduced row echelon form, which is unique.  Returns the
    integer rows, pivot rows first, and the pivot column of each."""
    a = [_int_row(r)[0] for r in rows]
    m = len(a)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            a[r] = prow = [x // g for x in prow]
        p = prow[c]
        for i in range(m):
            f = a[i][c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(a[i], prow)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return a, pivots


def nullspace(rows: Mat, n: int) -> list[list[Fraction]]:
    """Basis of {x : rows * x = 0} over Q, read off the reduced row echelon
    form (one vector per free column fc, with x_fc = 1 and the other free
    coordinates 0) with one division per entry; the same Fractions as
    Gauss-Jordan elimination over Q."""
    a, pivots = _echelon(rows, n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(a, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def rank(rows: Mat, n: int) -> int:
    return len(_echelon(rows, n)[1])


# ---------------------------------------------------------------------------
# Phase-1 simplex (exact, fraction-free; Dantzig's rule, then Bland's)
# ---------------------------------------------------------------------------

def _lowest(nums: list[int], den: int) -> tuple[list[int], int]:
    """The row nums / den with its common factor cancelled."""
    g = gcd(den, *nums)
    return ([x // g for x in nums], den // g) if g > 1 else (nums, den)


class _Tableau:
    """Phase 1 for A x = b, x >= 0, with b >= 0: minimise the sum of one
    artificial variable per row (the last m columns), kept in canonical
    form over `basis` (the basis columns form an identity), starting from
    the artificials.

    Row i of [A | I | b] is the integer row `rows[i]` over its positive
    denominator `dens[i]`, in lowest terms; the reduced costs of that sum,
    with minus the sum in the rhs slot, are one more such row, `rows[m]`
    over `dens[m]`, updated by the same elimination.  Each row holds exactly
    the rational values of a Fraction tableau, so comparisons of numerators
    within a row and cross-multiplied ratios give the same pivots.  A pivot
    touches only the rows with a nonzero pivot-column entry.

    The pivot sequence is part of the output contract: dual certificates
    and window-LP points are the final vertex, so a change to the entering
    rule, the ratio test or its tie-break changes the verdict JSON."""

    def __init__(self, rows: Mat, dens: list[int]):
        self.m = len(rows)
        self.n = len(rows[0]) - 1
        self.basis = list(range(self.n - self.m, self.n))
        self.rows, self.dens = rows, dens
        # z = (0 | 1 | 0) - sum_i rows[i] / dens[i], over one denominator;
        # each artificial's cost cancels its own identity column
        den = lcm(*dens)
        scale = [den // d for d in dens]
        z = [-sum(s * x for s, x in zip(scale, col)) for col in zip(*rows)]
        z[self.n - self.m:self.n] = [0] * self.m
        z, den = _lowest(z, den)
        rows.append(z)
        dens.append(den)

    def _pivot(self, pr: int, pc: int):
        rows, dens = self.rows, self.dens
        prow, p = rows[pr], rows[pr][pc]
        prow, p = _lowest(prow if p > 0 else [-x for x in prow], abs(p))
        rows[pr], dens[pr] = prow, p
        nz = [(j, x) for j, x in enumerate(prow) if x]
        for i, row in enumerate(rows):
            f = row[pc]
            if f and i != pr:
                if p != 1:
                    row = [x * p for x in row]
                for j, x in nz:
                    row[j] -= f * x
                rows[i], dens[i] = _lowest(row, dens[i] * p)
        self.basis[pr] = pc

    def run(self):
        """Pivots to an optimal basis of phase 1.

        Entering variable: most negative reduced cost (lowest index among
        ties) for the first 500 pivots, which is fast in practice, then
        Bland's smallest-index rule, which guarantees termination; the
        switchover point is fixed, so runs stay deterministic.  Leaving row:
        least ratio b_i / A[i][pc] over A[i][pc] > 0, ties to the lowest
        basic variable index; phase 1 is bounded below by 0, so such a row
        exists.  The cost row's denominator is positive and a row's
        denominator cancels in its ratio, so both rules read numerators
        only.  The deadline is checked before each pivot."""
        n, m = self.n, self.m
        rows, basis = self.rows, self.basis
        pivots = 0
        while True:
            z = rows[m]
            if pivots < 500:
                pc = min(range(n), key=z.__getitem__)
                if z[pc] >= 0:
                    return
            else:
                pc = next((j for j in range(n) if z[j] < 0), None)
                if pc is None:
                    return
            best = None
            for i in range(m):
                a = rows[i][pc]
                if a > 0:  # rb / ab is the best ratio so far
                    r = rows[i][n]
                    if best is None or (r * ab, basis[i]) < (rb * a, basis[best]):
                        best, rb, ab = i, r, a
            check_deadline()
            self._pivot(best, pc)
            pivots += 1


def simplex(A: Mat, b: Vec):
    """A point x >= 0 with A x = b, over int / Fraction data with at least
    one row, or None when there is none.

    Phase 1 alone: A x = b is feasible iff the least sum of the artificials
    is 0, and then x is the vertex of phase 1's final basis (an artificial
    still basic there is at level 0).  The tableau is fraction-free, and
    only x is built as Fractions."""
    m, n = len(A), len(A[0])
    rows, dens = [], []
    for i, (row, rhs) in enumerate(zip(A, b)):
        nums, den = _int_row(list(row) + [rhs])
        if nums[-1] < 0:
            nums = [-x for x in nums]
        art = [0] * m
        art[i] = den
        rows.append(nums[:n] + art + nums[n:])
        dens.append(den)
    t = _Tableau(rows, dens)
    t.run()
    if rows[m][-1]:  # minus the artificials' least sum
        return None
    x = [Fraction(0)] * n
    for j, row, d in zip(t.basis, rows, dens):
        if j < n:
            x[j] = Fraction(row[-1], d)
    return x


def lp_feasible_point(constraints, num_vars: int):
    """Feasible point of a system over free rational variables, or None.

    `constraints` is a list of (coeffs, sense, rhs) with sense in
    {'<=', '>=', '=='} and int / Fraction data.  Each free variable is split
    into positive parts x = x+ - x-, each '<=' or '>=' row gets its own
    slack column, and `simplex` finds a point."""
    if not constraints:
        return [Fraction(0)] * num_vars
    slack = {"<=": 1, ">=": -1, "==": 0}
    for _, sense, _ in constraints:
        if sense not in slack:
            raise ValueError(f"bad sense {sense!r}")
    slacked = [i for i, (_, sense, _) in enumerate(constraints) if slack[sense]]
    A = [[x for c in coeffs for x in (c, -c)] + [slack[sense] * (i == k) for k in slacked]
         for i, (coeffs, sense, _) in enumerate(constraints)]
    x = simplex(A, [rhs for _, _, rhs in constraints])
    if x is None:
        return None
    return [x[2 * j] - x[2 * j + 1] for j in range(num_vars)]


# ---------------------------------------------------------------------------
# Strict positive combinations (Gordan pair), plus an independent checker
# ---------------------------------------------------------------------------

def strict_positive_combination(columns: list[Sequence]):
    """Decide whether some real combination of `columns` is strictly positive.

    Columns are rational K-vectors.  By Gordan's alternative exactly one of
    two things holds: some combination is strictly positive, or some lam >= 0,
    lam != 0 annihilates every column.  Returns ('infeasible', lam) with that
    certificate (lam >= 0, sum lam = 1, sum_i lam_i * columns[j][i] = 0 for
    every j), or ('feasible', None).

    The certificates are the points of the kernel of the columns (taken as
    rows) on the simplex sum lam = 1, lam >= 0.  A kernel of dimension 0 has
    none.  A kernel spanned by one vector v has at most one, v / sum v, when
    sum v != 0 and v / sum v >= 0.  A kernel of dimension 2 or more is
    feasible outright when a column or the column sum, or its negation, is
    strictly positive (that vector is the primal witness); otherwise one
    exact LP finds a vertex of that set.  A unique point is the LP's vertex
    as well, so the certificate is the same either way.
    """
    if not columns:
        raise ValueError("need at least one column")
    K = len(columns[0])
    kernel = nullspace(columns, K)
    if len(kernel) < 2:
        if kernel:
            total = sum(kernel[0])
            if total and all(x * total >= 0 for x in kernel[0]):
                return "infeasible", [x / total for x in kernel[0]]
        return "feasible", None
    if any(min(v) > 0 or max(v) < 0 for v in [*columns, list(map(sum, zip(*columns)))]):
        return "feasible", None
    # Gordan alternative: lam >= 0, sum lam = 1, lam . col_j = 0 for all j
    cons = [([1] * K, "==", 1)]
    cons += [(col, "==", 0) for col in columns]
    cons += [([int(i == k) for k in range(K)], ">=", 0) for i in range(K)]
    lam = lp_feasible_point(cons, K)
    if lam is None:
        return "feasible", None
    return "infeasible", lam


def fm_strictly_feasible(columns: list[Sequence]) -> bool:
    """Fourier-Motzkin decision of the same system as
    strict_positive_combination; independent of the simplex path.  The rows
    are primitive integer vectors, and so are their combinations."""
    if not columns:
        return False
    K = len(columns[0])
    m = len(columns)
    rows = {primitive_vector([col[i] for col in columns]) for i in range(K)}
    for var in range(m):
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        zero = [r for r in rows if r[var] == 0]
        if pos and neg:
            new = set(zero)
            for p in pos:
                for q in neg:
                    comb = [pc * -q[var] + qc * p[var] for pc, qc in zip(p, q)]
                    g = gcd(*comb) or 1
                    new.add(tuple(x // g for x in comb))
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

