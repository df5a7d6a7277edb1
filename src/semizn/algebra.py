"""Finitely presented modules over the integer Laurent ring.

A presentation is a quotient M/N of submodules of the free module of rank d
over Z[X_1^±, ..., X_n^±].  Elements are coset representatives in the free
module.  Laurent problems are reduced to polynomial ones by clearing
denominator monomials (units, harmless for membership and syzygies) and, for
membership only, saturating with respect to the product of the variables via
a fresh eliminated variable; syzygy modules localize as-is.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub
from typing import Optional, Sequence

from semizn import groebner
from semizn.laurent import LaurentPoly

PolyVec = list  # list[LaurentPoly]


# ---------------------------------------------------------------------------
# Raw <-> Laurent conversion and clearing
# ---------------------------------------------------------------------------

def clear_vector(vec: Sequence[LaurentPoly], n: int):
    """Shift a Laurent vector by a monomial unit to nonnegative exponents.

    Returns (raw dict over (pos, mono), shift) with cleared = X^shift * vec.
    A restricted vector has an entry per coset, so past the deadline it
    raises DeadlineExceeded, checked every 1,024 entries.
    """
    mins = [0] * n
    for pos, p in enumerate(vec):
        if pos & 1023 == 1023:
            groebner.check_deadline()
        for e in p.terms:
            for i, v in enumerate(e):
                mins[i] = min(mins[i], v)
    shift = tuple(-m for m in mins)
    raw = {}
    for pos, p in enumerate(vec):
        if pos & 1023 == 1023:
            groebner.check_deadline()
        for e, c in p.terms.items():
            raw[(pos, tuple(a + b for a, b in zip(e, shift)))] = c
    return raw, shift


def decode(raw: dict, shifts, k: int, n: int) -> list[LaurentPoly]:
    """The Laurent k-vector in n variables of a (position, exponent tuple)
    dict with nonzero int coefficients, as the Groebner engine returns it,
    in unit-normal form: the terms at positions < k, each exponent plus its
    position's shift and cut to the shift's length n; then one shift to
    componentwise minimum exponent zero over the whole vector, and one sign
    that makes the leading coefficient (by total degree, then exponent) of
    the first nonzero entry positive.  An all-zero vector comes back as
    zeros.  Each entry keeps the term order of `raw`."""
    polys = [{} for _ in range(k)]
    for (pos, mono), c in raw.items():
        if pos < k:
            polys[pos][tuple(map(add, mono, shifts[pos]))] = c
    lead = next((t for t in polys if t), None)
    if lead is not None:
        low = tuple(map(min, zip(*(e for t in polys for e in t))))
        sign = -1 if lead[max(lead, key=lambda e: (sum(e), e))] < 0 else 1
        polys = [{tuple(map(sub, e, low)): sign * c for e, c in t.items()} for t in polys]
    return [LaurentPoly._trusted(n, t) for t in polys]


# ---------------------------------------------------------------------------
# Submodules of the free Laurent module
# ---------------------------------------------------------------------------

class LaurentSubmodule:
    """Submodule of Z[X^±]^d given by generators; supports exact membership
    via a saturated strong Groebner basis (computed lazily, cached)."""

    def __init__(self, d: int, n: int, generators: Sequence[Sequence[LaurentPoly]]):
        self.d = d
        self.n = n
        self.generators = [list(g) for g in generators]
        for g in self.generators:
            if len(g) != d:
                raise ValueError("generator has wrong rank")
        self._basis = None
        self._order = None

    def _membership_basis(self):
        if self._basis is None:
            cols = [clear_vector(g, self.n)[0] for g in self.generators]
            cols = [c for c in cols if c]
            basis, order = groebner.saturated_basis(cols, self.d, self.n)
            self._basis = basis
            self._order = order
        return self._basis, self._order

    def contains(self, vec: Sequence[LaurentPoly]) -> bool:
        raw, _ = clear_vector(vec, self.n)
        if not raw:
            return True
        basis, order = self._membership_basis()
        return not groebner.remainder(raw, basis, order)


def laurent_syzygies(columns: Sequence[Sequence[LaurentPoly]], p: int,
                     n: int) -> list[list[LaurentPoly]]:
    """Generators of the syzygy module {h : sum_i h_i * columns[i] = 0} over
    the Laurent ring.

    Columns are cleared to polynomials per column (a unit multiple), the
    polynomial syzygies are computed, and the clearing is undone on the
    result; localization flatness makes the polynomial generators generate
    the Laurent syzygy module.
    """
    return _syzygies(columns, p, n, len(columns))


def _syzygies(columns, p: int, n: int, k: int) -> list[list[LaurentPoly]]:
    """`laurent_syzygies` cut to their first k coordinates, each by one
    `decode` with the columns' clearing shifts: a unit multiple of the whole
    vector cuts to a unit multiple of the cut, so this is the unit-normal
    form of the cut vector.  The tests keep the composition it replaces
    (the raw vector, the shifts, unit-normal form of the whole vector, then
    of its cut) as references.  An all-zero cut comes back as zeros.

    At most p columns independent over Q(X) have no nonzero syzygy, and
    return [] with no Groebner run once `_independent_mod_prime` sees it: k
    dependent columns have every k x k minor zero as a polynomial, so zero at
    any point and mod any prime.  A miss falls through to the Groebner run,
    so no output depends on the point or the prime."""
    cleared = []
    shifts = []
    for col in columns:
        raw, shift = clear_vector(col, n)
        cleared.append(raw)
        shifts.append(shift)
    if len(cleared) <= p and _independent_mod_prime(cleared, p, n):
        groebner.check_deadline()
        return []
    out = []
    for s in groebner.syzygy_generators(cleared, p, n):
        groebner.check_deadline()
        out.append(decode(s, shifts, k, n))
    return out


# 2^61 - 2373, a safe prime: each residue but +-1 has order (P - 1) / 2 or
# P - 1 (under 2^61 - 1, 2 has order 61).
_RANK_PRIME = 2305843009213691579


def _independent_mod_prime(cleared: list[dict], p: int, n: int) -> bool:
    """Whether the cleared columns have full column rank evaluated at X =
    (2, 3, 5, ...), the first n primes, mod _RANK_PRIME (`pow` keeps an
    exponent like 2^70 cheap).  Distinct primes are multiplicatively
    independent, so no X^a - 1 with a != 0 vanishes there over Q."""
    point = []
    q = 2
    while len(point) < n:
        if all(q % r for r in point):
            point.append(q)
        q += 1
    rows = []
    for col in cleared:
        groebner.check_deadline()  # each column and each elimination step is O(p)
        row = [0] * p
        for (pos, mono), c in col.items():
            for x, e in zip(point, mono):
                c = c * pow(x, e, _RANK_PRIME) % _RANK_PRIME
            row[pos] += c
        rows.append([v % _RANK_PRIME for v in row])
    for i, row in enumerate(rows):
        pc = next((j for j, v in enumerate(row) if v), None)
        if pc is None:
            return False
        inv = pow(row[pc], -1, _RANK_PRIME)
        for other in rows[i + 1:]:
            groebner.check_deadline()
            f = other[pc] * inv % _RANK_PRIME
            if f:
                other[:] = [(a - f * b) % _RANK_PRIME for a, b in zip(other, row)]
    return True


# ---------------------------------------------------------------------------
# Presentations and elements
# ---------------------------------------------------------------------------

@dataclass
class ModulePresentation:
    """Y = M/N over Z[X_1^±..X_n^±]; gens_M defaults to the standard basis."""

    n: int
    d: int
    rels_N: list = field(default_factory=list)
    gens_M: Optional[list] = None

    def __post_init__(self):
        for r in self.rels_N:
            if len(r) != self.d:
                raise ValueError("relation vector has wrong rank")
        if self.gens_M is not None:
            for g in self.gens_M:
                if len(g) != self.d:
                    raise ValueError("gens_M vector has wrong rank")
        self._N = LaurentSubmodule(self.d, self.n, self.rels_N)

    def zero_vector(self) -> list[LaurentPoly]:
        return [LaurentPoly.zero(self.n) for _ in range(self.d)]

    def is_zero(self, rep: Sequence[LaurentPoly]) -> bool:
        """rep lies in N, i.e. represents 0 in Y.  The deadline bounds the
        saturation that builds N's membership basis, on first use."""
        return self._N.contains(rep)

    def element(self, rep: Sequence[LaurentPoly]) -> "ModuleElement":
        return ModuleElement(self, list(rep))

    def validate_strict(self, extra_vectors: Sequence[Sequence[LaurentPoly]] = ()):
        """Check rels_N (and any extra vectors) lie in span(gens_M).

        Costs a Groebner run; the CLI runs it whenever gens_M is given.
        """
        if self.gens_M is None:
            return  # M is the full free module
        M = LaurentSubmodule(self.d, self.n, self.gens_M)
        for r in list(self.rels_N) + [list(v) for v in extra_vectors]:
            if not M.contains(r):
                raise ValueError("vector outside span(gens_M)")


class ModuleElement:
    """Coset representative in the free module of rank d."""

    __slots__ = ("presentation", "rep")

    def __init__(self, presentation: ModulePresentation, rep: Sequence[LaurentPoly]):
        if len(rep) != presentation.d:
            raise ValueError("representative has wrong rank")
        self.presentation = presentation
        self.rep = tuple(rep)

    def is_zero(self) -> bool:
        return self.presentation.is_zero(list(self.rep))


# ---------------------------------------------------------------------------
# The relation module of a generating set (symmetry + neutrality equations)
# ---------------------------------------------------------------------------

@dataclass
class SyzygyBasis:
    """Generators of the module of K-vectors f with
    sum_i f_i (X^{a_i} - 1) = 0 and sum_i f_i y_i = 0 in Y."""

    generators: list  # list[list[LaurentPoly]], each of length K
    K: int
    n: int


def stacked_columns(presentation: ModulePresentation, ys: Sequence[Sequence[LaurentPoly]],
                    steps: Sequence[Sequence[int]]):
    """Columns of the combined system from the appendix reduction: for each
    generator the vector (y_i stacked over X^{a_i} - 1), and for each module
    relation the vector (-n_j stacked over 0).  The steps are n-vectors of
    ints, so X^{a_i} - 1 is built from its two terms."""
    n, d = presentation.n, presentation.d
    zero = (0,) * n
    cols = []
    for y, a in zip(ys, steps):
        groebner.check_deadline()  # a restricted column has d + 1 entries per coset
        a = tuple(map(int, a))
        sym = LaurentPoly._trusted(n, {a: 1, zero: -1} if a != zero else {})
        cols.append(list(y) + [sym])
    for rel in presentation.rels_N:
        groebner.check_deadline()
        cols.append([-r for r in rel] + [LaurentPoly._trusted(n, {})])
    return cols, d + 1


def syzygy_basis(presentation: ModulePresentation, ys, steps) -> SyzygyBasis:
    """Finite generating set of the relation module, via syzygies of the
    stacked system projected to the first K coordinates."""
    K = len(ys)
    cols, p = stacked_columns(presentation, ys, steps)
    gens = []
    seen = set()
    for f in _syzygies(cols, p, presentation.n, K):
        if all(q.is_zero() for q in f):
            continue
        key = tuple(frozenset(q.terms.items()) for q in f)
        if key not in seen:
            seen.add(key)
            gens.append(f)
    return SyzygyBasis(generators=gens, K=K, n=presentation.n)


def residual(f: Sequence[LaurentPoly], presentation: ModulePresentation, ys, steps):
    """(symmetry residual, neutrality residual) of a candidate K-vector;
    f is in the relation module iff the first is zero and the second is zero
    in Y."""
    n = presentation.n
    sym = LaurentPoly.zero(n)
    neu = presentation.zero_vector()
    for fi, y, a in zip(f, ys, steps):
        if n:
            sym = sym + fi.shift(a) - fi
        for j in range(presentation.d):
            neu[j] = neu[j] + fi * y[j]
    return sym, presentation.element(neu)
