import contextlib
import itertools
import math
import random
import signal
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from semizn import linalg
from semizn.algebra import ModulePresentation, clear_vector, syzygy_basis
from semizn.decide import Budget, Verdict, decide_subset
from semizn.groebner import check_deadline, deadline_scope, saturated_basis
from semizn.group import GeneratorSet, GroupElement, evaluate_word
from semizn.laurent import LaurentPoly
from semizn.linalg import _echelon, lp_feasible_point, nullspace


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


@contextlib.contextmanager
def fails_after(seconds: float):
    """Raise AssertionError in the block once `seconds` of wall time have
    passed, so a run that ignores its own deadline fails instead of
    hanging the suite."""
    def stop(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


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


def check_one_signed(steps, subset, cert) -> bool:
    """Whether `cert` is the sign certificate of the subset (1-based
    indices), read off the instance's steps alone: {"coordinate": t,
    "sign": s} with s = 1 or -1, s * a_{i,t} >= 0 for every step a_i of the
    subset and > 0 for one, and t the first coordinate where either sign
    has that.  Such a subset generates no group: the t-images of its
    elements form a one-signed semigroup of Z with a nonzero element."""
    n = len(steps[0])

    def holds(t, s):
        values = [s * steps[i - 1][t] for i in subset]
        return min(values) >= 0 and max(values) > 0

    if set(cert) != {"coordinate", "sign"}:
        return False
    t, s = cert["coordinate"], cert["sign"]
    if type(t) is not int or type(s) is not int or not 0 <= t < n or s not in (1, -1):
        return False
    return holds(t, s) and not any(holds(u, z) for u in range(t) for z in (1, -1))


# -- reference: the refuter's Gordan decision without the positive shortcut --
# `linalg.strict_positive_combination` before it settled a visibly positive
# column, negated column or column sum without the LP, verbatim but for its
# name.

def ref_kernel_then_lp(columns: list[Sequence]):
    """Decide whether some real combination of `columns` is strictly positive.

    Columns are rational K-vectors.  By Gordan's alternative exactly one of
    two things holds: some combination is strictly positive, or some lam >= 0,
    lam != 0 annihilates every column.  Returns ('infeasible', lam) with that
    certificate (lam >= 0, sum lam = 1, sum_i lam_i * columns[j][i] = 0 for
    every j), or ('feasible', None).

    The certificates are the points of the kernel of the columns (taken as
    rows) on the simplex sum lam = 1, lam >= 0.  A kernel of dimension 0 has
    none.  A kernel spanned by one vector v has at most one, v / sum v, when
    sum v != 0 and v / sum v >= 0.  Only a kernel of dimension 2 or more
    goes to one exact LP, which finds a vertex of that set; a unique point
    is the LP's vertex as well, so the certificate is the same either way.
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
    # Gordan alternative: lam >= 0, sum lam = 1, lam . col_j = 0 for all j
    cons = [([1] * K, "==", 1)]
    cons += [(col, "==", 0) for col in columns]
    cons += [([int(i == k) for k in range(K)], ">=", 0) for i in range(K)]
    lam = lp_feasible_point(cons, K)
    if lam is None:
        return "feasible", None
    return "infeasible", lam


# -- reference: the step graph as a sorted tuple of parallel copies ----------
# `StepGraph` before it kept each distinct edge once with its multiplicity,
# verbatim but for its name, with the readers of its edge tuple.

_CHECK_EVERY = 4096


class EdgeListGraph:
    """Immutable edge multiset over a fixed step table."""

    __slots__ = ("steps", "n", "K", "edges")

    def __init__(self, steps: Sequence[Sequence[int]], edges):
        self.steps = tuple(tuple(int(v) for v in a) for a in steps)
        if not self.steps:
            raise ValueError("need at least one label")
        self.n = len(self.steps[0])
        if any(len(a) != self.n for a in self.steps):
            raise ValueError("inconsistent step lengths")
        self.K = len(self.steps)
        norm = []
        for s, label in edges:
            label = int(label)
            if not 1 <= label <= self.K:
                raise ValueError(f"label {label} out of range 1..{self.K}")
            s = tuple(int(v) for v in s)
            if len(s) != self.n:
                raise ValueError("edge start has wrong length")
            norm.append((s, label))
        self.edges = tuple(sorted(norm))

    def destination(self, edge) -> tuple:
        s, label = edge
        return tuple(a + b for a, b in zip(s, self.steps[label - 1]))

    def _vertex_set(self, distinct) -> set:
        """The starts and destinations of the distinct edges `distinct`.  The
        predicates walk each distinct (start, label) pair once, not every
        parallel copy; `is_symmetric` weights it by its count."""
        return {v for e in distinct for v in (e[0], self.destination(e))}

    def vertices(self) -> list[tuple]:
        return sorted(self._vertex_set(set(self.edges)))

    # -- predicates ----------------------------------------------------------
    def is_symmetric(self) -> bool:
        """Out-degree equals in-degree at every vertex."""
        bal = Counter()
        for e, k in Counter(self.edges).items():
            bal[e[0]] += k
            bal[self.destination(e)] -= k
        return all(v == 0 for v in bal.values())

    def is_full_image(self) -> bool:
        used = {label for _, label in self.edges}
        return used == set(range(1, self.K + 1))

    def is_zn_generating(self) -> bool:
        """Whether the edge steps generate Z^n as a group (read off their
        Hermite basis; for symmetric graphs the step semigroup is a group, so
        this is the semigroup property as well)."""
        present = sorted({self.steps[label - 1] for _, label in self.edges})
        _, full = linalg.lattice_rank_and_full([list(a) for a in present], self.n)
        return full

    def is_connected(self) -> bool:
        """Weak connectivity on the vertex set (every vertex touches an edge)."""
        distinct = set(self.edges)
        verts = self._vertex_set(distinct)
        if len(verts) <= 1:
            return True
        index = {v: i for i, v in enumerate(verts)}
        parent = list(range(len(verts)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in distinct:
            a, b = find(index[e[0]]), find(index[self.destination(e)])
            if a != b:
                parent[a] = b
        roots = {find(i) for i in range(len(verts))}
        return len(roots) == 1

    # -- represented element ---------------------------------------------------
    def represented_element(self, gens: GeneratorSet) -> GroupElement:
        """The pair (sum over edges of X^{s(e)} y_label, sum of steps)."""
        if gens.steps != list(self.steps):
            raise ValueError("generator set does not match the graph's steps")
        pres = gens.presentation
        y = pres.zero_vector()
        a = [0] * self.n
        for s, label in self.edges:
            g = gens.elements[label - 1]
            for j in range(pres.d):
                y[j] = y[j] + g.y[j].shift(s)
            for i in range(self.n):
                a[i] += g.a[i]
        return GroupElement(pres, y, tuple(a))

    # -- Euler circuits --------------------------------------------------------
    def euler_circuit(self, start: Sequence[int], deadline=None) -> Optional[list[int]]:
        """Label sequence of an Euler circuit from `start`, or None when the
        graph is not symmetric or not connected.  Ties are broken by smallest
        (destination vertex, label), so the output is deterministic.
        `deadline` is checked before each of the two tests and every
        _CHECK_EVERY steps of the walk."""
        start = tuple(int(v) for v in start)
        if start not in self._vertex_set(set(self.edges)):
            raise ValueError(f"start {start} is not a vertex")
        for holds in (self.is_symmetric, self.is_connected):
            check_deadline()
            if not holds():
                return None
        adj = defaultdict(list)
        for idx, (s, label) in enumerate(self.edges):
            adj[s].append((self.destination((s, label)), label, idx))
        for v in adj:
            adj[v].sort()
        ptr = defaultdict(int)
        used = [False] * len(self.edges)
        stack: list[tuple] = [(start, None)]
        out_rev: list[int] = []
        steps = 0
        while stack:
            if not steps % _CHECK_EVERY:
                check_deadline()
            steps += 1
            v, incoming = stack[-1]
            moved = False
            lst = adj.get(v, ())
            while ptr[v] < len(lst):
                dest, label, idx = lst[ptr[v]]
                ptr[v] += 1
                if not used[idx]:
                    used[idx] = True
                    stack.append((dest, label))
                    moved = True
                    break
            if not moved:
                stack.pop()
                if incoming is not None:
                    out_rev.append(incoming)
        if len(out_rev) != len(self.edges):
            return None
        return out_rev[::-1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeListGraph)
            and self.steps == other.steps
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.steps, self.edges))

    def __repr__(self):
        return f"EdgeListGraph(edges={len(self.edges)}, n={self.n}, K={self.K})"

    def to_dot(self) -> str:
        """Stable DOT text: vertex names v(x1,..,xn), labels on edges."""
        def vname(v):
            return '"v(' + ",".join(str(x) for x in v) + ')"'

        lines = ["digraph stepgraph {"]
        for v in self.vertices():
            lines.append(f"  {vname(v)};")
        for s, label in self.edges:
            lines.append(f"  {vname(s)} -> {vname(self.destination((s, label)))} [label={label}];")
        lines.append("}")
        return "\n".join(lines) + "\n"



def ref_position_polynomials(graph: EdgeListGraph) -> list[LaurentPoly]:
    terms = [dict() for _ in range(graph.K)]
    for s, label in graph.edges:
        t = terms[label - 1]
        t[s] = t.get(s, 0) + 1
    return [LaurentPoly(graph.n, t) for t in terms]


def ref_graph_from_positions(fs: Sequence[LaurentPoly], steps) -> EdgeListGraph:
    edges = []
    for i, f in enumerate(fs):
        for e, c in f.terms.items():
            if not isinstance(c, int) or c < 0:
                raise ValueError("position polynomials need coefficients in N")
            edges.extend([(e, i + 1)] * c)
    if not edges:
        raise ValueError("all position polynomials are zero")
    return EdgeListGraph(steps, edges)


def ref_graph_to_json(graph: EdgeListGraph) -> dict:
    return {
        "edges": [{"s": list(s), "label": label} for s, label in graph.edges],
        "steps": [list(a) for a in graph.steps],
    }


# -- reference: the refuter before it kept integral values as ints ----------
# `LaurentPoly.evaluate_positive` and `decide.locr_events` as they were when
# every entry was a Fraction and the point was checked once per polynomial,
# verbatim but for their names and the call between them.

def fraction_evaluate_positive(self, r: Sequence) -> Fraction:
    """Exact value at a strictly positive rational point.  With each
    coordinate p/q in lowest terms, and lo and hi the least and the
    largest exponent of its variable over the support, the value is
    sum c * prod p^(e - lo) * q^(hi - e), in integers, times
    prod p^lo / q^hi, made one Fraction.  At all-ones, the first sample of
    every refuter schedule, that is the sum of the coefficients."""
    r = [Fraction(x) for x in r]
    if len(r) != self.n:
        raise ValueError("evaluation point length mismatch")
    if any(x <= 0 for x in r):
        raise ValueError("evaluation point must be strictly positive")
    if all(x == 1 for x in r):
        return Fraction(sum(self.terms.values()))
    if not self.terms:
        return Fraction(0)
    lo = list(map(min, zip(*self.terms)))
    hi = list(map(max, zip(*self.terms)))
    pq = [(x.numerator, x.denominator) for x in r]
    total = 0
    for e, c in self.terms.items():
        for (p, q), a, l, h in zip(pq, e, lo, hi):
            c *= p ** (a - l) * q ** (h - a)
        total += c
    num = den = 1
    for (p, q), l, h in zip(pq, lo, hi):
        num *= p ** max(l, 0) * q ** max(-h, 0)
        den *= p ** max(-l, 0) * q ** max(h, 0)
    return Fraction(total * num, den)


def fraction_locr_events(generators, K: int, n: int, budget):
    """Yield None per feasible sample, or a NO Verdict on the first sample
    where no combination of the generators is strictly positive.

    Soundness: positivity of some relation-module element at every positive
    point is necessary for a positive solution to exist, and positivity at a
    point reduces to linear feasibility over the generator evaluations."""
    from semizn.decide import Verdict, _check_refutation, sample_points

    tested = 0
    for r in sample_points(n, budget.samples):
        tested += 1
        columns = [
            [fraction_evaluate_positive(g[i], r) for i in range(K)] for g in generators
        ]
        if not columns:
            status, lam = "infeasible", [Fraction(1)] * K
        else:
            status, lam = linalg.strict_positive_combination(columns)
        if status == "infeasible":
            _check_refutation(columns, lam, K)
            yield Verdict(
                kind="no",
                certificate={
                    "sample": [str(x) for x in r],
                    "dual": [str(x) for x in lam],
                    "samples_tested": tested,
                },
            )
            return
        yield None


# -- reference: the fixed-order subset driver --------------------------------
# `decide._decide_subsets` before it refuted one-signed subsets by their sign,
# and before it tried the others first, verbatim but for its name: one walk
# over an iterable of subsets, every subset decided by `decide_subset`.

def ref_decide_subsets(gens: GeneratorSet, subsets, budget: Budget) -> Verdict:
    """YES from the first subset that generates a group; NO once every
    subset is refuted; otherwise UNKNOWN, naming in `unresolved` the subsets
    tried without a verdict.  One deadline scope, opened here, covers all
    subsets: once a subset comes back timed out, no further subset is tried,
    and the report says `timed_out` and, unless that subset was the last,
    names in `untried_from` the first one not tried (it and every later one
    in the order of `subsets` were not tried)."""
    report = {"reason": "some subsets unresolved", "unresolved": []}
    refutations = []
    subsets = iter(subsets)
    with deadline_scope(budget.timeout):
        for subset in map(list, subsets):
            v = decide_subset(gens, subset, budget)
            if v.kind == "yes":
                return v
            if v.kind == "no":
                refutations.append({"subset": subset, "certificate": v.certificate})
                continue
            report["unresolved"].append(subset)
            if v.budget_report["timed_out"]:
                report["timed_out"] = True
                untried = next(subsets, None)
                if untried is not None:
                    report["untried_from"] = list(untried)
                break
    if report["unresolved"]:
        return Verdict(kind="unknown", budget_report=report)
    return Verdict(kind="no", certificate={"subsets": refutations})


# -- reference: the Inverse subset order -------------------------------------
# `decide.decide_inverse`'s order before it walked Identity's order
# restricted to the subsets holding the target, listed: the target alone,
# then the target inserted into each subset of the other indices, by size
# and then lexicographically.

def ref_inverse_order(K: int, target: int) -> list[list[int]]:
    rest = [i for i in range(1, K + 1) if i != target]
    return list(itertools.chain([[target]], (
        sorted([target, *extra])
        for size in range(1, len(rest) + 1) for extra in itertools.combinations(rest, size))))


# -- reference: the decoders before `algebra.decode` -------------------------
# `algebra.raw_to_vector` and `algebra.normalize_unit`, verbatim: the
# composition `algebra._syzygies` and `algebra.decode` replace.

def raw_to_vector(raw: dict, p: int, n: int) -> list[LaurentPoly]:
    """The Laurent vector of a (position, exponent tuple) dict with nonzero
    int coefficients, as the Groebner engine returns them."""
    polys = [dict() for _ in range(p)]
    for (pos, mono), c in raw.items():
        polys[pos][mono] = c
    return [LaurentPoly._trusted(n, t) for t in polys]


def normalize_unit(vec: Sequence[LaurentPoly], n: int) -> list[LaurentPoly]:
    """Canonical unit multiple: shift so the componentwise minimum exponent
    across the whole vector is zero, and the first nonzero leading
    coefficient is positive."""
    if all(p.is_zero() for p in vec):
        return list(vec)
    mins = [None] * n
    for p in vec:
        for e in p.terms:
            for i, v in enumerate(e):
                mins[i] = v if mins[i] is None else min(mins[i], v)
    shift = tuple(-(m or 0) for m in mins)
    out = [p.shift(shift) for p in vec]
    for p in out:
        if not p.is_zero():
            lead = max(p.terms.items(), key=lambda t: (sum(t[0]), t[0]))
            if lead[1] < 0:
                out = [q.scale(-1) for q in out]
            break
    return out


# -- reference: the re-posing that listed the coset box ----------------------
# `decide._repose` when it listed the box's corners with `itertools.product`
# and built a fresh empty polynomial per untouched slot, verbatim but for its
# name.

def ref_repose(sub: GeneratorSet):
    """Relation-module generators and steps of `sub` over the Hermite basis B
    of the lattice L its steps span, of rank r >= 0; the steps' B-coordinates
    generate Z^r, the hypothesis of the core.

    Restriction of scalars: with N the span of the unit vectors off B's
    pivot columns p_t, Z[X^pm] is free over Z[L + N] on the monomials X^c,
    c in the box 0 <= c_{p_t} < B_{t,p_t}.  Splitting each exponent column
    by column (the quotient in the pivot slot, the remainder into the coset,
    the off-pivot entries as N's coordinates) presents Y over Z[L + N] with
    d rows per coset: the y_i split by coset, and the relations X^c * rho.
    One syzygy run in n variables gives the relation module over Z[L + N],
    and when r < n eliminating N's block (saturated, N dominant) leaves the
    one over Z[L].  At B = I the split is the identity, so the instance's
    own presentation is used as it is.  The work grows with the index of L
    + N: past the deadline it raises DeadlineExceeded, checked per coset in
    the corner, relation and restriction loops and in the O(index) loops of
    `syzygy_basis` they feed."""
    n, d, K = sub.n, sub.presentation.d, sub.K
    basis = linalg.hermite_row_basis(sub.steps)
    r = len(basis)
    rows = {next(j for j, v in enumerate(b) if v): b for b in basis}
    size = math.prod(b[p] for p, b in rows.items())  # the index of L + N
    pres, ys, steps = sub.presentation, sub.ys, sub.steps
    if r < n or size > 1:

        def split(e):
            """(L + N coordinates, coset number) of the exponent e; the
            cosets are numbered in the order of the box's `product`."""
            e, w, m, c = list(e), [], [], 0
            for j in range(n):
                if j in rows:
                    q, rem = divmod(e[j], rows[j][j])
                    e = [x - q * y for x, y in zip(e, rows[j])]
                    w.append(q)
                    c = c * rows[j][j] + rem
                else:
                    m.append(e[j])
            return tuple(w + m), c

        def restrict(vec):
            out = {}
            for i, p in enumerate(vec):
                for e, k in p.terms.items():
                    w, c = split(e)
                    out.setdefault(c * d + i, {})[w] = k  # split is one-to-one: no two terms meet
            polys = []
            for slot in range(d * size):
                check_deadline()
                polys.append(LaurentPoly._trusted(n, out.get(slot, {})))
            return polys

        corners = []  # the X^c
        for c in itertools.product(*(range(b[p]) for p, b in rows.items())):
            check_deadline()
            corners.append([dict(zip(rows, c)).get(j, 0) for j in range(n)])
        rels = []
        for rel in pres.rels_N:
            for z in corners:
                check_deadline()
                rels.append(restrict([p.shift(z) for p in rel]))
        pres = ModulePresentation(n, d * size, rels)
        ys = [restrict(y) for y in ys]
        splits = [split(a) for a in steps]
        if any(c or any(w[r:]) for w, c in splits):
            raise AssertionError("step outside its own lattice")
        steps = [w for w, _ in splits]
    generators = syzygy_basis(pres, ys, steps).generators
    if r < n and generators:
        raws = [clear_vector(f, n)[0] for f in generators]
        eliminated, _ = saturated_basis(raws, K, n, [tuple(range(r, n)), tuple(range(r))])
        generators = [
            normalize_unit(raw_to_vector({(i, e[:r]): c for (i, e), c in g.vec.items()}, K, r), r)
            for g in eliminated if not any(any(e[r:]) for _, e in g.vec)]
    return generators, [tuple(w[:r]) for w in steps]


@pytest.fixture
def rng():
    return random.Random(20240817)
