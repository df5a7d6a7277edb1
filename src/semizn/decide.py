"""Decision drivers for the Group, Identity and Inverse Problems.

The Group Problem runs two sound half-procedures against each other:

* the positive search tries each relation-module generator (up to a unit)
  and then, window by window, the maximal-support positive element found by
  exact LPs; a candidate with everywhere-positive coefficients that passes
  the escape condition becomes an Eulerian graph and a verified word
  witness (a sound YES);
* the refuter samples positive rational points and decides, by Gordan's
  alternative, whether some combination of the relation-module generators
  is strictly positive there (`linalg.strict_positive_combination`: exact
  elimination, and one exact LP when the dual is not unique and no column,
  negated column or column sum is visibly positive); a single infeasible
  point is a sound NO with a rational dual certificate (the local
  positivity condition is necessary).

Neither side is complete on its own; an exhausted budget is an honest
UNKNOWN.  The two sides are interleaved cooperatively under a fixed
schedule, so the verdict is a pure function of instance and budget.

Group, Identity and Inverse run one core on a generating set: Group on the
whole set, Identity and Inverse on subsets of it.  "The steps generate Z^n"
is a normal form, not a limit on the input: every set is re-posed over the
Hermite basis of the lattice its steps span, by restriction of scalars in
the same n variables (one coset and no elimination when the steps generate
Z^n), and its YES witness carries positions and a graph over that basis
(the word is in the set's own letters).  At rank 0 the basis is empty, and
the same core at n = 0 decides the exact rational feasibility the problem
degenerates to: the refuter's one sample is the empty point, and the
window LP finds a strictly positive combination whenever one exists.  One
deadline, started at entry, bounds the re-posing, the Groebner phases and
the search; for Identity and Inverse it covers every subset, and the first
subset that times out ends the loop.

Identity and Inverse walk their subsets once, in a fixed order.  A subset
whose steps are one-signed in some coordinate (`_one_signed`) never
generates a group: it is refuted by that coordinate and sign alone, an
exact certificate read off the steps, with no re-posing, Groebner run or
refuter.  Every other subset runs the core.

The YES side is one call chain, in the paper's order: `decide_core` runs
`procedure_a_events`, whose candidates (the generators, then
`_window_candidate`) that pass the escape condition go to `_witness`:
Eulerian graph, closure unless connected, Euler circuit, verified word.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

from semizn import linalg, positions
from semizn.algebra import ModulePresentation, clear_vector, decode, residual, syzygy_basis
from semizn.algebra import laurent_syzygies  # noqa: F401  (perfbench/tracer.py patches it here)
from semizn.closure import ClosureBudgetError, eulerian_closure
from semizn.ggraph import StepGraph, graph_of_word
from semizn.group import GeneratorSet
from semizn.group import evaluate_word  # noqa: F401  (perfbench/tracer.py patches it here)
from semizn.groebner import DeadlineExceeded, check_deadline, deadline_scope, saturated_basis
from semizn.laurent import LaurentPoly


@dataclass
class Budget:
    """Search budgets; the procedures are unbounded in the abstract, so every
    knob is explicit.  `degree` is the largest window of the LP search,
    `samples` the refuter's sample count and `closure_n` the translation
    bound of the Eulerian closure.  Fields must be nonnegative: `samples=0`
    tests no point, `closure_n=0` tries no translation, and `degree=0` still
    searches window 0 (multipliers in {X^0}).  timeout is in seconds (0 has
    expired, a negative or NaN one is refused), None disables it."""

    degree: int = 2
    samples: int = 12
    closure_n: int = 16
    timeout: Optional[float] = None

    def __post_init__(self):
        if min(self.degree, self.samples, self.closure_n) < 0:
            raise ValueError("budgets must be nonnegative")
        if self.timeout is not None and not self.timeout >= 0:  # NaN fails >= too
            raise ValueError(f"timeout must be nonnegative, got {self.timeout}")


@dataclass
class Verdict:
    kind: str  # "yes" | "no" | "unknown"
    witness: Optional[dict] = None
    certificate: Optional[dict] = None
    budget_report: Optional[dict] = None

    @property
    def exit_code(self) -> int:
        return {"yes": 0, "no": 1, "unknown": 2}[self.kind]


# ---------------------------------------------------------------------------
# Witness checking (independent of how a witness was produced)
# ---------------------------------------------------------------------------

def verify_witness(witness, gens: GeneratorSet) -> bool:
    """Check a word (list of letters) or a StepGraph as a group-ness witness:
    a connected (a word's trace always is), full-image graph whose position
    polynomials have zero symmetry residual (the graph is symmetric, so a
    word closes) and zero neutrality residual in Y.  One pass over the
    letters: no product of group elements is formed.  Past the deadline it
    raises DeadlineExceeded, in the trace and in the membership check of
    the neutrality residual alike."""
    if isinstance(witness, StepGraph):
        graph = witness
        if graph.steps != tuple(gens.steps):
            raise ValueError("generator set does not match the graph's steps")
        if not graph.is_connected():
            return False
    else:
        word = list(witness)
        if not word or not set(word) <= set(range(1, gens.K + 1)):
            return False
        graph = graph_of_word(gens, word)
        check_deadline()
    if not graph.is_full_image():
        return False
    sym, neu = residual(positions.position_polynomials(graph), gens.presentation, gens.ys,
                        gens.steps)
    return sym.is_zero() and neu.is_zero()


# ---------------------------------------------------------------------------
# The LocR refuter
# ---------------------------------------------------------------------------

def _positive_rationals():
    """The positive rationals p/q by height p + q and then p, each once:
    1, 1/2, 2, 1/3, 3, 1/4, 2/3, 3/2, 4, ..."""
    for h in itertools.count(2):
        for p in range(1, h):
            if math.gcd(p, h - p) == 1:
                yield Fraction(p, h - p)


def sample_points(n: int, count: int):
    """The refuter's schedule: the first `count` points of a grid spiral over
    the positive rationals in height order.  Level L of the spiral holds the
    points of Q_{>0}^n whose largest height index is L - 1, so all-ones comes
    first and every point comes once.  At n = 0 the one point is (), and
    there is none when `count` is 0."""
    if n == 0:
        return iter([()] if count else [])
    return itertools.islice(_grid_spiral(n), count)


def _grid_spiral(n: int):
    scalars = []
    for top, scalar in enumerate(_positive_rationals()):
        scalars.append(scalar)
        for combo in itertools.product(range(top + 1), repeat=n):
            if max(combo) == top:
                yield tuple(scalars[i] for i in combo)


def locr_events(generators, K: int, n: int, budget: Budget):
    """Yield None per feasible sample, or a NO Verdict on the first sample
    where no combination of the generators is strictly positive.

    Soundness: positivity of some relation-module element at every positive
    point is necessary for a positive solution to exist, and positivity at a
    point reduces to linear feasibility over the generator evaluations.

    Each sample point is a tuple of positive Fractions from the schedule,
    read once as its (numerator, denominator) pairs; every entry is then
    `LaurentPoly._value_at` of those pairs, an exact int where the value is
    integral (always at all-ones) and a Fraction elsewhere.  The Gordan
    kernel, its LP and the recheck read an int and the equal Fraction as
    the same row (`linalg._int_row`), so the certificates do not depend on
    which of the two an entry is."""
    tested = 0
    for r in sample_points(n, budget.samples):
        tested += 1
        pq = [(x.numerator, x.denominator) for x in r]
        columns = [[g[i]._value_at(pq) for i in range(K)] for g in generators]
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


def _check_refutation(columns, lam, K: int):
    """Independent re-check of an infeasibility verdict: Fourier-Motzkin on
    the primal, plus exact validation of the Gordan dual."""
    if columns and linalg.fm_strictly_feasible(columns):
        raise AssertionError("refutation failed independent Fourier-Motzkin recheck")
    if lam is None or len(lam) != K or any(x < 0 for x in lam) or all(x == 0 for x in lam):
        raise AssertionError("invalid dual certificate")
    lam, _ = linalg._int_row(lam)  # positive multiples: the same zeros
    for col in columns:
        if linalg.dot(lam, linalg._int_row(col)[0]):
            raise AssertionError("dual certificate does not annihilate the generators")


# ---------------------------------------------------------------------------
# The positive search (Procedure A)
# ---------------------------------------------------------------------------

_WINDOW_CAP = 120  # multiplier-variable cap per window; beyond it, skip


def _window_candidate(generators, K: int, n: int, window: int, cut=frozenset()):
    """Exact-LP search for an all-positive element of the relation module
    with multiplier supports inside a degree window.

    Positivity constraints are linear in the multiplier coefficients and the
    system is homogeneous with integer data, so rational solutions exist iff
    real ones do, and clear to integer solutions.  The achievable support
    slots form a union-closed family (solutions add), so the unique maximal
    support is reached by rounds of small feasibility systems, each keeping
    the achieved slots positive and demanding at least one new one; the
    escape condition depends only on supports.  Slots at the support points
    in `cut` are held at zero: when the maximal candidate fails the escape
    condition on a face F, no element of the window whose support meets F
    passes (its own face in that direction lies on F, where every slot's step
    is parallel to F), so `procedure_a_events` cuts F's points and maximises
    again.  Each cut removes at least one slot, so within its window the
    search finds a passing element whenever one exists.  No round or pivot
    starts past the deadline: it raises DeadlineExceeded instead."""
    if not generators:
        return None
    monos = sorted(
        itertools.product(range(-window, window + 1), repeat=n),
        key=lambda m: (sum(map(abs, m)), m),
    )
    variables = [(j, mu) for j in range(len(generators)) for mu in monos]
    nlam = len(variables)
    if nlam > _WINDOW_CAP:
        return None
    # slot universe: possible f-monomials per coordinate
    universe = []
    for i in range(K):
        slots = set()
        for j, g in enumerate(generators):
            for mu in monos:
                for e in g[i].terms:
                    slots.add(tuple(a + b for a, b in zip(e, mu)))
        universe.append(sorted(slots))
    if any(not u for u in universe):
        return None

    def coeff_row(i, beta):
        row = [0] * nlam
        for col, (j, mu) in enumerate(variables):
            e = tuple(a - b for a, b in zip(beta, mu))
            row[col] = generators[j][i].terms.get(e, 0)
        return row

    slot_list = [(i, beta) for i in range(K) for beta in universe[i]]
    rows = {s: coeff_row(*s) for s in slot_list}
    base = [(rows[s], "==" if s[1] in cut else ">=", 0) for s in slot_list]
    free = [s for s in slot_list if s[1] not in cut]
    for i in range(K):
        total = [sum(col) for col in zip(*(rows[(i, b)] for b in universe[i]))]
        base.append((total, ">=", 1))  # coordinate i is nonzero
    check_deadline()
    point = linalg.lp_feasible_point(base, nlam)
    if point is None:
        return None
    achieved = {s for s in slot_list if linalg.dot(rows[s], point) > 0}
    while len(achieved) < len(free):
        check_deadline()
        cons = base + [(rows[s], ">=", 1) for s in achieved]
        fresh = [sum(col) for col in zip(*(rows[s] for s in free if s not in achieved))]
        cons.append((fresh, ">=", 1))
        nxt = linalg.lp_feasible_point(cons, nlam)
        if nxt is None:
            break
        point = nxt
        achieved = {s for s in slot_list if linalg.dot(rows[s], point) > 0}
    # Clear the multipliers, not the values: an integer combination of
    # the generators is in the relation module, but a rational one whose
    # values happen to be integers need not be when Y has torsion.
    multipliers, _ = linalg._int_row(point)
    return [
        LaurentPoly(n, {b: int(linalg.dot(rows[(i, b)], multipliers)) for b in universe[i]})
        for i in range(K)
    ]


def _witness(fs, tested: int, sub: GeneratorSet, steps, budget: Budget):
    """The YES Verdict for an accepted tuple `fs`: its graph, closed by
    translations unless connected, and an Euler circuit of the union as a
    word verified in the letters of `sub`; None when the closure is over
    budget.  Past the deadline it raises DeadlineExceeded: after the graph,
    inside and after the closure, inside the circuit, and in
    `verify_witness`."""
    graph = positions.graph_from_positions(fs, steps)
    check_deadline()
    union, translations = graph, [(0,) * len(steps[0])]
    if not graph.is_connected():
        try:
            closed = eulerian_closure(graph, max_n=budget.closure_n)
        except ClosureBudgetError:
            return None
        union, translations = closed.union, closed.translations
    check_deadline()
    word = union.euler_circuit(min(union.vertices()))
    if word is None:
        raise AssertionError("closure union failed to yield an Euler circuit")
    if not verify_witness(word, sub):
        raise AssertionError("produced witness failed verification")
    return Verdict(kind="yes", witness={
        "word": word,
        "positions": fs,
        "graph": union,
        "translations": [list(z) for z in translations],
        "candidates_tested": tested,
    })


def procedure_a_events(generators, sub: GeneratorSet, steps, budget: Budget):
    """Yield None per generator and per window, or a YES Verdict for the
    first all-positive relation-module element passing the escape
    condition whose witness is within budget.  `generators` and `steps`
    are those of `sub` re-posed (K from `sub`, n from the steps), each in
    the unit-normal form of `algebra.decode`.  Past the deadline a window
    round, its simplex, the escape check's hull or the witness raises
    DeadlineExceeded."""
    K, n = sub.K, len(steps[0])
    seen = {}  # candidate -> its support points on faces failing the escape condition
    tested = 0

    def consider(fs):
        """A YES Verdict or None, and the support points of `fs` on the
        faces where it fails the escape condition."""
        nonlocal tested
        key = tuple(frozenset(f.terms.items()) for f in fs)
        if key in seen:
            return None, seen[key]
        seen[key] = frozenset()
        if not all(f.has_positive_coeffs() for f in fs):
            return None, seen[key]
        tested += 1
        ok, report = positions.check_escape_condition(fs, steps)
        if ok:
            return _witness(fs, tested, sub, steps, budget), seen[key]
        seen[key] = frozenset(tuple(p) for face in report if not face["accessible"]
                              for p in face["face"])
        return None, seen[key]

    # single generators
    for g in generators:
        v, _ = consider(g)
        if v is not None:
            yield v
            return
        yield None
    # LP window search with greedy support maximization and face cuts
    for window in range(0, budget.degree + 1):
        cut = frozenset()
        while (cand := _window_candidate(generators, K, n, window, cut)) is not None:
            v, blocked = consider(cand)
            if v is not None:
                yield v
                return
            if not blocked:
                break
            cut |= blocked
        yield None


# ---------------------------------------------------------------------------
# Cores and public drivers
# ---------------------------------------------------------------------------

def _unknown(budget: Budget, timed_out: bool) -> Verdict:
    report = asdict(budget)
    del report["timeout"]
    report["timed_out"] = timed_out
    return Verdict(kind="unknown", budget_report=report)


def decide_core(sub: GeneratorSet, generators, steps, budget: Budget) -> Verdict:
    """Interleave the positive search and the refuter on the relation-module
    `generators` and `steps` of `sub` re-posed; first conclusive verdict
    wins (a fixed alternation, so the outcome is deterministic).  Past the
    deadline it raises DeadlineExceeded, checked before every event and
    inside both sides."""
    live = [locr_events(generators, sub.K, len(steps[0]), budget),
            procedure_a_events(generators, sub, steps, budget)]
    while live:
        for it in list(live):
            check_deadline()
            try:
                event = next(it)
            except StopIteration:
                live.remove(it)
                continue
            if event is not None:
                return event
    return _unknown(budget, timed_out=False)


def decide_group(gens: GeneratorSet, budget: Budget = None) -> Verdict:
    """Decide whether the generated sub-semigroup is a group (sound YES and
    NO, budget-bounded UNKNOWN), re-posed over the Hermite basis of the
    lattice of its steps, as for every subset.
    `budget.timeout` starts at entry and bounds the Groebner phases too."""
    budget = budget or Budget()
    return _decide_generating_set(gens, budget)


# ---------------------------------------------------------------------------
# Re-posing over the lattice of the steps
# ---------------------------------------------------------------------------

def _repose(sub: GeneratorSet):
    """Relation-module generators and steps of `sub` over the Hermite basis B
    of the lattice L its steps span, of rank r >= 0; the steps' B-coordinates
    generate Z^r, the hypothesis of the core.

    Restriction of scalars: with N the span of the unit vectors off B's
    pivot columns p_t, Z[X^pm] is free over Z[L + N] on the monomials X^c,
    c in the box 0 <= c_{p_t} < B_{t,p_t}.  Splitting each exponent column
    by column (the quotient in the pivot slot, the remainder into the coset,
    the off-pivot entries as N's coordinates) presents Y over Z[L + N] with
    d rows per coset: the y_i split by coset (empty rows share one zero),
    and the relations X^c * rho, c read off the coset's number, its box
    digits in mixed radix with the last pivot's lowest.  One syzygy run in
    n variables gives the relation module over Z[L + N], and when r < n
    eliminating N's block (saturated, N dominant) leaves the one over Z[L],
    decoded as the syzygies are.  At B = I the split is the identity, so
    the instance's own presentation is used as it is.  The work grows with
    the index of L + N: past the deadline it raises DeadlineExceeded,
    checked per coset in the relation and restriction loops and in the
    O(index) loops of `syzygy_basis` they feed."""
    n, d, K = sub.n, sub.presentation.d, sub.K
    basis = linalg.hermite_row_basis(sub.steps)
    r = len(basis)
    rows = {next(j for j, v in enumerate(b) if v): b for b in basis}
    size = math.prod(b[p] for p, b in rows.items())  # the index of L + N
    pres, ys, steps = sub.presentation, sub.ys, sub.steps
    if r < n or size > 1:
        zero = LaurentPoly._trusted(n, {})

        def split(e):
            """(L + N coordinates, coset number) of the exponent e."""
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
                t = out.get(slot)
                polys.append(zero if t is None else LaurentPoly._trusted(n, t))
            return polys

        rels = []
        for rel in pres.rels_N:
            for c in range(size):
                check_deadline()
                z, q = [0] * n, c  # the corner of coset c, digit by digit
                for j in reversed(rows):
                    q, z[j] = divmod(q, rows[j][j])
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
        cut = [(0,) * r] * K  # decode cuts each exponent to its first r coordinates
        generators = [decode(v, cut, K, r) for v in (g.vec for g in eliminated)
                      if not any(any(e[r:]) for _, e in v)]
    return generators, [tuple(w[:r]) for w in steps]


def _decide_generating_set(sub: GeneratorSet, budget: Budget) -> Verdict:
    """Group Problem for `sub`, re-posed over the lattice of its steps, under
    `deadline_scope(budget.timeout)`.  Past it the verdict is UNKNOWN with
    `timed_out`: the one place a DeadlineExceeded, from any phase, is caught."""
    try:
        with deadline_scope(budget.timeout):
            generators, steps = _repose(sub)
            return decide_core(sub, generators, steps, budget)
    except DeadlineExceeded:
        return _unknown(budget, timed_out=True)


def decide_subset(gens: GeneratorSet, indices: Sequence[int], budget: Budget) -> Verdict:
    """Group Problem for the sub-generating-set at the given 1-based indices,
    re-posed over the lattice of its steps.

    `budget.timeout` starts at entry (an enclosing scope's earlier deadline
    holds) and bounds the whole run.  Past it the verdict is UNKNOWN with
    `timed_out`."""
    verdict = _decide_generating_set(gens.subset(indices), budget)
    if verdict.kind == "yes":
        verdict.witness["word_in_original_letters"] = [
            indices[l - 1] for l in verdict.witness["word"]
        ]
        verdict.witness["subset"] = list(indices)
    return verdict


def _subsets(indices: Sequence[int]):
    idx = list(indices)
    for size in range(1, len(idx) + 1):
        yield from itertools.combinations(idx, size)


_SCAN_CHUNK = 4096  # subsets walked between two deadline checks


def _one_signed(steps):
    """The sign test of a subset (1-based indices): its certificate
    {"coordinate": t, "sign": s} when s * a_{i,t} >= 0 for every step a_i
    of the subset and > 0 for one, at the first such 0-based coordinate t,
    and None when there is none.  Such a subset never generates a group: a
    generator with a_{i,t} != 0 has no inverse, as the t-images of the
    subset's elements form a one-signed semigroup of Z that contains a
    nonzero element.  The certificate reads only the steps, so it checks
    from the instance alone.  Per coordinate, the bitmasks of the
    generators with a positive and with a negative step make the test a few
    int operations."""
    signs = [(sum(1 << i for i, x in enumerate(column, 1) if x > 0),
              sum(1 << i for i, x in enumerate(column, 1) if x < 0))
             for column in zip(*steps)]

    def test(subset):
        mask = 0
        for i in subset:
            mask |= 1 << i
        for t, (pos, neg) in enumerate(signs):
            if bool(mask & pos) != bool(mask & neg):
                return {"coordinate": t, "sign": 1 if mask & pos else -1}
        return None
    return test


def _decide_subsets(gens: GeneratorSet, subsets, budget: Budget) -> Verdict:
    """YES from the first subset that generates a group; NO once every
    subset is refuted; otherwise UNKNOWN, naming in `unresolved` the subsets
    tried without a verdict.  `subsets` iterates over the fixed order.

    One walk takes that order lazily.  A subset that `_one_signed` flags is
    refuted by its sign certificate, `{"one_signed": ...}`, with no
    `decide_subset` call; every other subset is decided, and the first YES
    returns.  A NO lists every subset in the fixed order, each with its
    sign certificate or its refuter's.

    One deadline scope, opened here, covers all subsets.  Once a subset
    comes back timed out, or the walk finds the deadline passed at one of
    its checks every _SCAN_CHUNK subsets, nothing further is tried: the
    report says `timed_out` and names in `untried_from` the next subset,
    or the subset the walk had reached at the check, unless the walk was at
    its end.  It and every later subset were not tried."""
    sign = _one_signed(gens.steps)
    refuted, unresolved = [], []
    report = {"reason": "some subsets unresolved", "unresolved": unresolved}
    with deadline_scope(budget.timeout):
        walk = enumerate(map(list, subsets))
        for pos, subset in walk:
            if pos % _SCAN_CHUNK == _SCAN_CHUNK - 1:
                try:
                    check_deadline()
                except DeadlineExceeded:
                    report.update(timed_out=True, untried_from=subset)
                    break
            cert = sign(subset)
            if cert is not None:
                refuted.append({"subset": subset, "certificate": {"one_signed": cert}})
                continue
            v = decide_subset(gens, subset, budget)
            if v.kind == "yes":
                return v
            if v.kind == "no":
                refuted.append({"subset": subset, "certificate": v.certificate})
                continue
            unresolved.append(subset)
            if v.budget_report["timed_out"]:
                report["timed_out"] = True
                untried = next(walk, None)
                if untried is not None:
                    report["untried_from"] = untried[1]
                break
    if unresolved or "timed_out" in report:
        return Verdict(kind="unknown", budget_report=report)
    return Verdict(kind="no", certificate={"subsets": refuted})


def decide_identity(gens: GeneratorSet, budget: Budget = None) -> Verdict:
    """The semigroup contains the neutral element iff some nonempty subset of
    the generators generates a group (subset reduction)."""
    return _decide_subsets(gens, _subsets(range(1, gens.K + 1)), budget or Budget())


def decide_inverse(gens: GeneratorSet, target: int, budget: Budget = None) -> Verdict:
    """g_target has an inverse in the semigroup iff some subset containing it
    generates a group."""
    if not 1 <= target <= gens.K:
        raise ValueError(f"target index {target} out of range 1..{gens.K}")
    rest = [i for i in range(1, gens.K + 1) if i != target]
    return _decide_subsets(
        gens, itertools.chain([[target]], (sorted([target, *extra]) for extra in _subsets(rest))),
        budget or Budget())
