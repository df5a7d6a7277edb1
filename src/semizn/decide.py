"""Decision drivers for the Group, Identity and Inverse Problems.

The Group Problem runs two sound half-procedures against each other:

* the positive search tries each relation-module generator (up to a unit)
  and then, window by window, the maximal-support positive element found by
  exact LPs; a candidate with everywhere-positive coefficients that passes
  the escape condition becomes an Eulerian graph and a verified word
  witness (a sound YES);
* the refuter samples positive rational points and decides, by one exact
  LP (Gordan's alternative), whether some combination of the relation-module
  generators is strictly positive there; a single infeasible point is a
  sound NO with a rational dual certificate (the local positivity condition
  is necessary).

Neither side is complete on its own; an exhausted budget is an honest
UNKNOWN.  The two sides are interleaved cooperatively under a fixed
schedule, so the verdict is a pure function of instance and budget.

Group, Identity and Inverse run one core on a generating set: Group on the
whole set, Identity and Inverse on subsets of it.  "The steps generate Z^n"
is a normal form, not a limit on the input: a set whose steps span a
proper sublattice is re-posed over the Hermite basis of that sublattice,
and its YES witness carries positions and a graph over that basis (the
word is in the set's own letters).  At rank 0 the basis is empty, and the
same core at n = 0 decides the exact rational feasibility the problem
degenerates to: the refuter's one sample is the empty point, and the
window LP finds a strictly positive combination whenever one exists.  One
deadline, started at entry, bounds the Groebner phases and the search.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from semizn import linalg, positions
from semizn.algebra import (clear_vector, laurent_syzygies, normalize_unit, raw_to_vector,
                            syzygy_basis)
from semizn.closure import ClosureBudgetError, eulerian_closure
from semizn.geometry import HullTooLargeError
from semizn.ggraph import StepGraph
from semizn.group import GeneratorSet, evaluate_word
from semizn.groebner import GroebnerBudgetError, saturated_basis
from semizn.laurent import LaurentPoly


@dataclass
class Budget:
    """Search budgets; the procedures are unbounded in the abstract, so every
    knob is explicit.  `degree` is the largest window of the LP search,
    `samples` the refuter's sample count and `closure_n` the translation
    bound of the Eulerian closure.  Fields must be nonnegative (0 disables
    that search axis); timeout is in seconds, None disables it."""

    degree: int = 2
    samples: int = 12
    closure_n: int = 16
    timeout: Optional[float] = None

    def __post_init__(self):
        if min(self.degree, self.samples, self.closure_n) < 0:
            raise ValueError("budgets must be nonnegative")


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
    full-image + neutral (words), full-image + Eulerian + neutral (graphs)."""
    if isinstance(witness, StepGraph):
        g = witness
        if not g.is_full_image() or not g.is_symmetric() or not g.is_connected():
            return False
        return g.represented_element(gens).is_neutral()
    word = list(witness)
    if not word:
        return False
    if set(word) != set(range(1, gens.K + 1)):
        return False
    return evaluate_word(gens, word).is_neutral()


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
    first and every point comes once.  At n = 0 the one point is ()."""
    if n == 0:
        return iter([()])
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
    point reduces to linear feasibility over the generator evaluations."""
    tested = 0
    for r in sample_points(n, budget.samples):
        tested += 1
        columns = [
            [g[i].evaluate_positive(r) for i in range(K)] for g in generators
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


def _check_refutation(columns, lam, K: int):
    """Independent re-check of an infeasibility verdict: Fourier-Motzkin on
    the primal, plus exact validation of the Gordan dual."""
    if columns and linalg.fm_strictly_feasible(columns):
        raise AssertionError("refutation failed independent Fourier-Motzkin recheck")
    if lam is None or len(lam) != K or any(x < 0 for x in lam) or all(x == 0 for x in lam):
        raise AssertionError("invalid dual certificate")
    for col in columns:
        if sum(l * c for l, c in zip(lam, col)) != 0:
            raise AssertionError("dual certificate does not annihilate the generators")


# ---------------------------------------------------------------------------
# The positive search (Procedure A)
# ---------------------------------------------------------------------------

class _WindowSearch:
    """Exact-LP search for an all-positive element of the relation module
    with multiplier supports inside a degree window.

    Positivity constraints are linear in the multiplier coefficients and the
    system is homogeneous with integer data, so rational solutions exist iff
    real ones do, and clear to integer solutions.  The achievable support
    slots form a union-closed family (solutions add), so the unique maximal
    support is reached by rounds of small feasibility systems, each keeping
    the achieved slots positive and demanding at least one new one; the
    escape condition depends only on supports.  No round starts past the
    deadline: the window then gives no candidate."""

    size_cap = 120  # multiplier-variable cap per window; beyond it, skip

    def __init__(self, generators, K: int, n: int):
        self.generators = generators
        self.K = K
        self.n = n

    def candidate(self, window: int, deadline: Optional[float] = None):
        if not self.generators:
            return None
        n, K = self.n, self.K
        monos = sorted(
            itertools.product(range(-window, window + 1), repeat=n),
            key=lambda m: (sum(map(abs, m)), m),
        )
        variables = [(j, mu) for j in range(len(self.generators)) for mu in monos]
        nlam = len(variables)
        if nlam > self.size_cap:
            return None
        # slot universe: possible f-monomials per coordinate
        universe = []
        for i in range(K):
            slots = set()
            for j, g in enumerate(self.generators):
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
                row[col] = self.generators[j][i].terms.get(e, 0)
            return row

        slot_list = [(i, beta) for i in range(K) for beta in universe[i]]
        rows = {s: coeff_row(*s) for s in slot_list}
        base = [(rows[s], ">=", 0) for s in slot_list]
        for i in range(K):
            total = [sum(col) for col in zip(*(rows[(i, b)] for b in universe[i]))]
            base.append((total, ">=", 1))  # coordinate i is nonzero
        if _passed(deadline):
            return None
        point = linalg.lp_feasible_point(base, nlam)
        if point is None:
            return None
        achieved = {s for s in slot_list if linalg.dot(rows[s], point) > 0}
        while len(achieved) < len(slot_list):
            if _passed(deadline):
                return None
            cons = base + [(rows[s], ">=", 1) for s in achieved]
            fresh = [sum(col) for col in zip(*(rows[s] for s in slot_list if s not in achieved))]
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


def procedure_a_events(generators, steps, K: int, n: int, budget: Budget,
                       make_witness: Callable, deadline: Optional[float] = None):
    """Yield None per generator and per window, or a YES Verdict for the
    first all-positive relation-module element passing the escape
    condition.  A window cut short by `deadline` yields None."""
    seen = set()
    tested = 0

    def consider(fs):
        nonlocal tested
        key = tuple(frozenset(f.terms.items()) for f in fs)
        if key in seen:
            return None
        seen.add(key)
        if not all(f.has_positive_coeffs() for f in fs):
            return None
        tested += 1
        try:
            ok, _ = positions.check_escape_condition(fs, steps)
        except HullTooLargeError:
            return None
        if not ok:
            return None
        return make_witness(fs, tested)

    # single generators and their sign flips
    for g in generators:
        for cand in (g, [(-p) for p in g]):
            v = consider(normalize_unit(cand, n))
            if v is not None:
                yield v
                return
        yield None
    # LP window search with greedy support maximization
    search = _WindowSearch(generators, K, n)
    for window in range(0, budget.degree + 1):
        cand = search.candidate(window, deadline)
        if cand is not None:
            v = consider(cand)
            if v is not None:
                yield v
                return
        yield None


# ---------------------------------------------------------------------------
# Cores and public drivers
# ---------------------------------------------------------------------------

def _graph_witness(fs, steps, budget: Budget):
    """Build the Eulerian graph + word witness for an accepted tuple."""
    graph = positions.graph_from_positions(fs, steps)
    translations = [(0,) * len(steps[0])]
    union = graph
    if not union.is_connected():
        result = eulerian_closure(graph, max_n=budget.closure_n)
        union = result.union
        translations = result.translations
    start = min(union.vertices())
    word = union.euler_circuit(start)
    if word is None:
        raise AssertionError("closure union failed to yield an Euler circuit")
    return graph, union, translations, word


def _yes_maker(steps, budget: Budget, verify_word: Callable):
    def maker(fs, tested):
        try:
            graph, union, translations, word = _graph_witness(fs, steps, budget)
        except (ClosureBudgetError, HullTooLargeError):
            return None
        if not verify_word(word):
            raise AssertionError("produced witness failed verification")
        return Verdict(kind="yes", witness={
            "word": word,
            "positions": fs,
            "graph": union,
            "translations": [list(z) for z in translations],
            "candidates_tested": tested,
        })
    return maker


def _deadline(budget: Budget) -> Optional[float]:
    """The `time.monotonic()` value at which `budget.timeout` runs out."""
    return None if budget.timeout is None else time.monotonic() + budget.timeout


def _passed(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() > deadline


def _unknown(budget: Budget, timed_out: bool) -> Verdict:
    report = asdict(budget)
    del report["timeout"]
    report["timed_out"] = timed_out
    return Verdict(kind="unknown", budget_report=report)


def decide_core(generators, steps, K: int, n: int, budget: Budget,
                verify_word: Callable[[list], bool], deadline: Optional[float]) -> Verdict:
    """Interleave the positive search and the refuter; first conclusive
    verdict wins (a fixed alternation, so the outcome is deterministic).
    Past `deadline` (a `time.monotonic()` value, or None) the verdict is
    UNKNOWN with `timed_out`."""
    a_iter = procedure_a_events(generators, steps, K, n, budget,
                                _yes_maker(steps, budget, verify_word), deadline)
    r_iter = locr_events(generators, K, n, budget)
    live = [r_iter, a_iter]
    timed_out = False
    while live and not timed_out:
        for it in list(live):
            if _passed(deadline):
                timed_out = True
                break
            try:
                event = next(it)
            except StopIteration:
                live.remove(it)
                continue
            if event is not None:
                return event
    return _unknown(budget, timed_out)


def decide_group(gens: GeneratorSet, budget: Budget = None) -> Verdict:
    """Decide whether the generated sub-semigroup is a group (sound YES and
    NO, budget-bounded UNKNOWN).  Steps spanning a proper sublattice of Z^n
    are re-posed over its Hermite basis, as for every subset.
    `budget.timeout` starts at entry and bounds the Groebner phases too."""
    budget = budget or Budget()
    return _decide_generating_set(gens, budget, _deadline(budget))


# ---------------------------------------------------------------------------
# Sublattice reduction
# ---------------------------------------------------------------------------

def _embed_poly(p: LaurentPoly, r: int) -> LaurentPoly:
    """Embed an n-variable (X) polynomial into the joint (r+n)-variable
    ring: W block first, X block second."""
    return LaurentPoly(r + p.n, {(0,) * r + tuple(e): c for e, c in p.terms.items()})


def _repose_sublattice(sub: GeneratorSet, basis_rows: list[list[int]], deadline):
    """Relation-module generators for a set whose steps span the proper
    sublattice with basis `basis_rows` (rank r >= 0; at rank 0 every step
    is zero and the generators are constant vectors over zero variables).

    The problem is re-posed over r fresh variables W with W_t acting as
    X^{B_t}: the joint ring Z[W,X] carries the relations rho_t = W_t - X^{B_t};
    syzygies of the stacked system (with the relation multiples adjoined)
    project onto the f-part, and eliminating the X block (saturated, block
    order X >> W) leaves exactly the W-only relation module.  The step
    coordinates w.r.t. the lattice basis generate Z^r, restoring the theorem
    hypothesis for the reduced instance.
    """
    pres = sub.presentation
    r = len(basis_rows)
    n = pres.n
    steps_sub = []
    for a in sub.steps:
        coords = linalg.lattice_coordinates(basis_rows, list(a))
        if coords is None:
            raise AssertionError("step outside its own lattice")
        steps_sub.append(tuple(coords))
    nv = r + n
    d = pres.d
    cols = []
    for y, a2 in zip(sub.ys, steps_sub):
        col = [_embed_poly(p, r) for p in y]
        wmono = [0] * r
        for t, v in enumerate(a2):
            wmono[t] = v
        sym = LaurentPoly.monomial(tuple(wmono) + (0,) * n) - LaurentPoly.one(nv)
        cols.append(col + [sym])
    for rel in pres.rels_N:
        cols.append([_embed_poly(-p, r) for p in rel] + [LaurentPoly.zero(nv)])
    rhos = []
    for t in range(r):
        w_e = [0] * r
        w_e[t] = 1
        x_e = [0] * n
        for i, v in enumerate(basis_rows[t]):
            x_e[i] = v
        rho = LaurentPoly.monomial(tuple(w_e) + (0,) * n) - LaurentPoly.monomial(
            (0,) * r + tuple(x_e)
        )
        rhos.append(rho)
    p_rows = d + 1
    for rho in rhos:
        for c in range(p_rows):
            col = [LaurentPoly.zero(nv) for _ in range(p_rows)]
            col[c] = rho
            cols.append(col)
    K = sub.K
    syz = laurent_syzygies(cols, p_rows, nv, deadline=deadline)
    fparts = [s[:K] for s in syz]
    fparts = [f for f in fparts if not all(q.is_zero() for q in f)]
    # eliminate the X block from the f-part span (saturated, X dominant)
    if not fparts:
        return [], steps_sub
    raws = [clear_vector(f, nv)[0] for f in fparts]
    x_block = tuple(range(r, nv))
    w_block = tuple(range(r))
    basis, _ = saturated_basis(raws, K, nv, deadline=deadline,
                               var_blocks=[x_block, w_block])
    gens_w = []
    for e in basis:
        if all(all(mono[i] == 0 for i in x_block) for _, mono in e.vec):
            vec = raw_to_vector(e.vec, K, nv)
            reduced = [
                LaurentPoly(r, {tuple(mono[:r]): c for mono, c in q.terms.items()})
                for q in vec
            ]
            gens_w.append(normalize_unit(reduced, r))
    return gens_w, steps_sub


def _decide_generating_set(sub: GeneratorSet, budget: Budget,
                           deadline: Optional[float]) -> Verdict:
    """Group Problem for `sub`, with sublattice reduction when its steps do
    not span Z^n.  Past `deadline` the verdict is UNKNOWN with `timed_out`."""
    _, full = linalg.lattice_rank_and_full(sub.steps, sub.n)

    def verify(word):
        return verify_witness(word, sub)

    try:
        if full:
            basis = syzygy_basis(sub.presentation, sub.ys, sub.steps, deadline=deadline)
            return decide_core(basis.generators, sub.steps, sub.K, sub.n, budget,
                               verify, deadline)
        lattice_basis = linalg.hermite_row_basis(sub.steps)
        gens_w, steps_w = _repose_sublattice(sub, lattice_basis, deadline)
        return decide_core(gens_w, steps_w, sub.K, len(lattice_basis), budget,
                           verify, deadline)
    except GroebnerBudgetError:
        return _unknown(budget, timed_out=True)


def decide_subset(gens: GeneratorSet, indices: Sequence[int], budget: Budget,
                  deadline: Optional[float] = None) -> Verdict:
    """Group Problem for the sub-generating-set at the given 1-based indices,
    with sublattice reduction when the steps do not span Z^n.

    `deadline` (a `time.monotonic()` value) bounds the Groebner phases and
    the search; by default `budget.timeout` starts at entry.  Past it the
    verdict is UNKNOWN with `timed_out`."""
    if deadline is None:
        deadline = _deadline(budget)
    verdict = _decide_generating_set(gens.subset(indices), budget, deadline)
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


def _decide_subsets(gens: GeneratorSet, subsets, budget: Budget) -> Verdict:
    """YES from the first subset that generates a group; NO once every
    subset is refuted; otherwise UNKNOWN, naming every subset left without a
    verdict.  One deadline, started here, covers all subsets: once it has
    passed, the remaining subsets are not tried and the report also says
    `timed_out`."""
    deadline = _deadline(budget)
    unresolved = []
    refutations = []
    for subset in map(list, subsets):
        if _passed(deadline):
            unresolved.append(subset)
            continue
        v = decide_subset(gens, subset, budget, deadline)
        if v.kind == "yes":
            return v
        if v.kind == "unknown":
            unresolved.append(subset)
        else:
            refutations.append({"subset": subset, "certificate": v.certificate})
    if unresolved:
        report = {"reason": "some subsets unresolved", "unresolved": unresolved}
        if _passed(deadline):
            report["timed_out"] = True
        return Verdict(kind="unknown", budget_report=report)
    return Verdict(kind="no", certificate={"subsets": refutations})


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
    subsets = [[target]] + [sorted([target, *extra]) for extra in _subsets(rest)]
    return _decide_subsets(gens, subsets, budget or Budget())
