import itertools
import random
from functools import lru_cache
from typing import Optional, Sequence

import pytest

from semizn import geometry, linalg, positions
from semizn.decide import Budget, decide_group
from semizn.geometry import convex_hull, is_face_accessible
from semizn.ggraph import StepGraph
from semizn.laurent import LaurentPoly
from semizn.algebra import residual
from semizn.positions import check_escape_condition, graph_from_positions, position_polynomials

from conftest import crossing_indices, free_presentation, leading_indices, mono
from corpus import no_instances, yes_instances

def check_full_image(fs) -> bool:
    return all(not f.is_zero() for f in fs)


def check_symmetry(fs: Sequence[LaurentPoly], steps) -> bool:
    """Whether sum f_i * (X^{a_i} - 1) = 0, by multiplying polynomials: the
    reference for `StepGraph.is_symmetric`, the one symmetry test the escape
    check runs."""
    n = fs[0].n
    acc = LaurentPoly.zero(n)
    for f, a in zip(fs, steps):
        acc = acc + f * (LaurentPoly.monomial(tuple(a)) - LaurentPoly.one(n))
    return acc.is_zero()


def check_neutral(fs, presentation, ys, steps) -> bool:
    """Whether the graph of `fs` represents the neutral element: the
    neutrality half of `algebra.residual`.  Only meaningful (and only
    accepted) for symmetric tuples."""
    if not check_symmetry(fs, steps):
        raise ValueError("neutrality test requires a symmetric tuple")
    return residual(fs, presentation, ys, steps)[1].is_zero()


FIG_STEPS = [(-2, 3), (2, 0), (0, -2)]
FIG_GRAPH = StepGraph(
    FIG_STEPS,
    [((0, 0), 1), ((2, -1), 1), ((-2, 3), 2), ((2, 3), 3), ((3, 1), 3)],
)
FIG_FS = [
    LaurentPoly(2, {(0, 0): 1, (2, -1): 1}),
    LaurentPoly(2, {(-2, 3): 1}),
    LaurentPoly(2, {(2, 3): 1, (3, 1): 1}),
]


def test_position_polynomials_figure():
    assert position_polynomials(FIG_GRAPH) == FIG_FS


def test_position_polynomials_small():
    single = StepGraph([(0,)], [((0,), 1)])
    assert position_polynomials(single) == [LaurentPoly.one(1)]
    pair = StepGraph([(1,), (-1,)], [((0,), 1), ((1,), 2)])
    assert position_polynomials(pair) == [LaurentPoly.one(1), mono((1,))]


def test_graph_from_positions_round_trip(rng):
    assert graph_from_positions(FIG_FS, FIG_STEPS) == FIG_GRAPH
    assert graph_from_positions([LaurentPoly.one(1), mono((1,))], [(1,), (-1,)]) == StepGraph(
        [(1,), (-1,)], [((0,), 1), ((1,), 2)]
    )
    # multiplicity-2 coefficient gives two parallel edges
    g = graph_from_positions([LaurentPoly(1, {(0,): 2})], [(1,)])
    assert g.counts == {((0,), 1): 2} and g == StepGraph([(1,)], [((0,), 1), ((0,), 1)])
    with pytest.raises(ValueError):
        graph_from_positions([LaurentPoly(1, {(0,): -1})], [(1,)])
    for _ in range(30):
        steps = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(rng.randint(1, 3))]
        edges = [
            (tuple(rng.randint(-2, 2) for _ in range(2)), rng.randint(1, len(steps)))
            for _ in range(rng.randint(1, 6))
        ]
        g = StepGraph(steps, edges)
        assert graph_from_positions(position_polynomials(g), steps) == g


def test_leading_and_crossing_indices():
    assert leading_indices({1, 2, 3}, FIG_FS, (0, 1)) == frozenset({2, 3})
    assert crossing_indices(FIG_STEPS, (0, 1)) == frozenset({1, 3})
    # invariance under positive scaling
    assert leading_indices({1, 2, 3}, FIG_FS, (0, 7)) == frozenset({2, 3})
    assert crossing_indices(FIG_STEPS, (0, 7)) == frozenset({1, 3})
    # singleton subset
    assert leading_indices({1}, FIG_FS, (0, 1)) == frozenset({1})
    # all-zero subset: every index attains -inf
    zs = [LaurentPoly.zero(1), LaurentPoly.one(1)]
    assert leading_indices({1}, zs, (1,)) == frozenset({1})
    with pytest.raises(ValueError):
        leading_indices(set(), FIG_FS, (0, 1))


def test_check_symmetry_and_neutral():
    fs = [LaurentPoly.one(1), mono((1,))]
    steps = [(1,), (-1,)]
    assert check_symmetry(fs, steps)
    pres = free_presentation(1)
    ys = [[LaurentPoly.one(1)], [mono((-1,), -1)]]
    assert check_neutral(fs, pres, ys, steps)
    assert not check_full_image([LaurentPoly.one(1), LaurentPoly.zero(1)])
    asym = [LaurentPoly.one(1), LaurentPoly.zero(1)]
    assert not check_symmetry(asym, steps)
    # the reference agrees with the symmetry half of `algebra.residual`
    assert residual(fs, pres, ys, steps)[0].is_zero()
    assert not residual(asym, pres, ys, steps)[0].is_zero()
    with pytest.raises(ValueError):
        check_neutral(asym, pres, ys, steps)


def test_check_escape_condition_examples():
    fs = [LaurentPoly.one(1), mono((1,))]
    ok, faces = check_escape_condition(fs, [(1,), (-1,)])
    assert ok and all(f["accessible"] for f in faces)
    # loop-only generator: no direction crosses
    ok, faces = check_escape_condition([LaurentPoly.one(1)], [(0,)])
    assert not ok and not all(f["accessible"] for f in faces)
    with pytest.raises(ValueError):
        check_escape_condition([LaurentPoly.zero(1)], [(0,)])


def test_check_escape_condition_preconditions():
    with pytest.raises(ValueError, match="coefficients in N"):
        check_escape_condition([LaurentPoly(1, {(0,): -1})], [(0,)])
    with pytest.raises(ValueError, match="symmetric"):
        check_escape_condition([LaurentPoly.one(1), LaurentPoly.zero(1)], [(1,), (-1,)])


def test_check_escape_invariances():
    steps = [(1,), (-1,)]
    fs = [LaurentPoly.one(1), mono((1,))]
    scaled = [f.scale(3) for f in fs]
    shifted = [f.shift((-2,)) for f in fs]
    for variant in (scaled, shifted):
        ok, _ = check_escape_condition(variant, steps)
        assert ok


def _random_graph(rng, force_symmetric):
    n = 2
    if force_symmetric:
        half = rng.randint(1, 2)
        steps = []
        for _ in range(half):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            steps.extend([a, tuple(-x for x in a)])
        edges = []
        for _ in range(rng.randint(1, 4)):
            s = (rng.randint(-3, 3), rng.randint(-3, 3))
            k = rng.randint(1, half) * 2 - 1
            edges.append((s, k))
            edges.append((tuple(x + y for x, y in zip(s, steps[k - 1])), k + 1))
    else:
        K = rng.randint(1, 4)
        steps = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(K)]
        edges = [
            ((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(1, K))
            for _ in range(rng.randint(1, 8))
        ]
    return StepGraph(steps, edges)


def test_structural_equivalence_mini_corpus(rng):
    """Graph-side predicates agree with the polynomial-side ones (the full
    500-instance run lives in the acceptance suite).

    The face-accessibility and neutrality comparisons apply to symmetric
    graphs: position polynomials record edge starts only, so a
    destination-only sink vertex (impossible under symmetry) breaks the
    correspondence for arbitrary graphs."""
    pres = free_presentation(2)
    for i in range(60):
        g = _random_graph(rng, force_symmetric=(i % 2 == 0))
        fs = position_polynomials(g)
        assert check_full_image(fs) == g.is_full_image()
        assert check_symmetry(fs, g.steps) == g.is_symmetric()
        if g.is_symmetric():
            geometric, _ = is_face_accessible(g)
            algebraic, _ = check_escape_condition(fs, g.steps)
            assert geometric == algebraic
            from semizn.group import GeneratorSet, GroupElement
            from conftest import random_poly

            ys = [[random_poly(rng, 2, max_terms=1)] for _ in range(g.K)]
            gens = GeneratorSet(
                pres, [GroupElement(pres, y, a) for y, a in zip(ys, g.steps)]
            )
            assert check_neutral(fs, pres, ys, g.steps) == g.represented_element(gens).is_neutral()


# ---------------------------------------------------------------------------
# The face check against the refined-fan check it replaced
# ---------------------------------------------------------------------------

def ref_check_escape_condition(fs: Sequence[LaurentPoly], subset, out_labels, steps,
                               want_cells: bool = False):
    """The universal escape condition: for every nonzero direction v, some
    index of maximal v-degree within `subset` either crosses v's hyperplane
    or belongs to `out_labels`.

    Discharged on the refined fan over the hull of the union of the subset's
    supports and the hyperplanes a_i^⊥.  Returns (ok, violating_direction,
    cells) where cells is a per-representative profile when requested.
    Rejects the degenerate all-zero subset explicitly.
    """
    subset = sorted(subset)
    out_labels = frozenset(out_labels)
    support = set()
    for i in subset:
        support |= fs[i - 1].support()
    if not support:
        raise ValueError("escape condition undefined: all polynomials of the subset are zero")
    violating: Optional[tuple] = None
    cells = []
    ok = True
    for v in geometry.refined_fan([list(support)], steps):
        M = leading_indices(subset, fs, v)
        O = crossing_indices(steps, v)
        hit = bool((O | out_labels) & M)
        if want_cells:
            cells.append({
                "direction": list(v),
                "leading": sorted(M),
                "crossing": sorted(O),
                "ok": hit,
            })
        if not hit and ok:
            ok = False
            violating = v
        if not hit and not want_cells:
            break
    return ok, violating, cells


def _reference(fs, steps) -> bool:
    return ref_check_escape_condition(fs, range(1, len(fs) + 1), frozenset(), steps)[0]


def _symmetric_tuple(rng, n, K):
    """A sum of closed walks over K steps in Z^n, as position polynomials.

    K - 1 steps are drawn from [-1, 1]^n and the last closes a walk that
    uses each of them once or twice; a quarter of the step sets lie in a
    proper subspace, and some steps are zero.  Each walk takes a label
    multiset m in [0, 2]^K with sum m_i a_i = 0 (biased towards ones whose
    steps span Z^n) in a random order from a random start."""
    while True:
        rank = n if rng.random() < 0.75 else max(n - 1, 0)
        steps = [tuple(rng.randint(-1, 1) if j < rank else 0 for j in range(n))
                 for _ in range(K - 1)]
        mult = [rng.randint(1, 2) for _ in steps]
        steps.append(tuple(-sum(m * a[j] for m, a in zip(mult, steps)) for j in range(n)))
        rng.shuffle(steps)
        if rng.random() < 0.15:
            steps[rng.randrange(K)] = (0,) * n
        kernel = [m for m in itertools.product(range(3), repeat=K) if any(m) and all(
            sum(mi * a[j] for mi, a in zip(m, steps)) == 0 for j in range(n))]
        if kernel:
            break
    spanning = [m for m in kernel
                if linalg.rank([list(a) for a, mi in zip(steps, m) if mi], n) == n]
    terms = [dict() for _ in range(K)]
    for _ in range(rng.randint(1, 3 if n < 3 else 1)):  # n = 3 fans are slow
        m = rng.choice(spanning if spanning and rng.random() < 0.6 else kernel)
        labels = [i for i, mi in enumerate(m) for _ in range(mi)]
        rng.shuffle(labels)
        s = tuple(rng.randint(-1, 1) if j < rank else 0 for j in range(n))
        for i in labels:
            terms[i][s] = terms[i].get(s, 0) + 1
            s = tuple(x + y for x, y in zip(s, steps[i]))
    return [LaurentPoly(n, t) for t in terms], steps


@lru_cache(maxsize=None)
def _seeded_cases():
    """400 seeded symmetric tuples with coefficients in N, n 0-3 and K 1-4
    (n = 3 gets a tenth of them: its refined fans take seconds), each with
    the reference verdict."""
    rng = random.Random(1201)
    out = []
    for c in range(400):
        n = (0, 1, 1, 1, 1, 2, 2, 2, 2, 3)[c % 10]
        fs, steps = _symmetric_tuple(rng, n, 1 + (c // 10) % 4)
        out.append((fs, steps, _reference(fs, steps)))
    return out


def _mismatches(cases):
    return [(fs, steps) for fs, steps, want in cases
            if check_escape_condition(fs, steps)[0] != want]


def test_escape_condition_agrees_with_reference():
    cases = _seeded_cases()
    assert not _mismatches(cases)
    assert sum(want for _, _, want in cases) >= 100
    assert sum(not want for _, _, want in cases) >= 100
    hulls = [convex_hull(sorted(set().union(*(f.support() for f in fs)))) for fs, _, _ in cases]
    assert sum(P.dim < P.n for P in hulls) >= 50          # lower-dimensional supports
    assert sum(not any(a) for _, steps, _ in cases for a in steps) >= 50  # zero steps
    for n in range(4):
        assert any(fs[0].n == n and want for fs, _, want in cases)


def _without_complement(graph):
    """Mutant: drops the complement-basis entries of the face report."""
    _, report = is_face_accessible(graph)
    report = [r for r in report if "reason" not in r]
    return all(r["accessible"] for r in report), report


def _vertices_only(graph):
    """Mutant: checks only the vertices of the hull."""
    _, report = is_face_accessible(graph)
    report = [r for r in report if "reason" in r or len(r["face"]) == 1]
    return all(r["accessible"] for r in report), report


@pytest.mark.parametrize("mutant", [_without_complement, _vertices_only])
def test_escape_condition_agreement_catches_mutants(monkeypatch, mutant):
    monkeypatch.setattr(geometry, "is_face_accessible", mutant)
    assert _mismatches(_seeded_cases())


def test_escape_condition_agrees_on_corpus_candidates(monkeypatch):
    """Every candidate the positive search tests on the corpus instances."""
    real = positions.check_escape_condition
    seen = []

    def recording(fs, steps):
        seen.append((fs, steps))
        return real(fs, steps)

    monkeypatch.setattr(positions, "check_escape_condition", recording)
    for _, gens in yes_instances(20) + no_instances(10):
        decide_group(gens, Budget())
    assert len(seen) >= 20
    assert [real(fs, steps)[0] for fs, steps in seen] == [_reference(fs, steps) for fs, steps in seen]
