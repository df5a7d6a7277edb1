import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from semizn import decide, geometry, groebner, jsonio, linalg, positions
from semizn.algebra import (LaurentSubmodule, ModulePresentation, clear_vector, laurent_syzygies,
                            syzygy_basis)
from semizn.closure import ClosureBudgetError
from semizn.decide import (Budget, decide_group, decide_identity, decide_inverse,
                           decide_subset, locr_events, procedure_a_events,
                           sample_points, verify_witness)
from semizn.ggraph import StepGraph, graph_of_word
from semizn.groebner import (DeadlineExceeded, TermOrder, check_deadline, deadline_scope,
                             saturated_basis)
from semizn.group import GeneratorSet, GroupElement, evaluate_word
from semizn.laurent import LaurentPoly

import conftest
from conftest import (fails_after, fraction_locr_events, free_presentation, inverse_pair,
                      lattice_coordinates, long_witness, mono, normalize_unit, oracle_bfs,
                      random_poly, raw_to_vector, ref_decide_subsets, ref_repose)
from corpus import no_instances, yes_instances


def one_way():
    pres = free_presentation(1)
    return GeneratorSet(pres, [GroupElement(pres, [LaurentPoly.zero(1)], (1,))])


def test_decide_group_inverse_pair():
    v = decide_group(inverse_pair(), Budget())
    assert v.kind == "yes"
    assert v.witness["word"] == [1, 2]
    assert verify_witness(v.witness["word"], inverse_pair())


def test_decide_group_one_way_no():
    v = decide_group(one_way(), Budget())
    assert v.kind == "no"
    assert v.certificate["sample"] == ["1"]


def test_exhausted_budget_unknown():
    """With no sample and only window 0, a set that generates no group ends
    UNKNOWN: the one-way set, and one generator (1, step 0), which is
    re-posed at rank 0, where the schedule still has no point at count 0."""
    step0 = jsonio.instance_from_json({"module": {"n": 1, "d": 1, "rels_N": []},
                                       "generators": [{"a": [0], "y": [[{"c": "1", "e": [0]}]]}]})
    for gens in (one_way(), step0):
        v = decide_group(gens, Budget(degree=0, samples=0))
        assert v.kind == "unknown"
        assert v.budget_report["samples"] == 0
        assert decide_group(gens, Budget(degree=0)).kind == "no"


def _first_event(events):
    return next((e for e in events if e is not None), None)


def _positive_search(gens):
    basis = syzygy_basis(gens.presentation, gens.ys, gens.steps).generators
    return _first_event(procedure_a_events(basis, gens, gens.steps, Budget()))


def _refuter(gens):
    basis = syzygy_basis(gens.presentation, gens.ys, gens.steps).generators
    return _first_event(locr_events(basis, gens.K, gens.n, Budget()))


def test_procedure_a_alone():
    v = _positive_search(inverse_pair())
    assert v.kind == "yes" and verify_witness(v.witness["word"], inverse_pair())
    # single non-invertible generator with zero step: empty relation module
    pres = free_presentation(1)
    gens = GeneratorSet(pres, [GroupElement(pres, [LaurentPoly.one(1)], (0,))])
    assert _positive_search(gens) is None
    assert _refuter(gens).kind == "no"


def test_locr_refute_alone():
    assert _refuter(one_way()).kind == "no"
    assert _refuter(inverse_pair()) is None  # indeed a group


def test_refuter_matches_the_fraction_reference():
    """Seeded generator lists (n = 0..3, K <= 5, negative exponents, the
    first 12 samples): every event and certificate of `locr_events`, whose
    entries are ints where integral, equals the all-Fraction reference's."""
    rng = random.Random(33)
    seen = Counter()
    for _ in range(400):
        n, K = rng.randint(0, 3), rng.randint(1, 5)
        gens = [[random_poly(rng, n, max_terms=3, exp=2, coef=4) for _ in range(K)]
                for _ in range(rng.randint(0, 3))]
        got = list(locr_events(gens, K, n, Budget()))
        assert got == list(fraction_locr_events(gens, K, n, Budget())), gens
        if got[-1] is None:
            seen["feasible"] += 1
            continue
        cert = got[-1].certificate
        seen["late" if cert["samples_tested"] > 1 else "first"] += 1
        seen["fractional_sample"] += any("/" in x for x in cert["sample"])
    assert min(seen.values()) >= 15, seen


def test_sample_schedule_deterministic():
    a = list(sample_points(2, 10))
    b = list(sample_points(2, 10))
    assert a == b
    assert a[0] == (Fraction(1), Fraction(1))
    assert len(set(a)) == 10
    assert all(x > 0 for pt in a for x in pt)
    assert list(sample_points(0, 5)) == [()]
    assert list(sample_points(1, 9)) == [(Fraction(x),) for x in
                                         ("1", "1/2", "2", "1/3", "3", "1/4", "2/3", "3/2", "4")]


# -- reference: sample_points before its scalar ladder was built once ---------
# Kept verbatim as an oracle: the schedule picks the refuter's sample points,
# which NO certificates name.

def ref_sample_points(n: int, count: int, seed: int):
    """Deterministic positive rational sample schedule: all-ones first, then
    a low-height grid spiral, then seeded pseudo-random rationals."""
    if n == 0:
        yield ()
        return
    emitted = 0
    scalars = [Fraction(1)]
    h = 2
    while len(scalars) < 40:
        for p in range(1, h):
            q = h - p
            f = Fraction(p, q)
            if f not in scalars:
                scalars.append(f)
        h += 1
    level = 1
    rng = random.Random(seed)
    seen = set()
    while emitted < count:
        if level <= 6:
            for combo in itertools.product(range(level), repeat=n):
                if max(combo) == level - 1:
                    pt = tuple(scalars[i] for i in combo)
                    if pt not in seen:
                        seen.add(pt)
                        yield pt
                        emitted += 1
                        if emitted >= count:
                            return
            level += 1
        else:
            pt = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(n))
            if pt not in seen:
                seen.add(pt)
                yield pt
                emitted += 1


def height_spiral(n: int):
    """The grid spiral over the positive rationals of height <= 40, sorted
    by height p + q and then p: level L holds the points whose coordinates
    all lie among the first L rationals and include the L-th."""
    ladder = sorted({Fraction(p, q) for p in range(1, 40) for q in range(1, 40)},
                    key=lambda f: (f.numerator + f.denominator, f.numerator))
    for top in range(len(ladder)):
        for pt in itertools.product(ladder[:top + 1], repeat=n):
            if ladder[top] in pt:
                yield pt


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_sample_schedule_matches_reference(n):
    """The reference's grid prefix (levels 1-6, 6^n points) does not depend
    on its seed, and the schedule equals it there for every seed.  Past the
    prefix, where the reference drew seeded random points, the schedule
    continues the spiral by height, every point once."""
    prefix = 6 ** n if n else 1
    for count in (0, 1, min(12, prefix), prefix):
        for seed in (0, 1, 7):
            # [:count]: at n = 0 the reference yields its one point even for
            # count 0, which let `samples=0` refute at rank 0
            want = list(ref_sample_points(n, count, seed))[:count]
            assert list(sample_points(n, count)) == want
    if n:
        longer = list(sample_points(n, prefix + 60))
        assert longer == list(itertools.islice(height_spiral(n), prefix + 60))
        assert len(set(longer)) == len(longer)


def k5_instance():
    """Five n = 1 generators with nonzero steps: no single generator is a
    group, so a subset loop has work left after its first subset."""
    pres = free_presentation(1)
    elements = [GroupElement(pres, [mono((e,), c)], (a,))
                for e, c, a in [(0, 1, 1), (1, -1, -1), (0, 2, 2), (-1, 1, 1), (2, 1, -2)]]
    return GeneratorSet(pres, elements)


def _is_one_signed(steps, subset) -> bool:
    """Whether some coordinate of the subset's steps has nonzero entries,
    all of one sign."""
    return any(len({x > 0 for x in column if x}) == 1
               for column in zip(*(steps[i - 1] for i in subset)))


def _recorded_subset_calls(monkeypatch) -> list:
    """The list that records the indices of every `decide_subset` call,
    which still decides."""
    calls = []
    real = decide.decide_subset

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(decide, "decide_subset", counted)
    return calls


def test_one_deadline_for_all_subsets(monkeypatch):
    calls = _recorded_subset_calls(monkeypatch)
    # the steps are 1, -1, 2, 1, -2: every singleton is one-signed and
    # refuted by its sign, so the first subset decided is [1, 2] for
    # Identity and [2, 3] for Inverse with target 3, and the next in the
    # fixed order, [1, 3] and [3, 4], is the first untried one
    for run, first, second in ((lambda b: decide_identity(k5_instance(), b), [1, 2], [1, 3]),
                               (lambda b: decide_inverse(k5_instance(), 3, b), [2, 3], [3, 4])):
        calls.clear()
        v = run(Budget(timeout=0))
        assert calls == [first]
        assert v.kind == "unknown" and v.budget_report["timed_out"] is True
        # the one subset tried is unresolved; the report names the first untried one
        assert v.budget_report["unresolved"] == [first]
        assert v.budget_report["untried_from"] == second
    # without a timeout the calls are exactly the two-sided subsets, and
    # the NO lists all 31, the one-signed ones by their sign
    steps = k5_instance().steps
    fixed = [list(s) for k in range(1, 6) for s in itertools.combinations(range(1, 6), k)]
    calls.clear()
    v = decide_identity(k5_instance(), Budget(samples=2, degree=0))
    assert calls == [s for s in fixed if not _is_one_signed(steps, s)]
    assert v.kind == "no"
    entries = v.certificate["subsets"]
    assert [e["subset"] for e in entries] == fixed
    for e in entries:
        if _is_one_signed(steps, e["subset"]):
            assert conftest.check_one_signed(steps, e["subset"], e["certificate"]["one_signed"])
        else:
            assert "dual" in e["certificate"]


def test_a_timeout_report_does_not_grow_with_the_subsets():
    """n = 1, a free module, and the K = 20 generators (X^i, 1): once the
    deadline passes, Identity and Inverse stop, so the report names the few
    subsets tried and the first untried one, not the 2^20 - 1 or 2^19
    subsets, and Inverse does not list its subsets before trying one."""
    pres = free_presentation(1)
    gens = GeneratorSet(pres, [GroupElement(pres, [mono((i,))], (1,)) for i in range(20)])
    for run in (decide_identity, lambda g, b: decide_inverse(g, 1, b)):
        t0 = time.monotonic()
        v = run(gens, Budget(timeout=0.2))
        assert time.monotonic() - t0 < 10
        assert v.kind == "unknown" and v.budget_report["timed_out"] is True
        assert "untried_from" in v.budget_report
        assert len(jsonio.dumps(jsonio.verdict_to_json(v))) < 10_000


def test_a_walk_past_the_deadline_ends_unknown(monkeypatch):
    """Every subset of the K = 20 set (steps all 1) is one-signed, so the
    walk decides none: under `timeout=0` it stops at its first deadline
    check, before the 4,096th subset, and the run ends UNKNOWN with nothing
    unresolved, not NO."""
    calls = []
    monkeypatch.setattr(decide, "decide_subset", lambda *args: calls.append(args))
    pres = free_presentation(1)
    gens = GeneratorSet(pres, [GroupElement(pres, [mono((i,))], (1,)) for i in range(20)])
    v = decide_identity(gens, Budget(timeout=0))
    assert calls == []
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True
    assert v.budget_report["unresolved"] == []
    fixed = itertools.chain.from_iterable(
        itertools.combinations(range(1, 21), k) for k in range(1, 21))
    assert v.budget_report["untried_from"] == list(next(itertools.islice(fixed, 4095, None)))


def test_a_set_of_one_signed_steps_decides_no_subset(monkeypatch):
    """K = 12 steps all 1: every subset is refuted by its sign, with no
    `decide_subset` call, and the NO lists all 4,095 subsets."""
    calls = []
    monkeypatch.setattr(decide, "decide_subset", lambda *args: calls.append(args))
    pres = free_presentation(1)
    gens = GeneratorSet(pres, [GroupElement(pres, [mono((i,))], (1,)) for i in range(12)])
    v = decide_identity(gens, Budget())
    assert calls == []
    assert v.kind == "no"
    entries = v.certificate["subsets"]
    assert len(entries) == 4095
    assert [e["subset"] for e in entries] == [
        list(s) for k in range(1, 13) for s in itertools.combinations(range(1, 13), k)]
    assert all(e["certificate"] == {"one_signed": {"coordinate": 0, "sign": 1}}
               and conftest.check_one_signed(gens.steps, e["subset"],
                                             e["certificate"]["one_signed"])
               for e in entries)


def test_identity_at_index_a_million_decides_one_subset(monkeypatch):
    """Steps +-10^6 (y = 1 and -1): the singletons are refuted by their
    sign, so the one subset decided, re-posed at index 10^6, is [1, 2],
    and Identity is NO."""
    calls = _recorded_subset_calls(monkeypatch)
    pres = free_presentation(1)
    gens = GeneratorSet(pres, [GroupElement(pres, [LaurentPoly.one(1)], (10 ** 6,)),
                               GroupElement(pres, [LaurentPoly.constant(1, -1)], (-10 ** 6,))])
    v = decide_identity(gens, Budget())
    assert calls == [[1, 2]]
    assert v.kind == "no"
    entries = v.certificate["subsets"]
    assert [e["subset"] for e in entries] == [[1], [2], [1, 2]]
    assert [e["certificate"] for e in entries[:2]] == [
        {"one_signed": {"coordinate": 0, "sign": 1}}, {"one_signed": {"coordinate": 0, "sign": -1}}]
    assert "dual" in entries[2]["certificate"]


def test_sign_certificate_checker_rejects_wrong_entries():
    """`check_one_signed` reads only the steps: it accepts the certificate
    at the first one-signed coordinate and rejects a later or a two-sided
    coordinate, a flipped sign, a malformed entry and any entry for a
    two-sided subset."""
    steps = [(0, 1, 2), (0, 2, -1), (1, -1, 0), (-1, 1, 0)]
    check = conftest.check_one_signed
    assert check(steps, [1, 2], {"coordinate": 1, "sign": 1})
    assert check(steps, [3], {"coordinate": 0, "sign": 1})
    assert check(steps, [2, 4], {"coordinate": 0, "sign": -1})
    assert not check(steps, [1, 2], {"coordinate": 0, "sign": 1})  # all zero there
    assert not check(steps, [1, 2], {"coordinate": 2, "sign": 1})  # two-sided there
    assert not check(steps, [1], {"coordinate": 2, "sign": 1})  # one-signed, but not first
    assert not check(steps, [1, 2], {"coordinate": 1, "sign": -1})
    assert not check(steps, [3], {"coordinate": 0, "sign": -1})
    assert not check(steps, [3], {"coordinate": 3, "sign": 1})
    assert not check(steps, [3], {"coordinate": 0, "sign": True})
    assert not check(steps, [3], {"coordinate": 0, "sign": 1, "dual": ["1"]})
    for two_sided in ([3, 4], [1, 2, 3, 4]):
        assert not any(check(steps, two_sided, {"coordinate": t, "sign": s})
                       for t in range(3) for s in (1, -1))


def _subset_module(n: int, kind: str) -> ModulePresentation:
    """perfbench's four `subsets` modules in n variables: Z[X^pm],
    (Z/2)[X^pm], Z[X^pm]/(X_1 - 2) and Z[X^pm]/(X_1 + 1)."""
    one, x = (0,) * n, (1,) + (0,) * (n - 1)
    rels = {"free": [], "z2": [{one: 2}], "bs12": [{x: 1, one: -2}],
            "xplus1": [{x: 1, one: 1}]}[kind]
    return ModulePresentation(n=n, d=1, rels_N=[[LaurentPoly(n, t)] for t in rels])


def test_one_walk_matches_the_fixed_order(monkeypatch):
    """The one-walk driver against the fixed-order walk that decided every
    subset (`ref_decide_subsets`), on 300 seeded sets: n = 1 over the four
    `subsets` modules with K <= 5 and steps in [-2, 2]; n = 2 over Z[X^pm]
    and (Z/2)[X^pm] with K <= 3 and steps in [-1, 1]^2.  Identity and
    Inverse at every target, under `Budget()` and `Budget(samples=0)`
    (where every subset the refuter would settle is UNKNOWN).  Every YES
    has the reference's bytes.  Every NO lists the subsets in the fixed
    order: each one-signed one with exactly its sign certificate
    (`check_one_signed`), each other one with the reference's entry, byte
    for byte (its cached verdict where the reference is UNKNOWN).  A
    reference UNKNOWN becomes NO only when every subset it left unresolved
    is one-signed; otherwise its report keeps the two-sided ones, in order.
    `decide_subset` is a pure function of subset and budget, so both
    drivers read one cache of its verdicts."""
    import conftest
    cache = {}

    def cached(gens, indices, budget):  # the cache holds one set's verdicts
        key = (tuple(indices), budget.samples)
        if key not in cache:
            cache[key] = decide_subset(gens, indices, budget)
        return cache[key]

    monkeypatch.setattr(decide, "decide_subset", cached)
    monkeypatch.setattr(conftest, "decide_subset", cached)
    one_walk, pairs = decide._decide_subsets, Counter()

    def both(gens, subsets, budget):
        order, steps = [list(s) for s in subsets], gens.steps
        v = one_walk(gens, iter(order), budget)
        new, ref = (jsonio.verdict_to_json(u)
                    for u in (v, ref_decide_subsets(gens, order, budget)))
        pairs[ref["verdict"], new["verdict"]] += 1
        if ref["verdict"] == "yes" or new["verdict"] == "yes":
            assert jsonio.dumps(new) == jsonio.dumps(ref)
        elif new["verdict"] == "unknown":
            report = dict(ref["budget_report"])
            report["unresolved"] = [s for s in report["unresolved"]
                                    if not _is_one_signed(steps, s)]
            assert ref["verdict"] == "unknown" and new["budget_report"] == report
        else:
            entries = new["certificate"]["subsets"]
            assert [e["subset"] for e in entries] == order
            if ref["verdict"] == "no":
                two_sided = ref["certificate"]["subsets"]
            else:
                assert all(_is_one_signed(steps, s) for s in ref["budget_report"]["unresolved"])
                two_sided = [{"subset": s, "certificate": cache[(tuple(s), budget.samples)].certificate}
                             for s in order]
            for e, r in zip(entries, two_sided):
                if _is_one_signed(steps, e["subset"]):
                    assert list(e["certificate"]) == ["one_signed"]
                    assert conftest.check_one_signed(steps, e["subset"],
                                                     e["certificate"]["one_signed"])
                else:
                    assert jsonio.dumps(e) == jsonio.dumps(r)
        return v

    monkeypatch.setattr(decide, "_decide_subsets", both)
    rng = random.Random(3607)
    for case in range(300):
        n = 1 + case % 2
        pres = _subset_module(n, ["free", "z2", "bs12", "xplus1"][case // 2 % (4 if n == 1 else 2)])
        K = rng.randint(1, 5 if n == 1 else 3)
        step = 3 - n  # steps in [-2, 2] at n = 1, [-1, 1]^2 at n = 2
        gens = GeneratorSet(pres, [
            GroupElement(pres, [random_poly(rng, n, max_terms=2 if n == 1 else 1, exp=1, coef=2)],
                         tuple(rng.randint(-step, step) for _ in range(n)))
            for _ in range(K)])
        cache.clear()
        for budget in (Budget(), Budget(samples=0)):
            decide_identity(gens, budget)
            for target in range(1, K + 1):
                decide_inverse(gens, target, budget)
    print(f"(reference, one walk) verdicts: {dict(pairs)}; "
          f"reference UNKNOWN now NO: {pairs['unknown', 'no']}")
    kinds = Counter()
    for (ref, _), count in pairs.items():
        kinds[ref] += count
    assert min(kinds.values()) >= 500, kinds
    assert set(pairs) == {("yes", "yes"), ("no", "no"), ("unknown", "unknown"), ("unknown", "no")}
    assert min(pairs.values()) >= 100, pairs


def test_groebner_deadline_is_unknown(monkeypatch):
    def out_of_time(*args, **kwargs):
        raise DeadlineExceeded("deadline exceeded")

    monkeypatch.setattr(decide, "syzygy_basis", out_of_time)
    v = decide_subset(inverse_pair(), [1, 2], Budget(timeout=60))
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True


def rng555_instance20():
    """Instance 20 of acceptance criterion 5's rng 555 draws: n = 2, K = 4,
    no relations.  Its syzygy phase alone runs for well over ten seconds."""
    pres = free_presentation(2)
    return GeneratorSet(pres, [GroupElement(pres, [LaurentPoly(2, y)], a) for y, a in [
        ({(2, -2): -2}, (-1, 1)), ({(1, 0): -1}, (1, 1)),
        ({(1, -1): -2, (0, 1): 3}, (-2, 2)), ({(0, 0): -3, (1, 1): -2}, (2, 1))]])


def test_group_timeout_bounds_the_syzygy_phase(monkeypatch):
    """The Groebner deadline is checked before every pair: a clock skewed
    past it while the first pair is reduced lets no further pair start."""
    skew, late = [0.0], []  # late: per pair, whether it started past the skew
    monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + skew[0]))
    real_pair_seeds = groebner._pair_seeds

    def pair_seeds(basis, i, j):
        late.append(skew[0] > 0)
        skew[0] = 1e9
        return real_pair_seeds(basis, i, j)

    monkeypatch.setattr(groebner, "_pair_seeds", pair_seeds)
    v = decide_group(rng555_instance20(), Budget(timeout=3600))
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True
    assert late == [False]


@pytest.mark.parametrize("phase, nth", [("hull", 1), ("graph", 1), ("graph", 2), ("circuit", 4),
                                         ("trace", 2)])
def test_group_timeout_bounds_the_witness(monkeypatch, phase, nth):
    """The escape check's hull checks the deadline once per point, and the
    witness checks it after the positions' graph, after its connectivity
    test and closure, before each of the Euler circuit's two graph tests and
    every 4096 steps of its walk, and every 4096 letters of the word's
    trace.  A clock skewed past the deadline at the nth check of a phase
    ends the run there, `unknown` with `timed_out`: no further check is
    made, so no phase goes on."""
    current, reads = [None], []  # reads: the phase of every deadline check

    def clock():
        reads.append(current[0])
        return time.monotonic() + (1e9 if reads.count(phase) >= nth else 0.0)

    def entering(name, fn):
        def wrapped(*args, **kwargs):
            current[0] = name
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=clock))
    monkeypatch.setattr(positions, "graph_from_positions",
                        entering("graph", positions.graph_from_positions))
    monkeypatch.setattr(StepGraph, "euler_circuit", entering("circuit", StepGraph.euler_circuit))
    monkeypatch.setattr(decide, "graph_of_word", entering("trace", graph_of_word))
    monkeypatch.setattr(geometry, "convex_hull", entering("hull", geometry.convex_hull))
    v = decide_group(long_witness(), Budget(timeout=3600))
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True
    assert reads.count(phase) == nth and reads[-1] == phase


def test_group_timeout_bounds_the_window_rounds(monkeypatch):
    """A seeded n = 3 `ghk` set, no relations: its syzygy phase is quick,
    but window 1 of the positive search takes over 25 support rounds of a
    54-variable LP with 221-304 rows, each of them seconds long.  The
    deadline is checked before every round: a skewed clock passes it while
    the first round of window 1 runs, and no LP starts after that."""
    pres = free_presentation(3)
    gens = GeneratorSet(pres, [GroupElement(pres, [LaurentPoly(3, y)], a) for y, a in [
        ({(1, 1, 0): 1}, (0, 1, 0)), ({}, (0, 0, -1)), ({(-1, 0, -1): 1}, (1, 0, 1)),
        ({(0, 0, 0): -1, (-2, 0, -2): -1}, (-1, -1, 0))]])
    skew, window, calls = [0.0], [None], []  # calls: (window, started past the deadline)
    monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + skew[0]))
    real_candidate, real_lp = decide._window_candidate, linalg.lp_feasible_point

    def candidate(generators, K, n, w, *rest):
        window[0] = w
        try:
            return real_candidate(generators, K, n, w, *rest)
        finally:
            window[0] = None

    def lp_feasible_point(cons, num_vars):
        calls.append((window[0], skew[0] > 0))
        point = real_lp(cons, num_vars)
        if window[0] == 1:
            skew[0] = 1e9
        return point

    monkeypatch.setattr(decide, "_window_candidate", candidate)
    monkeypatch.setattr(linalg, "lp_feasible_point", lp_feasible_point)
    v = decide_group(gens, Budget(timeout=3600))
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True
    assert [w for w, _ in calls].count(1) == 1
    assert not any(late for _, late in calls)


def test_group_timeout_bounds_the_membership_check(monkeypatch):
    """Z[X^pm]/(X - 2) with (X, 1) and (-2X^-1, -1): the word 1 2 leaves the
    nonzero neutrality residual X - 2, so checking it saturates N, the one
    saturation of the run.  The run's deadline scope is set inside that
    saturation, and a clock skewed past the deadline as it starts ends the
    run `unknown` with `timed_out`."""
    def torsion_pair():
        pres = ModulePresentation(n=1, d=1, rels_N=[[LaurentPoly(1, {(1,): 1, (0,): -2})]])
        return GeneratorSet(pres, [GroupElement(pres, [LaurentPoly(1, y)], a)
                                   for y, a in [({(1,): 1}, (1,)), ({(-1,): -2}, (-1,))]])

    assert decide_group(torsion_pair(), Budget()).witness["word"] == [1, 2]
    skew, deadlines = [0.0], []
    monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + skew[0]))
    real = groebner.saturated_basis

    def saturated(*args, **kwargs):
        deadlines.append(groebner._DEADLINE.get())
        skew[0] = 1e9
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "saturated_basis", saturated)
    v = decide_group(torsion_pair(), Budget(timeout=3600))
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True
    assert len(deadlines) == 1 and deadlines[0] is not None


def test_group_timeout_reaches_inside_one_normal_form():
    """Z[X^pm]/(X - 2) with (X^(2^70) + 1, 1) and (1, -1): the syzygy run
    reduces X^(2^70) + 1 by a binomial in X, about 2^70 steps inside one
    normal form, which checks the deadline as it goes."""
    pres = ModulePresentation(n=1, d=1, rels_N=[[_n1_poly((1, 1), (0, -2))]])
    gens = GeneratorSet(pres, [GroupElement(pres, [_n1_poly((2 ** 70, 1), (0, 1))], (1,)),
                               GroupElement(pres, [LaurentPoly.one(1)], (-1,))])
    with fails_after(2):
        v = decide_group(gens, Budget(timeout=0.5))
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True


def test_group_timeout_reaches_inside_one_simplex_run():
    """A seeded n = 3 `ghk` set over (Z/2)[X^pm]: window 1 of the positive
    search starts with one LP of 258 rows, 108 variables and 2,342 pivots
    (about 8 s), so only a check inside the simplex ends it on time."""
    gens = jsonio.instance_from_json({
        "generators": [{"a": [-1, 0, 1], "y": [[{"c": "-2", "e": [0, 0, -1]}]]},
                       {"a": [0, 0, 1], "y": [[]]}, {"a": [-1, -1, 0], "y": [[]]},
                       {"a": [2, 1, -2], "y": [[{"c": "2", "e": [2, 1, -3]}]]}],
        "module": {"d": 1, "n": 3, "rels_N": [[[{"c": "2", "e": [0, 0, 0]}]]]}})
    with fails_after(1.5):
        v = decide_group(gens, Budget(degree=1, timeout=0.5))
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True


def test_repose_honours_the_deadline_at_a_large_index():
    """n = 1, y = 1 and -1, steps +-10^7: the steps span a sublattice of
    index 10^7, so the restriction of scalars builds a row per coset and
    the syzygy front reads columns of 10^7 entries.  Group and Identity
    (whose first subset tried is [1, 2]) stop at the deadline.  (At +-10^6
    Group decides NO in about 1 s, too close to the deadline to pin.)"""
    pres = free_presentation(1)
    gens = GeneratorSet(pres, [GroupElement(pres, [mono((0,), c)], (a,))
                               for c, a in [(1, 10**7), (-1, -10**7)]])
    for run in (decide_group, decide_identity):
        t0 = time.monotonic()
        with fails_after(5):
            v = run(gens, Budget(timeout=0.5))
        assert time.monotonic() - t0 < 1.5
        assert v.kind == "unknown" and v.budget_report["timed_out"] is True


def test_a_nested_scope_keeps_the_earlier_deadline():
    with deadline_scope(3600):
        outer = groebner._DEADLINE.get()
        with deadline_scope(7200), deadline_scope(None):
            assert groebner._DEADLINE.get() == outer
        with deadline_scope(-1):
            with deadline_scope(3600), pytest.raises(DeadlineExceeded):
                check_deadline()
        assert groebner._DEADLINE.get() == outer
        check_deadline()
    assert groebner._DEADLINE.get() is None


def test_the_scope_ends_with_a_timed_out_decision():
    """A timed-out decision leaves no deadline behind: the next call with
    no timeout decides as if it came first."""
    v = decide_group(rng555_instance20(), Budget(timeout=0))
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True
    assert groebner._DEADLINE.get() is None
    assert decide_group(inverse_pair(), Budget()).kind == "yes"
    v = decide_identity(k5_instance(), Budget(timeout=0))
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True
    assert groebner._DEADLINE.get() is None
    assert decide_identity(k5_instance(), Budget(samples=2, degree=0)).kind == "no"


def test_subset_indices_outside_the_set_are_refused():
    """Indices are 1-based: Python's own indexing would read 0 and -1 as
    the last two generators, {g3, g2} of Fig. 2 for [0, -1]."""
    pres = free_presentation(2)
    fig2 = GeneratorSet(pres, [GroupElement(pres, [LaurentPoly.zero(2)], a)
                               for a in [(-2, 3), (2, 0), (0, -2)]])
    assert fig2.subset([3, 2]).steps == [(0, -2), (2, 0)]
    for indices in ([0], [0, -1], [4], [1, 4]):
        with pytest.raises(ValueError):
            fig2.subset(indices)
        with pytest.raises(ValueError):
            decide_subset(fig2, indices, Budget())


_GB_GENS = [{(0, (2, 1)): 2, (0, (0, 0)): 3}, {(0, (1, 2)): 3, (0, (1, 0)): -2}]
_SIMPLEX_LP = [([1, 1], ">=", 1)]  # its point is nonzero, so phase 1 pivots at least once
_PHASES = {
    "buchberger": lambda: groebner.buchberger(_GB_GENS, TermOrder(2)),
    "syzygy_generators": lambda: groebner.syzygy_generators(_GB_GENS, 1, 2),
    "graph_of_word": lambda: graph_of_word(inverse_pair(), [1, 2]),
    "euler_circuit": lambda: StepGraph([(1,), (-1,)], [((0,), 1), ((1,), 2)]).euler_circuit((0,)),
    "window_search": lambda: decide._window_candidate(_relation_module(inverse_pair()), 2, 1, 0),
    "verify_witness": lambda: verify_witness([1, 2], inverse_pair()),
    "simplex": lambda: linalg.lp_feasible_point(_SIMPLEX_LP, 2),
}


def _relation_module(gens):
    return syzygy_basis(gens.presentation, gens.ys, gens.steps).generators


@pytest.mark.parametrize("phase", _PHASES)
def test_every_phase_stops_the_same_way(phase):
    """Each phase's entry point, from the Groebner runs and the simplex to
    the witness, checks an already-expired deadline and raises the one
    DeadlineExceeded; with no scope open it runs to the end."""
    _PHASES[phase]()
    with pytest.raises(DeadlineExceeded), deadline_scope(-1):
        _PHASES[phase]()


def test_the_simplex_checks_the_deadline_before_each_pivot(monkeypatch):
    """Under a scope the simplex reads the clock once before each pivot,
    and never without one; the check only aborts, so the point is the one
    found with no scope open."""
    reads, pivots = [], []
    monkeypatch.setattr(groebner, "time", SimpleNamespace(
        monotonic=lambda: reads.append(1) or time.monotonic()))
    real = linalg._Tableau._pivot

    def pivot(self, pr, pc):
        pivots.append(len(reads))
        return real(self, pr, pc)

    monkeypatch.setattr(linalg._Tableau, "_pivot", pivot)
    free = linalg.lp_feasible_point(_SIMPLEX_LP, 2)
    assert free[0] + free[1] >= 1 and len(pivots) >= 1 and not reads
    pivots.clear()
    with deadline_scope(3600):
        reads.clear()
        assert linalg.lp_feasible_point(_SIMPLEX_LP, 2) == free
    assert pivots == list(range(1, len(pivots) + 1)) and len(reads) == len(pivots)


def test_verify_witness_examples():
    gens = inverse_pair()
    assert verify_witness([1, 2], gens)
    assert not verify_witness([1], gens)
    assert not verify_witness([], gens)
    assert not verify_witness([1, 1, 2], gens)  # not neutral
    # graph witness: figure trace with zero module parts
    pres = free_presentation(2)
    els = [GroupElement(pres, [LaurentPoly.zero(2)], a) for a in [(-2, 3), (2, 0), (0, -2)]]
    g3 = GeneratorSet(pres, els)
    graph = graph_of_word(g3, [1, 2, 2, 3, 3, 1, 3])
    assert verify_witness(graph, g3)


def _word_oracle(word, gens):
    """The verification `verify_witness` replaced: the letter set, then the
    product of the letters, one group multiplication at a time."""
    return bool(word) and set(word) == set(range(1, gens.K + 1)) and \
        evaluate_word(gens, word).is_neutral()


def _mutations(rng, word, K):
    """`word`, and words near it: one letter dropped, two neighbours
    swapped, one letter appended, one letter replaced."""
    out = [word]
    if word:
        i = rng.randrange(len(word))
        out += [word[:i] + word[i + 1:], word[:i] + [rng.randint(1, K)] + word[i + 1:]]
    if len(word) > 1:
        i = rng.randrange(len(word) - 1)
        out.append(word[:i] + [word[i + 1], word[i]] + word[i + 2:])
    return out + [word + [rng.randint(1, K)]]


def _inverse_closed(rng, n, torsion):
    """m random elements and their inverses (letter i + m inverts letter i),
    over the free module of rank 1 or over a torsion quotient of it."""
    rels = [[LaurentPoly.constant(n, 2)]] if torsion else []
    pres = ModulePresentation(n=n, d=1, rels_N=rels)
    els = [GroupElement(pres, [random_poly(rng, n)],
                        tuple(rng.randint(-2, 2) for _ in range(n)))
           for _ in range(rng.randint(1, 3))]
    return GeneratorSet(pres, els + [g.inverse() for g in els])


def test_verify_witness_agrees_with_the_product():
    """On the corpus and on seeded inverse-closed sets at n = 0, 1, 2, the
    one-pass check of `verify_witness` gives the verdict of the product of
    the letters, for neutral words and for words near them: words that are
    not neutral, that miss a letter or that do not close.  The graph of a
    word gets the same verdict as the word."""
    rng = random.Random(36)
    words = []
    for _, gens in yes_instances(12) + no_instances(9):
        neutral = oracle_bfs(gens, 4)
        for word in ([neutral] if neutral else []) + [
                [rng.randint(1, gens.K) for _ in range(rng.randint(1, 6))] for _ in range(3)]:
            words += [(gens, w) for w in _mutations(rng, word, gens.K)]
    for case in range(60):
        gens = _inverse_closed(rng, case % 3, case % 2)
        m = gens.K // 2
        half = [rng.randint(1, gens.K) for _ in range(rng.randint(m, 6))]
        neutral = half + [(i - 1 + m) % gens.K + 1 for i in reversed(half)]
        words += [(gens, w) for w in _mutations(rng, neutral, gens.K)]
        words.append((gens, [i for i in neutral if i != gens.K]))  # misses a letter
    seen = set()
    for gens, word in words:
        want = _word_oracle(word, gens)
        assert verify_witness(word, gens) == want
        if word:
            assert verify_witness(graph_of_word(gens, word), gens) == want
        closes = not any(map(sum, zip(*(gens.steps[i - 1] for i in word))))
        seen.add((want, closes, set(word) == set(range(1, gens.K + 1))))
    assert seen >= {(True, True, True), (False, True, True), (False, False, True),
                    (False, True, False)}
    assert not verify_witness([], gens) and not verify_witness([0, 1], gens)
    assert not verify_witness([1, gens.K + 1], gens)


@pytest.mark.parametrize("generators", [
    # the pinned torsion reproducer of the benchmark's group workload
    [(None, (0, -1)), (None, (0, 1)), (((1, 1), 1), (1, 1)), (((0, 0), -1), (-1, -1))],
    # the seeded n = 2 case n2/21 of make_golden.py
    [(((0, 1), 1), (-1, 0)), (((1, 1), -1), (1, 0)), (None, (0, 1)), (None, (0, -1))],
])
def test_window_witness_under_torsion(generators):
    """Over Y = (Z/2)[X^pm] the window search once cleared the values of an
    LP point, not its multipliers.  On the first instance the point gave
    2*g2 + 2*g3 + g1/2 (g_j the relation-module generators): integer values,
    but not in the relation module, so the witness failed its verification.
    Both groups must come out as a verified yes."""
    pres = ModulePresentation(n=2, d=1, rels_N=[[LaurentPoly.constant(2, 2)]])
    els = [GroupElement(pres, [mono(*y) if y else LaurentPoly.zero(2)], a)
           for y, a in generators]
    gens = GeneratorSet(pres, els)
    v = decide_group(gens, Budget())
    assert v.kind == "yes"
    assert verify_witness(v.witness["word"], gens)


def test_oracle_bfs_examples():
    assert oracle_bfs(inverse_pair(), 2) == [1, 2]
    assert oracle_bfs(one_way(), 8) is None
    assert oracle_bfs(inverse_pair(), 0) is None


def test_determinism_of_verdicts():
    runs = [decide_group(inverse_pair(), Budget()) for _ in range(2)]
    assert runs[0].kind == runs[1].kind == "yes"
    assert runs[0].witness["word"] == runs[1].witness["word"]
    nos = [decide_group(one_way(), Budget()) for _ in range(2)]
    assert nos[0].certificate == nos[1].certificate


def _n1_poly(*terms):
    return LaurentPoly(1, {(e,): c for e, c in terms})


def test_refuted_at_height_ninth_sample():
    """Over Z[X^pm]/(X - 2) with steps +-2, as in three seeded perfbench
    subset ops: the pair is re-posed over W = X^2, where the obstruction
    sits at W = 4, the ninth point of the schedule."""
    pres = ModulePresentation(n=1, d=1, rels_N=[[_n1_poly((1, 1), (0, -2))]])
    gens = GeneratorSet(pres, [GroupElement(pres, [LaurentPoly.one(1)], (2,)),
                               GroupElement(pres, [LaurentPoly.zero(1)], (-2,))])
    v = decide_identity(gens, Budget())
    assert v.kind == "no"
    pair = v.certificate["subsets"][-1]
    assert pair["subset"] == [1, 2]
    assert pair["certificate"] == {"dual": ["1", "0"], "sample": ["4"], "samples_tested": 9}
    assert oracle_bfs(gens, 8) is None


def test_irrational_obstruction_stays_unknown():
    """The relation module (X^2 - 2)(1, X)Z[X^pm] vanishes at sqrt 2, so the
    set is provably not a group, but no rational sample sees it: a known
    limit of the refuter, UNKNOWN at every sample count."""
    pres = ModulePresentation(n=1, d=1, rels_N=[[_n1_poly((2, 1), (0, -2))]])
    gens = GeneratorSet(pres, [GroupElement(pres, [LaurentPoly.one(1)], (1,)),
                               GroupElement(pres, [LaurentPoly.zero(1)], (-1,))])
    assert decide_group(gens, Budget()).kind == "unknown"
    v = decide_identity(gens, Budget())
    assert v.kind == "unknown" and v.budget_report["unresolved"] == [[1, 2]]


def test_oracle_soundness_of_n1_refutations():
    """Seeded n = 1 sets over Z[X^pm] and Z[X^pm]/(X - 2), (X - 3), (2X - 1),
    steps +-1 and +-2: no subset of an Identity NO has a word of length
    <= 6, and some NO is certified past the schedule's first 6 points."""
    modules = [[], [[_n1_poly((1, 1), (0, -2))]], [[_n1_poly((1, 1), (0, -3))]],
               [[_n1_poly((1, 2), (0, -1))]]]
    rng = random.Random(15)
    kinds, late = [], 0
    for case in range(32):
        pres = ModulePresentation(n=1, d=1, rels_N=modules[case % len(modules)])
        K = rng.randint(2, 3)
        gens = GeneratorSet(pres, [
            GroupElement(pres, [_n1_poly(*[(rng.randint(-2, 2), rng.choice([-2, -1, 1, 2]))]
                                         * rng.randint(0, 1))], (rng.choice([-2, -1, 1, 2]),))
            for _ in range(K)])
        v = decide_identity(gens, Budget(timeout=2))
        if v.kind == "no":
            for size in range(1, K + 1):
                for sub in itertools.combinations(range(1, K + 1), size):
                    assert oracle_bfs(gens.subset(list(sub)), 6) is None, (case, sub)
            late += any(c["certificate"]["samples_tested"] > 6 for c in v.certificate["subsets"]
                        if "one_signed" not in c["certificate"])
        kinds.append(v.kind)
    assert kinds.count("no") >= 16 and late >= 1, (kinds, late)


def test_oracle_soundness_of_n2_identity_and_inverse():
    """Seeded n = 2 sets over Z[X^pm] and (Z/2)[X^pm], K <= 4, steps in
    [-1, 1]^2: every YES of Identity and of Inverse (at a seeded target)
    verifies on its subset and in the original letters, and no subset of a
    NO has a neutral full-image word of length <= 5."""
    rng = random.Random(11)
    kinds, refuted = Counter(), 0
    for case in range(80):
        pres = _subset_module(2, ("free", "z2")[case % 2])
        K = rng.randint(2, 4)
        gens = GeneratorSet(pres, [
            GroupElement(pres, [random_poly(rng, 2, max_terms=2, exp=1, coef=2)],
                         tuple(rng.randint(-1, 1) for _ in range(2))) for _ in range(K)])
        target = rng.randint(1, K)
        for problem, v in (("identity", decide_identity(gens, Budget(timeout=2))),
                           ("inverse", decide_inverse(gens, target, Budget(timeout=2)))):
            kinds[problem, v.kind] += 1
            if v.kind == "yes":
                w = v.witness
                assert verify_witness(w["word"], gens.subset(w["subset"])), case
                assert sorted(set(w["word_in_original_letters"])) == w["subset"], case
                assert evaluate_word(gens, w["word_in_original_letters"]).is_neutral(), case
                assert problem == "identity" or target in w["subset"]
            elif v.kind == "no":
                for c in v.certificate["subsets"]:
                    assert oracle_bfs(gens.subset(c["subset"]), 5) is None, (case, c["subset"])
                    refuted += 1
    assert min(kinds.values()) >= 10 and refuted >= 300, (kinds, refuted)


def test_oracle_soundness_of_n3_identity_and_inverse():
    """Seeded n = 3 sets over Z[X^pm] and (Z/2)[X^pm], K <= 3, steps in
    [-1, 1]^3, whose subsets go through the rank-1, rank-2 and index > 1
    re-posings: every YES of Identity and of Inverse (at a seeded target)
    under `Budget(degree=0, timeout=2)` verifies on its subset and in the
    original letters, and no subset of a NO has a neutral full-image word
    of length <= 6."""
    rng = random.Random(37)
    kinds, refuted = Counter(), 0
    for case in range(120):
        pres = _subset_module(3, ("free", "z2")[case % 2])
        K = rng.randint(2, 3)
        gens = GeneratorSet(pres, [
            GroupElement(pres, [random_poly(rng, 3, max_terms=2, exp=1, coef=2)],
                         tuple(rng.randint(-1, 1) for _ in range(3))) for _ in range(K)])
        target = rng.randint(1, K)
        budget = Budget(degree=0, timeout=2)
        for problem, v in (("identity", decide_identity(gens, budget)),
                           ("inverse", decide_inverse(gens, target, budget))):
            kinds[problem, v.kind] += 1
            if v.kind == "yes":
                w = v.witness
                assert verify_witness(w["word"], gens.subset(w["subset"])), case
                assert sorted(set(w["word_in_original_letters"])) == w["subset"], case
                assert evaluate_word(gens, w["word_in_original_letters"]).is_neutral(), case
                assert problem == "identity" or target in w["subset"]
            elif v.kind == "no":
                for c in v.certificate["subsets"]:
                    assert oracle_bfs(gens.subset(c["subset"]), 6) is None, (case, c["subset"])
                    refuted += 1
    print("n = 3 Identity/Inverse:", dict(sorted(kinds.items())), f"{refuted} refuted subsets")
    assert kinds["identity", "yes"] + kinds["inverse", "yes"] >= 5 and refuted >= 400, \
        (kinds, refuted)

def test_decide_identity_examples():
    # {g, g^-1, h}: identity via the inverse-pair subset
    pres = free_presentation(1)
    g = GroupElement(pres, [LaurentPoly.one(1)], (1,))
    ginv = g.inverse()
    h = GroupElement(pres, [LaurentPoly.zero(1)], (1,))
    gens = GeneratorSet(pres, [g, GroupElement(pres, list(ginv.y), ginv.a), h])
    v = decide_identity(gens, Budget(samples=8))
    assert v.kind == "yes"
    assert v.witness["subset"] == [1, 2]
    # single one-way generator: identity No
    v2 = decide_identity(one_way(), Budget())
    assert v2.kind == "no"
    assert v2.certificate["subsets"][0]["subset"] == [1]


def test_decide_inverse_examples():
    gens = inverse_pair()
    v = decide_inverse(gens, 1, Budget())
    assert v.kind == "yes"
    v2 = decide_inverse(one_way(), 1, Budget())
    assert v2.kind == "no"
    with pytest.raises(ValueError):
        decide_inverse(gens, 5, Budget())


@pytest.mark.parametrize("timeout", [-1, -0.5, float("-inf"), float("nan")])
def test_budget_refuses_a_negative_or_nan_timeout(timeout):
    """A NaN deadline would never pass (`monotonic() > nan` is false)."""
    with pytest.raises(ValueError, match="timeout"):
        Budget(timeout=timeout)


def test_budget_timeout_none_inf_and_zero():
    assert decide_group(inverse_pair(), Budget(timeout=None)).kind == "yes"
    assert decide_group(inverse_pair(), Budget(timeout=float("inf"))).kind == "yes"
    v = decide_group(inverse_pair(), Budget(timeout=0))  # already expired
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True


def test_decide_subset_sublattice_repose():
    # steps {2, -2}: proper sublattice 2Z, re-posed over one variable
    pres = free_presentation(1)
    g = GroupElement(pres, [LaurentPoly.one(1)], (2,))
    ginv = g.inverse()
    gens = GeneratorSet(pres, [g, GroupElement(pres, list(ginv.y), ginv.a)])
    v = decide_subset(gens, [1, 2], Budget())
    assert v.kind == "yes"
    assert evaluate_word(gens, v.witness["word_in_original_letters"]).is_neutral()
    # same steps but a genuine obstruction: g twice
    gens2 = GeneratorSet(pres, [g, GroupElement(pres, list(g.y), g.a)])
    v2 = decide_subset(gens2, [1, 2], Budget())
    assert v2.kind == "no"


def test_decide_subset_constants_route():
    pres = free_presentation(1)
    b1 = GroupElement(pres, [LaurentPoly.one(1)], (0,))
    b2 = GroupElement(pres, [LaurentPoly.constant(1, -1)], (0,))
    gens = GeneratorSet(pres, [b1, b2])
    v = decide_subset(gens, [1, 2], Budget())
    assert v.kind == "yes" and v.witness["word"] == [1, 2]
    assert evaluate_word(gens, v.witness["word_in_original_letters"]).is_neutral()
    gens2 = GeneratorSet(pres, [b1, GroupElement(pres, [LaurentPoly.one(1)], (0,))])
    assert decide_subset(gens2, [1, 2], Budget()).kind == "no"


# -- reference: the rank-0 relation module before it was re-posed -------------
# Kept verbatim as an oracle: the rank-0 route's NO certificates are the
# Gordan duals of these vectors.

def ref_constants_module(pres, ys):
    """Generators (integer vectors) of {f in Z^K : sum f_i y_i = 0 in Y},
    used when every step of the subset is zero: positions collapse to the
    origin, so position tuples are constant vectors."""
    K = len(ys)
    n = pres.n
    cols = [list(y) for y in ys]
    for rel in pres.rels_N:
        cols.append([-r for r in rel])
    syz = laurent_syzygies(cols, pres.d, n)
    fparts = [s[:K] for s in syz]
    fparts = [f for f in fparts if not all(p.is_zero() for p in f)]
    if not fparts:
        return []
    raws = [clear_vector(f, n)[0] for f in fparts]
    basis, order = saturated_basis(raws, K, n)
    out = []
    zero = (0,) * n
    for e in basis:
        if all(mono == zero for _, mono in e.vec):
            vec = [0] * K
            for (pos, _), c in e.vec.items():
                vec[pos] = c
            out.append(vec)
    return out


def test_rank0_route_matches_reference():
    rng = random.Random(9090)
    nonempty = 0
    seen = {"yes": 0, "no": 0}
    for case in range(60):
        n = rng.randint(1, 2)
        d = rng.randint(1, 2)
        rels = [[random_poly(rng, n, max_terms=2, exp=1, coef=3) for _ in range(d)]
                for _ in range(rng.randint(0, 1))]
        if case % 4 == 0:  # a torsion module, (Z/m)[X^pm]^d
            rels = [[LaurentPoly.constant(n, rng.choice([2, 3])) if i == j
                     else LaurentPoly.zero(n) for i in range(d)] for j in range(d)]
        pres = ModulePresentation(n=n, d=d, rels_N=rels)
        zero_step = (0,) * n
        sub = GeneratorSet(pres, [
            GroupElement(pres, [random_poly(rng, n, max_terms=2, exp=1, coef=2)
                                for _ in range(d)], zero_step)
            for _ in range(rng.randint(1, 3))])
        want = ref_constants_module(pres, sub.ys)
        gens_w, steps_w = decide._repose(sub)
        assert steps_w == [()] * sub.K
        assert [[p.terms.get((), 0) for p in g] for g in gens_w] == want
        nonempty += bool(want)
        # the core at n = 0 decides exactly the Gordan alternative on them
        v = decide_subset(sub, list(range(1, sub.K + 1)), Budget())
        if want:
            status, lam = linalg.strict_positive_combination(want)
        else:
            status, lam = "infeasible", [Fraction(1)] * sub.K
        if status == "infeasible":
            assert v.kind == "no" and v.certificate["dual"] == [str(x) for x in lam]
            seen["no"] += 1
        else:
            assert v.kind == "yes" and verify_witness(v.witness["word"], sub)
            seen["yes"] += 1
    assert nonempty >= 20 and min(seen.values()) >= 10, seen


# -- reference: re-posing in r + n variables, before restriction of scalars ----
# Kept verbatim as an oracle: the restriction route must give the same steps
# and generators of the same relation module.

def ref_embed_poly(p: LaurentPoly, r: int) -> LaurentPoly:
    """Embed an n-variable (X) polynomial into the joint (r+n)-variable
    ring: W block first, X block second."""
    return LaurentPoly(r + p.n, {(0,) * r + tuple(e): c for e, c in p.terms.items()})


def ref_repose_sublattice(sub: GeneratorSet, basis_rows: list[list[int]]):
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
        coords = lattice_coordinates(basis_rows, list(a))
        if coords is None:
            raise AssertionError("step outside its own lattice")
        steps_sub.append(tuple(coords))
    nv = r + n
    d = pres.d
    cols = []
    for y, a2 in zip(sub.ys, steps_sub):
        col = [ref_embed_poly(p, r) for p in y]
        wmono = [0] * r
        for t, v in enumerate(a2):
            wmono[t] = v
        sym = LaurentPoly.monomial(tuple(wmono) + (0,) * n) - LaurentPoly.one(nv)
        cols.append(col + [sym])
    for rel in pres.rels_N:
        cols.append([ref_embed_poly(-p, r) for p in rel] + [LaurentPoly.zero(nv)])
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
    syz = laurent_syzygies(cols, p_rows, nv)
    fparts = [s[:K] for s in syz]
    fparts = [f for f in fparts if not all(q.is_zero() for q in f)]
    # eliminate the X block from the f-part span (saturated, X dominant)
    if not fparts:
        return [], steps_sub
    raws = [clear_vector(f, nv)[0] for f in fparts]
    x_block = tuple(range(r, nv))
    w_block = tuple(range(r))
    basis, _ = saturated_basis(raws, K, nv, var_blocks=[x_block, w_block])
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


def _lattice_set(rng, pres, rank):
    """Generators with 1-term (or zero) y's whose steps span a rank-`rank`
    lattice: `rank` independent rows with entries in [-2, 2], then one or two
    combinations of them with coefficients in [-1, 1], shuffled."""
    n = pres.n
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rank)]
        if linalg.lattice_rank_and_full(rows, n)[0] == rank:
            break
    for _ in range(rng.randint(1, 2)):
        c = [rng.randint(-1, 1) for _ in range(rank)]
        rows.append([sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(n)])
    rng.shuffle(rows)
    return GeneratorSet(pres, [
        GroupElement(pres, [random_poly(rng, n, max_terms=1, exp=1, coef=2)], tuple(a))
        for a in rows])


def test_repose_matches_reference():
    """Restriction of scalars and the r + n route give the same steps and
    generators of the same Laurent module, on seeded sets with n = 1, 2, 3,
    every rank, over Z[X^pm] and (Z/2)[X^pm].  The reference runs under a
    2 s deadline; the sets it does not finish are counted and bounded."""
    rng = random.Random(1616)
    compared, skipped = 0, 0
    for n in (1, 2, 3):
        for rank in range(n + 1):
            for rels in ([], [[LaurentPoly.constant(n, 2)]]) * 2:
                pres = ModulePresentation(n=n, d=1, rels_N=rels)
                sub = _lattice_set(rng, pres, rank)
                basis = linalg.hermite_row_basis(sub.steps)
                gens, steps = decide._repose(sub)
                try:
                    with deadline_scope(2):
                        want, want_steps = ref_repose_sublattice(sub, basis)
                except DeadlineExceeded:
                    skipped += 1
                    continue
                assert steps == want_steps
                ours = LaurentSubmodule(sub.K, len(basis), gens)
                theirs = LaurentSubmodule(sub.K, len(basis), want)
                assert all(ours.contains(g) for g in want), sub.steps
                assert all(theirs.contains(g) for g in gens), sub.steps
                compared += 1
    assert skipped <= 6 and compared >= 30, (compared, skipped)



def test_repose_keeps_the_reference_bytes(monkeypatch):
    """`decide._repose`, which numbers the cosets by arithmetic and decodes
    the eliminated generators with `algebra.decode`, against `ref_repose`,
    which listed the coset box and decoded them with `normalize_unit` of
    `raw_to_vector`: the same restricted presentation (relations, y's and
    steps, as `syzygy_basis` receives them), the same steps and the same
    generators, each entry's terms in the same order.  Seeded sets with
    n = 1, 2, 3, every rank, K <= 3 and steps in [-3, 3]^n, over the four
    `subsets` modules; each side runs under a 1 s deadline, and the sets
    either side does not finish are counted and bounded."""
    def terms(vecs):
        return [[list(f.terms.items()) for f in v] for v in vecs]

    def recording(real):
        def run(pres, ys, steps):
            restricted.append((terms(pres.rels_N), terms(ys), list(steps)))
            return real(pres, ys, steps)
        return run

    monkeypatch.setattr(decide, "syzygy_basis", recording(decide.syzygy_basis))
    monkeypatch.setattr(conftest, "syzygy_basis", recording(conftest.syzygy_basis))
    rng = random.Random(3701)
    compared, skipped, cases = 0, 0, 0
    for n in (1, 2, 3):
        for rank in range(n + 1):
            for case in range({1: 40, 2: 36, 3: 30}[n]):
                kind = ("free", "z2", "bs12", "xplus1")[case % 4]
                pres = _subset_module(n, kind)
                K = rng.randint(max(rank, 1), 3)
                while True:
                    steps = [tuple(rng.randint(-3, 3) for _ in range(n)) if rank else (0,) * n
                             for _ in range(K)]
                    if len(linalg.hermite_row_basis(steps)) == rank:
                        break
                sub = GeneratorSet(pres, [
                    GroupElement(pres, [random_poly(rng, n, max_terms=1, exp=1, coef=2)], a)
                    for a in steps])
                cases += 1
                restricted = []
                try:
                    with deadline_scope(1):
                        want = ref_repose(sub)
                    with deadline_scope(1):
                        got = decide._repose(sub)
                except DeadlineExceeded:
                    skipped += 1
                    continue
                assert restricted[0] == restricted[1], (kind, steps)
                assert got[1] == want[1], (kind, steps)
                assert terms(got[0]) == terms(want[0]), (kind, steps)
                compared += 1
    assert cases >= 300 and skipped <= cases // 50, (cases, compared, skipped)
    print(f"re-posing bytes: {compared} sets compared, {skipped} timed out")

def test_rank2_sublattice_is_quick():
    """A rank-2 sublattice of Z^2 (Hermite basis (2, 0), (0, 1)) whose
    re-posing in r + n = 4 variables took over half a minute: restriction of
    scalars decides it in milliseconds, with the same certificate."""
    pres = free_presentation(2)
    gens = GeneratorSet(pres, [GroupElement(pres, [LaurentPoly(2, y)], a) for y, a in [
        ({(1, 0): 2}, (2, 1)), ({(-1, -1): 1}, (-2, 1)), ({(0, 0): 2}, (0, 1))]])
    t0 = time.monotonic()
    v = decide_group(gens, Budget())
    assert time.monotonic() - t0 < 10
    assert jsonio.verdict_to_json(v) == {"verdict": "no", "certificate": {
        "dual": ["1", "1", "1"], "sample": ["1", "1"], "samples_tested": 1}}


def test_face_cuts_find_a_smaller_support():
    """Over (Z/2)[X^pm] the steps (-2), (2), (0), (0) are (-1), (1), (0), (0)
    over the basis (2), and these generate the restricted relation module.
    The maximal candidate of every window has its top point in f_3 alone,
    whose step is 0, so it fails the escape condition there; cutting that
    point and maximising again finds a passing element in window 1."""
    pres = ModulePresentation(n=1, d=1, rels_N=[[LaurentPoly.constant(1, 2)]])
    gens = GeneratorSet(pres, [GroupElement(pres, [LaurentPoly(1, y)], a) for y, a in [
        ({}, (-2,)), ({(-1,): 1}, (2,)), ({(-3,): -1}, (0,)), ({(1,): 2}, (0,))]])
    restricted = [[mono((1,)), LaurentPoly.one(1), mono((1,)), LaurentPoly.zero(1)],
                  [LaurentPoly.zero(1), LaurentPoly.zero(1), mono((2,), 2), LaurentPoly.one(1)],
                  [LaurentPoly.zero(1), LaurentPoly.zero(1), LaurentPoly.constant(1, 2),
                   LaurentPoly.zero(1)]]
    steps = [(-1,), (1,), (0,), (0,)]
    assert decide._repose(gens) == (restricted, steps)
    v = _first_event(procedure_a_events(restricted, gens, steps, Budget()))
    assert v is not None and v.kind == "yes"
    assert verify_witness(v.witness["word"], gens)


def closure_instance():
    """Z[X^pm]/(-2X) with (2X, -1), (1 + X^3, 1) and (2X^-3, 2): the graph
    of the first accepted candidate is not connected, so its word comes from
    the Eulerian closure."""
    return jsonio.instance_from_json({
        "module": {"n": 1, "d": 1, "rels_N": [[[{"c": "-2", "e": [1]}]]]},
        "generators": [{"a": [-1], "y": [[{"c": "2", "e": [1]}]]},
                       {"a": [1], "y": [[{"c": "1", "e": [0]}, {"c": "1", "e": [3]}]]},
                       {"a": [2], "y": [[{"c": "2", "e": [-3]}]]}]})


def test_decide_path_closes_a_disconnected_graph(monkeypatch):
    """The witness of the first candidate needs six translations.  With
    `closure_n=0` the closure gives up on it (ClosureBudgetError), the
    candidate is dropped, and the second candidate's graph is connected."""
    outcomes = []
    real = decide.eulerian_closure

    def closure(*args, **kwargs):
        try:
            result = real(*args, **kwargs)
        except Exception as exc:
            outcomes.append(type(exc))
            raise
        outcomes.append(None)
        return result

    monkeypatch.setattr(decide, "eulerian_closure", closure)
    v = decide_group(closure_instance(), Budget())
    assert outcomes == [None]
    assert v.kind == "yes" and v.witness["candidates_tested"] == 1
    assert verify_witness(v.witness["word"], closure_instance())
    assert v.witness["translations"] == [[z] for z in range(6)]
    assert v.witness["word"] == [2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 1, 3, 1, 1, 3, 1, 2, 1, 2, 1,
                                 3, 1, 1, 3, 1, 2, 1, 2, 1, 3, 1, 1, 3, 1, 3, 1, 1, 3, 1, 3, 1, 1,
                                 3, 1, 3, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
    outcomes.clear()
    v = decide_group(closure_instance(), Budget(closure_n=0))
    assert outcomes == [ClosureBudgetError]
    assert v.kind == "yes" and v.witness["candidates_tested"] == 2
    assert verify_witness(v.witness["word"], closure_instance())
    assert v.witness["translations"] == [[0]]
    assert v.witness["word"] == [2, 1, 2, 2, 1, 2, 2, 1, 2, 3, 1, 1, 3, 1, 3, 1, 1, 3, 1, 3, 1, 1,
                                 3, 1, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("nth", [1, 6, 7])
def test_group_timeout_bounds_the_closure(monkeypatch, nth):
    """The closure of `closure_instance`'s first candidate makes seven
    deadline checks: one per point of its five-point hull, then one before
    N = 1 and one before N = 2.  A clock skewed past the deadline at the
    nth of them ends the run there, `unknown` with `timed_out`."""
    inside, reads = [False], []  # reads: per deadline check, whether inside the closure

    def clock():
        reads.append(inside[0])
        return time.monotonic() + (1e9 if reads.count(True) >= nth else 0.0)

    real = decide.eulerian_closure

    def closure(*args, **kwargs):
        inside[0] = True
        try:
            return real(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=clock))
    monkeypatch.setattr(decide, "eulerian_closure", closure)
    v = decide_group(closure_instance(), Budget(timeout=3600))
    assert v.kind == "unknown" and v.budget_report["timed_out"] is True
    assert reads.count(True) == nth and reads[-1] is True


def test_a_word_failing_verification_is_an_error(monkeypatch):
    monkeypatch.setattr(decide, "verify_witness", lambda *args: False)
    with pytest.raises(AssertionError, match="produced witness failed verification"):
        decide_group(inverse_pair(), Budget())


def test_identity_replay_consistency():
    """decide_identity(G) is Yes iff decide_subset says Yes for some subset."""
    pres = free_presentation(1)
    g = GroupElement(pres, [LaurentPoly.one(1)], (1,))
    ginv = g.inverse()
    h = GroupElement(pres, [LaurentPoly.zero(1)], (1,))
    gens = GeneratorSet(pres, [g, GroupElement(pres, list(ginv.y), ginv.a), h])
    budget = Budget(samples=8)
    overall = decide_identity(gens, budget)
    per_subset = {}
    import itertools
    for size in range(1, 4):
        for sub in itertools.combinations([1, 2, 3], size):
            per_subset[sub] = decide_subset(gens, list(sub), budget).kind
    assert (overall.kind == "yes") == any(k == "yes" for k in per_subset.values())


def test_n0_degeneration():
    pres = ModulePresentation(n=0, d=1, rels_N=[])
    plus = GroupElement(pres, [LaurentPoly.one(0)], ())
    minus = GroupElement(pres, [LaurentPoly.constant(0, -1)], ())
    assert decide_group(GeneratorSet(pres, [plus, minus]), Budget()).kind == "yes"
    assert decide_group(GeneratorSet(pres, [plus]), Budget()).kind == "no"


def test_three_inverse_pairs_in_3d_form_a_group():
    """The n = 3 hull of the first candidate is exact, with no cap on its
    size: the candidate is accepted under a small and the default budget."""
    pres = free_presentation(3)
    els = []
    for i in range(3):
        a = tuple(int(j == i) for j in range(3))
        els.append(GroupElement(pres, [LaurentPoly.one(3)], a))
        els.append(GroupElement(pres, [mono(tuple(-x for x in a), -1)], tuple(-x for x in a)))
    gens = GeneratorSet(pres, els)
    for budget in (Budget(degree=0, samples=1), Budget()):
        v = decide_group(gens, budget)
        assert v.kind == "yes" and v.witness["candidates_tested"] == 1


def _spanning_set(rng, pres, shape):
    """Generators with 1-term (or zero) y's, exponents and steps in [-1, 1],
    drawn until the steps span Z^n: inverse pairs (one per dimension), g, h,
    k, (ghk)^-1, or three random generators."""
    n = pres.n

    def element():
        y = random_poly(rng, n, max_terms=1, exp=1, coef=2)
        return GroupElement(pres, [y], tuple(rng.randint(-1, 1) for _ in range(n)))

    while True:
        if shape == "pairs":
            els = []
            for _ in range(n):
                g = element()
                els += [g, g.inverse()]
        elif shape == "ghk":
            g, h, k = element(), element(), element()
            els = [g, h, k, (g * h * k).inverse()]
        else:
            els = [element() for _ in range(3)]
        if linalg.lattice_rank_and_full([e.a for e in els], n)[1]:
            return GeneratorSet(pres, els)


@pytest.mark.parametrize("n, shapes, budget", [
    (2, ["pairs", "ghk", "random", "random"], Budget()),
    # at n = 3 a window-1 LP can take over ten seconds a support round
    (3, ["pairs", "ghk", "random"], Budget(degree=0)),
])
def test_oracle_soundness_beyond_rank_one(n, shapes, budget):
    """No NO where breadth-first search finds a word, and every YES
    verifies, on seeded n = 2 and n = 3 sets over Z[X^pm] and (Z/2)[X^pm]."""
    rng = random.Random(5150 + n)
    kinds = []
    for rels in ([], [[LaurentPoly.constant(n, 2)]]):
        pres = ModulePresentation(n=n, d=1, rels_N=rels)
        for shape in shapes * 2:
            gens = _spanning_set(rng, pres, shape)
            v = decide_group(gens, budget)
            if v.kind == "yes":
                assert verify_witness(v.witness["word"], gens)
            elif v.kind == "no":
                assert oracle_bfs(gens, 6) is None, (shape, rels)
            kinds.append(v.kind)
    assert {"yes", "no"} <= set(kinds)


_SUBLATTICES = {1: [[], [[2]], [[3]]],
                2: [[], [[1, 0]], [[1, -1]], [[2, 0], [0, 1]], [[1, 1], [1, -1]]]}


def _sublattice_set(rng, pres, shape, K):
    """K generators with 1-term (or zero) y's whose steps are combinations,
    with coefficients in [-1, 1], of the rows of a basis of a proper
    sublattice of Z^n (rank 0 included): g, g^-1 and random ones; g, h,
    (gh)^-1 and random ones; or K random ones."""
    n = pres.n
    basis = rng.choice(_SUBLATTICES[n])

    def element():
        c = [rng.randint(-1, 1) for _ in basis]
        a = tuple(sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(n))
        return GroupElement(pres, [random_poly(rng, n, max_terms=1, exp=1, coef=2)], a)

    if shape == "pairs":
        g = element()
        els = [g, g.inverse()] + [element() for _ in range(K - 2)]
    elif shape == "ghk":
        g, h = element(), element()
        els = [g, h, (g * h).inverse()] + [element() for _ in range(K - 3)]
    else:
        els = [element() for _ in range(K)]
    return GeneratorSet(pres, els)


def test_decide_group_proper_sublattice():
    """Steps spanning a proper sublattice are re-posed, as for a subset:
    every YES word verifies in the original letters, its graph is over the
    sublattice's Hermite basis, and no NO has a word of length <= 6, on
    seeded n = 1 and n = 2 sets over Z[X^pm] and (Z/2)[X^pm].  Each decision
    has a 2 s timeout, and none ends UNKNOWN."""
    rng = random.Random(65)
    kinds, ranks = [], []
    for case in range(24):
        n = 1 + case % 2
        rels = [] if case % 4 < 2 else [[LaurentPoly.constant(n, 2)]]
        pres = ModulePresentation(n=n, d=1, rels_N=rels)
        shape = ("pairs", "ghk", "random")[case // 4 % 3]
        K = rng.randint({"pairs": 2, "ghk": 3, "random": 1}[shape], 4)
        gens = _sublattice_set(rng, pres, shape, K)
        rank, full = linalg.lattice_rank_and_full(gens.steps, n)
        assert not full
        v = decide_group(gens, Budget(timeout=2))
        if v.kind == "yes":
            assert verify_witness(v.witness["word"], gens)
            assert v.witness["graph"].n == rank
        elif v.kind == "no":
            assert oracle_bfs(gens, 6) is None, (shape, rels)
        kinds.append(v.kind)
        ranks.append(rank)
    assert kinds.count("yes") >= 8 and kinds.count("no") >= 4, kinds
    assert kinds.count("unknown") == 0 and 0 in ranks and 2 in ranks
