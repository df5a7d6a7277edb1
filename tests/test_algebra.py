import random

import pytest

from semizn import algebra, groebner, jsonio, linalg
from semizn.algebra import (LaurentSubmodule, ModulePresentation, clear_vector, residual,
                            stacked_columns, syzygy_basis)
from semizn.decide import Budget, decide_subset
from semizn.group import GeneratorSet, GroupElement
from semizn.laurent import LaurentPoly

from conftest import (free_presentation, lattice_coordinates, mono, normalize_unit, random_poly,
                      raw_to_vector)


def test_strong_groebner_free_module():
    e1 = [LaurentPoly.one(1), LaurentPoly.zero(1)]
    e2 = [LaurentPoly.zero(1), LaurentPoly.one(1)]
    mod = LaurentSubmodule(2, 1, [e1, e2])
    assert mod.contains([mono((3,), 7), mono((-2,), -5)])
    basis, _ = mod._membership_basis()
    assert len(basis) == 2


def test_membership_principal_ideal():
    mod = LaurentSubmodule(1, 1, [[mono((1,)) - LaurentPoly.one(1)]])
    assert mod.contains([mono((2,)) - LaurentPoly.one(1)])  # X^2-1 = (X+1)(X-1)
    assert not mod.contains([LaurentPoly.one(1)])  # members vanish at X=1


def test_membership_unit_saturation():
    # 1 in <2, X1> over the Laurent ring because X1 is a unit
    mod = LaurentSubmodule(1, 1, [[LaurentPoly.constant(1, 2)], [mono((1,))]])
    assert mod.contains([LaurentPoly.one(1)])


def test_membership_unit_invariance(rng):
    gens = [[random_poly(rng, 2, allow_zero=False)] for _ in range(2)]
    mod = LaurentSubmodule(1, 2, gens)
    for _ in range(10):
        vec = [random_poly(rng, 2)]
        shifted = [vec[0].shift((rng.randint(-2, 2), rng.randint(-2, 2)))]
        assert mod.contains(vec) == mod.contains(shifted)


def test_is_zero_in_quotient():
    pres = ModulePresentation(n=1, d=1, rels_N=[[mono((1,)) - LaurentPoly.one(1)]])
    assert pres.is_zero([LaurentPoly.zero(1)])
    assert pres.is_zero([mono((3,)) - LaurentPoly.one(1)])  # telescoping multiple
    free = free_presentation(1)
    assert not free.is_zero([LaurentPoly.one(1)])


def test_syzygy_inverse_pair_basis():
    pres = free_presentation(1)
    ys = [[LaurentPoly.one(1)], [mono((-1,), -1)]]
    steps = [(1,), (-1,)]
    basis = syzygy_basis(pres, ys, steps)
    assert len(basis.generators) == 1
    # unit-equivalent to (X^-1, 1): normalized form is (1, X)
    assert basis.generators[0] == normalize_unit([mono((-1,)), LaurentPoly.one(1)], 1)


def test_syzygy_trivial_and_empty():
    pres = free_presentation(1)
    # K=1, y=0, a=0: both defining equations vanish; basis is the unit
    basis = syzygy_basis(pres, [[LaurentPoly.zero(1)]], [(0,)])
    assert [[str(p) for p in g] for g in basis.generators] == [["LaurentPoly(1*1)"]]
    # K=1, y=1 free, a=1: f(X-1)=0 and f=0 force f=0
    basis2 = syzygy_basis(pres, [[LaurentPoly.one(1)]], [(1,)])
    assert basis2.generators == []


def test_residual_examples():
    pres = free_presentation(1)
    ys = [[LaurentPoly.one(1)], [mono((-1,), -1)]]
    steps = [(1,), (-1,)]
    sym, neu = residual([mono((-1,)), LaurentPoly.one(1)], pres, ys, steps)
    assert sym.is_zero() and neu.is_zero()
    sym, neu = residual([LaurentPoly.one(1), LaurentPoly.zero(1)], pres, ys, steps)
    assert sym == mono((1,)) - LaurentPoly.one(1)
    assert not neu.is_zero()
    sym, neu = residual([LaurentPoly.zero(1)] * 2, pres, ys, steps)
    assert sym.is_zero() and neu.is_zero()


def _random_instance(rng, n, d, K):
    rels = [[random_poly(rng, n, max_terms=2) for _ in range(d)]
            for _ in range(rng.randint(0, 2))]
    rels = [r for r in rels if any(not p.is_zero() for p in r)]
    pres = ModulePresentation(n=n, d=d, rels_N=rels)
    ys = [[random_poly(rng, n, max_terms=2) for _ in range(d)] for _ in range(K)]
    steps = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(K)]
    return pres, ys, steps


def test_syzygy_generators_have_zero_residual(rng):
    for _ in range(8):
        n = rng.randint(1, 2)
        d = rng.randint(1, 2)
        K = rng.randint(1, 3)
        pres, ys, steps = _random_instance(rng, n, d, K)
        basis = syzygy_basis(pres, ys, steps)
        for g in basis.generators:
            sym, neu = residual(g, pres, ys, steps)
            assert sym.is_zero() and neu.is_zero()
        # random Laurent combinations stay in the module
        for _ in range(3):
            if not basis.generators:
                break
            acc = [LaurentPoly.zero(n)] * K
            for g in basis.generators:
                h = random_poly(rng, n, max_terms=2)
                acc = [a + h * gi for a, gi in zip(acc, g)]
            sym, neu = residual(acc, pres, ys, steps)
            assert sym.is_zero() and neu.is_zero()


def test_syzygy_agrees_with_integer_kernel_at_n0(rng):
    """With no variables the relation module is an integer kernel; compare
    against brute force over a small cube using lattice membership only."""
    for _ in range(12):
        d = rng.randint(1, 2)
        K = rng.randint(1, 3)
        ys = [[LaurentPoly.constant(0, rng.randint(-3, 3)) for _ in range(d)] for _ in range(K)]
        rels = [[LaurentPoly.constant(0, rng.randint(-2, 2)) for _ in range(d)]
                for _ in range(rng.randint(0, 1))]
        rels = [r for r in rels if any(not p.is_zero() for p in r)]
        pres = ModulePresentation(n=0, d=d, rels_N=rels)
        basis = syzygy_basis(pres, ys, [()] * K)
        gen_rows = [[int(g[i].terms.get((), 0)) for i in range(K)] for g in basis.generators]
        lattice = linalg.hermite_row_basis(gen_rows) if gen_rows else []
        rel_rows = [[int(r[i].terms.get((), 0)) for i in range(d)] for r in rels]
        rel_lattice = linalg.hermite_row_basis(rel_rows) if rel_rows else []

        def in_module(f):  # independent check: sum f_i y_i lies in the relation lattice
            img = [sum(f[i] * int(ys[i][j].terms.get((), 0)) for i in range(K))
                   for j in range(d)]
            if not any(img):
                return True
            return lattice_coordinates(rel_lattice, img) is not None

        import itertools
        for f in itertools.product(range(-2, 3), repeat=K):
            expected = in_module(list(f))
            got = (not any(f)) or lattice_coordinates(lattice, list(f)) is not None
            assert got == expected, (f, ys, rels)


def test_strict_validation():
    pres = ModulePresentation(
        n=1, d=1,
        rels_N=[[mono((1,), 2)]],
        gens_M=[[LaurentPoly.constant(1, 2)]],
    )
    pres.validate_strict()  # 2X in <2>
    bad = ModulePresentation(
        n=1, d=1,
        rels_N=[[LaurentPoly.one(1)]],
        gens_M=[[LaurentPoly.constant(1, 2)]],
    )
    with pytest.raises(ValueError):
        bad.validate_strict()


def test_non_integral_coefficients_rejected():
    from fractions import Fraction

    with pytest.raises(ValueError):
        LaurentSubmodule(1, 1, [[LaurentPoly.constant(1, Fraction(1, 2))]])


def test_one_pass_decoding_matches_the_composition():
    """The decoder against what it replaced, on seeded instances shaped like
    acceptance criterion 5 (n <= 2, d <= 2, K <= 3, up to two relations):
    each raw syzygy through `raw_to_vector`, the column shifts and
    `normalize_unit`, then `normalize_unit` again on its first K
    coordinates.  The same vectors with their terms in the same order, for
    the first K coordinates and for all of them."""
    rng = random.Random(556)
    decoded = 0
    for _ in range(40):
        n, d, K = rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 3)
        rels = [[random_poly(rng, n, max_terms=2) for _ in range(d)]
                for _ in range(rng.randint(0, 2))]
        rels = [r for r in rels if any(not f.is_zero() for f in r)]
        pres = ModulePresentation(n=n, d=d, rels_N=rels)
        ys = [[random_poly(rng, n, max_terms=2) for _ in range(d)] for _ in range(K)]
        steps = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(K)]
        cols, p = stacked_columns(pres, ys, steps)
        cleared = [clear_vector(col, n) for col in cols]
        whole = []
        for s in groebner.syzygy_generators([raw for raw, _ in cleared], p, n):
            vec = raw_to_vector(s, len(cols), n)
            whole.append(normalize_unit([f.shift(cleared[i][1]) for i, f in enumerate(vec)], n))
        for k, want in ((len(cols), whole), (K, [normalize_unit(v[:K], n) for v in whole])):
            got = algebra._syzygies(cols, p, n, k)
            assert [[list(f.terms.items()) for f in v] for v in got] == \
                [[list(f.terms.items()) for f in v] for v in want]
            decoded += len(got)
    assert decoded >= 100


def _rank_certificate_cases(rng):
    """Cleared column sets with n = 0..3, p = 1..3 rows and k <= p columns of
    1-3 term entries.  In some, one entry gains a term with an exponent
    >= 2^70, and the other entries are monomials: reducing X^(2^70) by a
    binomial would take 2^70 steps.  A third of the sets are made dependent
    by a zero column or a multiple of another column."""
    for case in range(240):
        n, p = case % 4, rng.randint(1, 3)
        k = rng.randint(1, p)
        huge = n and rng.random() < 0.3
        cols = [[random_poly(rng, n, max_terms=1 if huge else 3, exp=2, coef=3)
                 for _ in range(p)] for _ in range(k)]
        if huge:
            j, i, var = rng.randrange(k), rng.randrange(p), rng.randrange(n)
            e = [0] * n
            e[var] = 2 ** 70 + rng.randint(0, 5)
            cols[j][i] = cols[j][i] + mono(tuple(e), rng.choice((-1, 2)))
        if k > 1 and case % 3 == 0:
            f = random_poly(rng, n, max_terms=2, allow_zero=False)
            cols[-1] = [f * g for g in cols[0]] if rng.random() < 0.7 else \
                [LaurentPoly.zero(n)] * p
        yield [clear_vector(col, n)[0] for col in cols], p, n


def test_rank_certificate_only_fires_without_syzygies():
    """Whenever the rank mod a prime certifies the columns independent, the
    Groebner engine on the same cleared columns finds no syzygy either."""
    rng = random.Random(3203)
    seen = {"fired": 0, "missed": 0, "huge": 0}
    for cleared, p, n in _rank_certificate_cases(rng):
        fired = algebra._independent_mod_prime(cleared, p, n)
        if fired:
            assert groebner.syzygy_generators(cleared, p, n) == [], cleared
        seen["fired" if fired else "missed"] += 1
        seen["huge"] += fired and any(e >= 2 ** 70 for c in cleared for _, m in c for e in m)
    assert min(seen.values()) >= 10, seen


def test_rank_certificate_misses_fall_through_to_groebner(monkeypatch):
    """Dependent columns, and independent ones whose determinant X - 2
    vanishes at the point X = 2, both miss the certificate and keep the
    Groebner run's syzygies."""
    X, one, zero = mono((1,)), LaurentPoly.one(1), LaurentPoly.zero(1)
    dependent = [[one, X], [X, X * X]]
    unlucky = [[X - LaurentPoly.constant(1, 2), zero], [zero, one]]
    for cols in (dependent, unlucky):
        assert not algebra._independent_mod_prime([clear_vector(c, 1)[0] for c in cols], 2, 1)
    runs = []
    real = groebner.syzygy_generators
    monkeypatch.setattr(groebner, "syzygy_generators",
                        lambda *a, **kw: runs.append(1) or real(*a, **kw))
    assert algebra.laurent_syzygies(dependent, 2, 1) == [[X, -one]]
    assert algebra.laurent_syzygies(unlucky, 2, 1) == []
    assert len(runs) == 2


def test_independent_singleton_decides_without_groebner(monkeypatch):
    """A singleton with a nonzero step over Z[X^pm]/(2): its columns (1; X - 1)
    and (2; 0) are independent, so the refuter's `no` comes without a
    Groebner run, with the certificate it had with one."""
    def refuse(*args, **kwargs):
        raise AssertionError("the Groebner syzygy run was reached")

    monkeypatch.setattr(groebner, "syzygy_generators", refuse)
    pres = ModulePresentation(n=1, d=1, rels_N=[[LaurentPoly.constant(1, 2)]])
    gens = GeneratorSet(pres, [GroupElement(pres, [LaurentPoly.one(1)], (1,))])
    verdict = decide_subset(gens, [1], Budget())
    assert verdict.kind == "no"
    assert jsonio.verdict_to_json(verdict)["certificate"] == {
        "dual": ["1"], "sample": ["1"], "samples_tested": 1}
