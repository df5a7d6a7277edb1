"""The packed Groebner engine against the engine it replaced.

`ref_*` below are verbatim copies of an earlier `normal_form`,
`buchberger`, `_reduce_basis`, `_buchberger_raw` and `syzygy_generators`,
with only their names changed; `axpy_terms`, the module-vector kernel they
use, is kept with them.  They keep terms as (position, exponent tuple)
pairs, find the leading term with a `max` over the work vector and the
reducer with a linear scan.  The reducer choice, the pair order and the
recipes fix the bytes of every syzygy output, so the engine must match them
exactly, at every field width of its packed terms: the same remainders
(with the same insertion order), the same reduction records, raw bases,
recipes and reduced bases, and the same syzygy generators in the same
order.  The engine lifts syzygies by reducing augmented vectors, where the
reference composes the lifting matrices, so a generator's terms come in
another order; they are compared as a dict.  The engine's raw run skips
the S-vectors that the chain criterion shows to reduce to zero, where the
reference reduces every pair, so equal raw bases and recipes check the
criterion, and the tests count the reductions it saves.

`old_normal_form` is the packed engine's `normal_form` before it kept its
reducer lists across calls, verbatim apart from its name.
"""
import heapq
import random
import time
from math import gcd

import pytest

from semizn import groebner
from semizn.groebner import DeadlineExceeded, TermOrder, _ext_gcd, deadline_scope

from conftest import fails_after


def axpy_terms(dst, coef, shift, src):
    """In-place dst += coef * X^shift * src for keys of the form (pos, expo).

    `shift` is an exponent tuple added to the exponent part of each key; used
    by module-vector arithmetic where keys are (position, exponents) pairs.
    """
    for (pos, expo), c in src.items():
        key = (pos, tuple(x + y for x, y in zip(expo, shift)))
        s = dst.get(key, 0) + coef * c
        if s:
            dst[key] = s
        elif key in dst:
            del dst[key]
    return dst


def test_axpy_removes_zeros():
    dst = {(0, (0,)): 2}
    axpy_terms(dst, -2, (0,), {(0, (0,)): 1})
    assert dst == {}


# -- reference: the previous engine, verbatim apart from names ----------------

def term_key(order: TermOrder, pos: int, mono: tuple):
    """The term order as a tuple: the eliminated-position flag, each
    block's (degree, exponents), then -pos.  The engine's packed ints
    compare as these tuples do."""
    parts = [1 if pos < order.elim_positions else 0]
    for block in order.blocks:
        sub = tuple(mono[i] for i in block)
        parts.append((sum(sub), sub))
    parts.append(-pos)
    return tuple(parts)


class _RefEntry:
    __slots__ = ("vec", "pos", "mono", "coef", "key")

    def __init__(self, vec: dict, order: TermOrder):
        self.vec = vec
        self.pos, self.mono = max(vec, key=lambda k: term_key(order, *k))
        self.coef = vec[(self.pos, self.mono)]
        self.key = term_key(order, self.pos, self.mono)


def ref_normalize_sign(vec: dict, order: TermOrder) -> dict:
    pos, mono = max(vec, key=lambda k: term_key(order, *k))
    if vec[(pos, mono)] < 0:
        return {k: -c for k, c in vec.items()}
    return vec


def ref_normal_form(vec: dict, basis: list[_RefEntry], order: TermOrder, record=None) -> dict:
    """Strong normal form with canonical remainders (0 <= r < |lc|).

    With a strong basis this is a unique coset representative; membership is
    normal_form == {}.  When `record` is a list, every reduction step appends
    (q, shift, basis_index) meaning q * X^shift * basis[index] was
    subtracted, so vec = remainder + sum of recorded multiples.
    """
    work = dict(vec)
    out = {}
    while work:
        pos, mono = max(work, key=lambda k: term_key(order, *k))
        c = work[(pos, mono)]
        best = None
        for idx, g in enumerate(basis):
            if g.pos != pos or len(g.mono) != len(mono):
                continue
            if all(a <= b for a, b in zip(g.mono, mono)):
                cand = (abs(g.coef), idx)
                if best is None or cand < best:
                    best = cand
        if best is not None:
            g = basis[best[1]]
            r = c % abs(g.coef)
            q = (c - r) // g.coef
            if q:
                shift = tuple(b - a for a, b in zip(g.mono, mono))
                axpy_terms(work, -q, shift, g.vec)
                if record is not None:
                    record.append((q, shift, best[1]))
                if r:
                    # the reduced term is now irreducible: park it
                    del work[(pos, mono)]
                    out[(pos, mono)] = r
                continue
        del work[(pos, mono)]
        out[(pos, mono)] = c
    return out


def ref_buchberger(gens: list[dict], order: TermOrder, deadline=None) -> list[_RefEntry]:
    """Strong Groebner basis of the module generated by `gens`.

    Processes S-vectors and GCD-vectors by the normal strategy (smallest lcm
    term first); deterministic for a fixed input order.
    """
    basis: list[_RefEntry] = []
    for g in gens:
        if g:
            basis.append(_RefEntry(ref_normalize_sign(dict(g), order), order))

    pending: list = []
    counter = 0

    def push_pairs(new_idx: int):
        nonlocal counter
        gnew = basis[new_idx]
        for i in range(new_idx):
            gi = basis[i]
            if gi.pos != gnew.pos:
                continue
            lcm_mono = tuple(max(a, b) for a, b in zip(gi.mono, gnew.mono))
            counter += 1
            heapq.heappush(pending, (term_key(order, gi.pos, lcm_mono), counter, i, new_idx))

    for idx in range(len(basis)):
        push_pairs(idx)

    while pending:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("deadline exceeded")
        _, _, i, j = heapq.heappop(pending)
        gi, gj = basis[i], basis[j]
        lcm_mono = tuple(max(a, b) for a, b in zip(gi.mono, gj.mono))
        si = tuple(l - a for l, a in zip(lcm_mono, gi.mono))
        sj = tuple(l - a for l, a in zip(lcm_mono, gj.mono))
        ci, cj = gi.coef, gj.coef
        l = abs(ci * cj) // gcd(abs(ci), abs(cj))
        candidates = []
        s_vec: dict = {}
        axpy_terms(s_vec, l // ci, si, gi.vec)
        axpy_terms(s_vec, -(l // cj), sj, gj.vec)
        candidates.append(s_vec)
        if ci % cj != 0 and cj % ci != 0:
            _, s, t = _ext_gcd(ci, cj)
            g_vec: dict = {}
            axpy_terms(g_vec, s, si, gi.vec)
            axpy_terms(g_vec, t, sj, gj.vec)
            candidates.append(g_vec)
        for cand in candidates:
            rem = ref_normal_form(cand, basis, order)
            if rem:
                basis.append(_RefEntry(ref_normalize_sign(rem, order), order))
                push_pairs(len(basis) - 1)
    return ref_reduce_basis(basis, order)


def ref_reduce_basis(basis: list[_RefEntry], order: TermOrder) -> list[_RefEntry]:
    """Minimalize (drop entries whose leading term is a multiple of another's)
    and tail-reduce, in a deterministic order."""
    entries = sorted(basis, key=lambda e: (e.key, abs(e.coef)))
    kept: list[_RefEntry] = []
    for e in entries:
        redundant = False
        for h in kept:
            if (
                h.pos == e.pos
                and all(a <= b for a, b in zip(h.mono, e.mono))
                and e.coef % h.coef == 0
            ):
                redundant = True
                break
        if not redundant:
            kept.append(e)
    reduced = []
    for e in kept:
        tail = dict(e.vec)
        del tail[(e.pos, e.mono)]
        others = [h for h in kept if h is not e]
        nf_tail = ref_normal_form(tail, others, order)
        nf_tail[(e.pos, e.mono)] = e.coef
        reduced.append(_RefEntry(nf_tail, order))
    reduced.sort(key=lambda e: e.key)
    return reduced


def ref_buchberger_raw(gens: list[dict], order: TermOrder, deadline=None):
    """Incremental strong-basis run that records, per raw element, a one-level
    recipe: ("gen", j, sign) for (sign-normalized) input j, or
    ("comb", [(coef, shift, raw_idx), ...]) meaning the signed sum of shifted
    earlier raw elements.  Returns (raw entries, recipes)."""
    basis: list[_RefEntry] = []
    recipes: list = []
    for j, g in enumerate(gens):
        if not g:
            continue
        vec = dict(g)
        pos, mono = max(vec, key=lambda k: term_key(order, *k))
        sign = -1 if vec[(pos, mono)] < 0 else 1
        if sign < 0:
            vec = {k: -c for k, c in vec.items()}
        basis.append(_RefEntry(vec, order))
        recipes.append(("gen", j, sign))

    pending: list = []
    counter = 0

    def push_pairs(new_idx: int):
        nonlocal counter
        gnew = basis[new_idx]
        for i in range(new_idx):
            gi = basis[i]
            if gi.pos != gnew.pos:
                continue
            lcm_mono = tuple(max(a, b) for a, b in zip(gi.mono, gnew.mono))
            counter += 1
            heapq.heappush(pending, (term_key(order, gi.pos, lcm_mono), counter, i, new_idx))

    for idx in range(len(basis)):
        push_pairs(idx)

    while pending:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("deadline exceeded")
        _, _, i, j = heapq.heappop(pending)
        gi, gj = basis[i], basis[j]
        lcm_mono = tuple(max(a, b) for a, b in zip(gi.mono, gj.mono))
        si = tuple(l - a for l, a in zip(lcm_mono, gi.mono))
        sj = tuple(l - a for l, a in zip(lcm_mono, gj.mono))
        ci, cj = gi.coef, gj.coef
        l = abs(ci * cj) // gcd(abs(ci), abs(cj))
        seeds = [[(l // ci, si, i), (-(l // cj), sj, j)]]
        if ci % cj != 0 and cj % ci != 0:
            _, s, t = _ext_gcd(ci, cj)
            seeds.append([(s, si, i), (t, sj, j)])
        for seed in seeds:
            vec: dict = {}
            for coef, shift, idx in seed:
                axpy_terms(vec, coef, shift, basis[idx].vec)
            rec: list = []
            rem = ref_normal_form(vec, basis, order, record=rec)
            if not rem:
                continue
            comb = list(seed) + [(-qq, shift, m) for qq, shift, m in rec]
            pos, mono = max(rem, key=lambda k: term_key(order, *k))
            if rem[(pos, mono)] < 0:
                rem = {k: -c for k, c in rem.items()}
                comb = [(-c, s2, m) for c, s2, m in comb]
            basis.append(_RefEntry(rem, order))
            recipes.append(("comb", comb))
            push_pairs(len(basis) - 1)
    return basis, recipes


def ref_syzygy_generators(columns: list[dict], p: int, nvars: int, deadline=None) -> list[dict]:
    """Generators of {h in Z[x]^q : sum_i h_i * columns[i] = 0}.

    Extended-basis (lifting) route in three matrices: a fast untracked
    strong basis G of the column module with per-element recipes, the
    representation A with G = A * columns (recipes composed lazily), the
    representation B with columns = B * G (recorded reductions), and the
    syzygies of G itself read off the S- and GCD-pair reductions of the
    final basis (over a PID the pairwise S-syzygies generate the term
    syzygies, by the Bezout induction).  The output is
    {sigma * A} + rows(I - B * A), every row verified exactly against the
    columns before being returned.
    """
    q = len(columns)
    zero = (0,) * nvars
    order = TermOrder(nvars, elim_positions=p)
    raw, recipes = ref_buchberger_raw(columns, order, deadline=deadline)

    # minimalize, then tail-reduce against the pre-reduction survivors
    order_idx = sorted(range(len(raw)), key=lambda t: (raw[t].key, abs(raw[t].coef)))
    kept_idx: list[int] = []
    for t in order_idx:
        e = raw[t]
        redundant = any(
            raw[k].pos == e.pos
            and all(a <= b for a, b in zip(raw[k].mono, e.mono))
            and e.coef % raw[k].coef == 0
            for k in kept_idx
        )
        if not redundant:
            kept_idx.append(t)
    final_entries: list[_RefEntry] = []
    final_recipes: list = []
    for t in kept_idx:
        e = raw[t]
        others = [raw[k] for k in kept_idx if k != t]
        tail = dict(e.vec)
        del tail[(e.pos, e.mono)]
        rec: list = []
        nf_tail = ref_normal_form(tail, others, order, record=rec)
        nf_tail[(e.pos, e.mono)] = e.coef
        final_entries.append(_RefEntry(nf_tail, order))
        comb = [(1, zero, t)]
        remap = [k for k in kept_idx if k != t]
        comb += [(-qq, shift, remap[m]) for qq, shift, m in rec]
        final_recipes.append(("comb", comb))

    # A: each final element as a combination of the original columns
    memo: dict = {}

    def a_row(raw_idx: int) -> dict:
        if raw_idx in memo:
            return memo[raw_idx]
        kind = recipes[raw_idx]
        if kind[0] == "gen":
            row = {(kind[1], zero): kind[2]}
        else:
            row = {}
            for coef, shift, m in kind[1]:
                axpy_terms(row, coef, shift, a_row(m))
        memo[raw_idx] = row
        return row

    def compose(coeff_vec: dict, rows: list) -> dict:
        out: dict = {}
        for (k, mono), c in coeff_vec.items():
            axpy_terms(out, c, mono, rows[k])
        return out

    a_final = []
    for rec_f in final_recipes:
        row = {}
        for coef, shift, m in rec_f[1]:
            axpy_terms(row, coef, shift, a_row(m))
        a_final.append(row)

    # B: each column reduced to zero by the final strong basis
    b_rows = []
    for col in columns:
        rec = []
        rem = ref_normal_form(dict(col), final_entries, order, record=rec)
        if rem:
            raise AssertionError("column failed to reduce by its own strong basis")
        row: dict = {}
        for qq, shift, k in rec:
            row[(k, shift)] = row.get((k, shift), 0) + qq
        b_rows.append({k: c for k, c in row.items() if c})

    # syzygies of the final basis from its S- and GCD-pairs
    candidates: list[dict] = []
    t_count = len(final_entries)
    for i in range(t_count):
        for j in range(i + 1, t_count):
            gi, gj = final_entries[i], final_entries[j]
            if gi.pos != gj.pos:
                continue
            lcm_mono = tuple(max(a, b) for a, b in zip(gi.mono, gj.mono))
            si = tuple(l - a for l, a in zip(lcm_mono, gi.mono))
            sj = tuple(l - a for l, a in zip(lcm_mono, gj.mono))
            ci, cj = gi.coef, gj.coef
            l = abs(ci * cj) // gcd(abs(ci), abs(cj))
            seeds = [[(l // ci, si, i), (-(l // cj), sj, j)]]
            if ci % cj != 0 and cj % ci != 0:
                _, s, t = _ext_gcd(ci, cj)
                seeds.append([(s, si, i), (t, sj, j)])
            for seed in seeds:
                vec: dict = {}
                for coef, shift, idx in seed:
                    axpy_terms(vec, coef, shift, final_entries[idx].vec)
                rec = []
                rem = ref_normal_form(vec, final_entries, order, record=rec)
                if rem:
                    raise AssertionError("pair of a strong basis failed to reduce to zero")
                sigma: dict = {}
                for coef, shift, idx in seed:
                    sigma[(idx, shift)] = sigma.get((idx, shift), 0) + coef
                for qq, shift, m in rec:
                    sigma[(m, shift)] = sigma.get((m, shift), 0) - qq
                sigma = {k: c for k, c in sigma.items() if c}
                if sigma:
                    candidates.append(compose(sigma, a_final))

    # rows of I - B*A
    for i in range(q):
        row = {(i, zero): 1}
        ba = compose(b_rows[i], a_final)
        for k, c in ba.items():
            row[k] = row.get(k, 0) - c
        row = {k: c for k, c in row.items() if c}
        if row:
            candidates.append(row)

    out = []
    seen = set()
    for cand in candidates:
        if not cand:
            continue
        check: dict = {}
        for (j, mono), c in cand.items():
            axpy_terms(check, c, mono, columns[j])
        if check:
            raise AssertionError("produced vector is not a syzygy of the columns")
        key = frozenset(cand.items())
        if key not in seen:
            seen.add(key)
            out.append(cand)
    return out


# -- inputs -----------------------------------------------------------------

COEFS = (1, -1, 2, -2, 2, 3, -3, 4, 6)  # repeated |lc| values make reducer ties
HUGE = (2 ** 31 - 1, 2 ** 40, 2 ** 70)  # the largest exponent at width 32, and past it


def random_vec(rng, nvars, npos, nterms, maxexp=2, big=None):
    """Random terms with exponents in 0..maxexp; with `big`, the first
    variable's exponents are 0, big or 2 * big instead, so that the
    reductions take as many steps as with small exponents."""
    vec = {}
    for _ in range(nterms):
        pos, mono = rng.randrange(npos), tuple(rng.randint(0, maxexp) for _ in range(nvars))
        if big:
            mono = (rng.randint(0, 2) * big,) + mono[1:]
        vec[(pos, mono)] = rng.choice(COEFS)
    return vec


def random_gens(rng, nvars, npos, big=None):
    return [random_vec(rng, nvars, npos, rng.randint(1, 3), big=big)
            for _ in range(rng.randint(1, 3))]


def saturation_input(gens, nvars, npos):
    """The extended system and block order `saturated_basis` builds: a fresh
    variable first, eliminated, and (u*x_1*...*x_n - 1) e_j per position."""
    ext = [{(pos, (0,) + mono): c for (pos, mono), c in g.items()} for g in gens]
    for j in range(npos):
        ext.append({(j, (1,) * (nvars + 1)): 1, (j, (0,) * (nvars + 1)): -1})
    return ext, TermOrder(nvars + 1, blocks=[(0,), tuple(range(1, nvars + 1))])


def items(entries):
    return [list(e.vec.items()) for e in entries]


def syzygy_items(syzygies):
    """Each generator's terms as a dict, in generator order: the order of the
    terms inside a generator is not output (`jsonio.poly_to_json` sorts
    them, `syzygy_basis` deduplicates by frozenset)."""
    return [dict(s) for s in syzygies]


def entries(vecs, order):
    """Engine entries of arbitrary vectors, packed at the width they need."""
    pk = order._fitting(vecs)
    return [groebner._Entry(pk.pack_vec(v), pk) for v in vecs]


def unpacked_recipes(recipes, pk):
    return [r if r[0] == "gen" else ("comb", [(c, pk.unpack_shift(s), m) for c, s, m in r[1]])
            for r in recipes]


def random_order(rng, nvars, npos):
    """A plain order with some eliminated positions, or a block order whose
    first block is one eliminated variable."""
    if nvars > 1 and rng.random() < 0.5:
        return TermOrder(nvars, blocks=[(0,), tuple(range(1, nvars))])
    return TermOrder(nvars, elim_positions=rng.randint(0, npos))


def random_block_order(rng, nvars, npos):
    """The variables shuffled into one to three blocks, and some eliminated
    positions."""
    perm = list(range(nvars))
    rng.shuffle(perm)
    cuts = sorted(rng.sample(range(1, nvars), min(max(nvars - 1, 0), rng.randint(0, 2))))
    blocks = [tuple(perm[a:b]) for a, b in zip([0] + cuts, cuts + [nvars])]
    return TermOrder(nvars, blocks=blocks, elim_positions=rng.randint(0, npos))


def recorded_remainder(vec: dict, basis, order: TermOrder, record: list) -> dict:
    """`groebner.remainder`, with the steps of the `normal_form` run that
    finished appended to `record` as (quotient, shift tuple, index)."""
    def run(pk):
        steps = []
        packed = [e if e.pk is pk else groebner._Entry(pk.pack_vec(e.vec), pk) for e in basis]
        out = groebner.normal_form(pk.pack_vec(vec), packed, pk, record=steps)
        record.extend((q, pk.unpack_shift(s), idx) for q, s, idx in steps)
        return pk.unpack_vec(out)
    return groebner._widening(order, [vec], run, max((e.pk.width for e in basis), default=32))


def tied_divisors(basis, record):
    """How many recorded steps had another divisor with the same |lc| at the
    reduced term, so that the tie-break chose the reducer."""
    ties = 0
    for _, shift, idx in record:
        g = basis[idx]
        mono = tuple(a + s for a, s in zip(g.mono, shift))
        ties += any(
            k != idx and h.pos == g.pos and abs(h.coef) == abs(g.coef)
            and all(a <= b for a, b in zip(h.mono, mono))
            for k, h in enumerate(basis)
        )
    return ties


def recorded_widths(monkeypatch):
    """The list that collects the width of every packing asked for."""
    widths = []
    real = TermOrder._packing

    def packing(self, width):
        widths.append(width)
        return real(self, width)

    monkeypatch.setattr(TermOrder, "_packing", packing)
    return widths


def old_normal_form(vec: dict, basis: list, pk, record=None) -> dict:
    """Strong normal form with canonical remainders (0 <= r < |lc|), over
    the packing `pk` of `vec`, `basis` and the result.

    With a strong basis this is a unique coset representative; membership is
    normal_form == {}.  When `record` is a list, every reduction step appends
    (q, shift, basis_index) meaning q * X^shift * basis[index] was
    subtracted, so vec = remainder + sum of recorded multiples.
    """
    reducers: dict = {}
    top = pk.top
    for idx in sorted(range(len(basis)), key=lambda i: abs(basis[i].coef)):  # stable: ties by index
        g = basis[idx]
        reducers.setdefault(g.lead & top, []).append((g.lead, g.coef, g.tail, idx))
    divmask, guard = pk.divmask, pk.guard
    work = dict(vec)
    heap = [-t for t in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        lead = -heapq.heappop(heap)
        c = work.pop(lead, None)
        if c is None:
            continue  # cancelled since it was pushed (lazy deletion)
        for g_lead, g_coef, g_tail, idx in reducers.get(lead & top, ()):
            shift = lead - g_lead
            if shift >= 0 and not shift & divmask:
                break
        else:
            out[lead] = c
            continue
        r = c % abs(g_coef)
        q = (c - r) // g_coef
        if q:
            for e, cg in g_tail:
                t = e + shift
                if t & guard:
                    raise groebner._Overflow
                d = q * cg
                old = work.get(t)
                if old is None:
                    work[t] = -d
                    heapq.heappush(heap, -t)
                elif old != d:
                    work[t] = old - d
                else:
                    del work[t]
            if record is not None:
                record.append((q, shift, idx))
        if r:
            out[lead] = r
    return out


# -- the packed terms -----------------------------------------------------------

def test_packing_matches_the_order():
    """Over random block orders with eliminated positions and n <= 4: the
    int order is `term_key`'s order, unpacking inverts packing,
    shifting is addition, the mask test is divisibility, and the guard
    bits see every field that a shift takes past the width."""
    rng = random.Random(34)
    for _ in range(300):
        nvars, npos = rng.randint(0, 4), rng.randint(1, 4)
        order = random_block_order(rng, nvars, npos)
        pk = order._packing(rng.choice((32, 64, 128)))
        big = pk.top // 4

        def mono():
            return tuple(rng.choice((rng.randint(0, 3), rng.randint(0, big))) for _ in range(nvars))

        terms = [(rng.randrange(npos), mono()) for _ in range(8)]
        terms += [(pos, tuple(e + rng.randint(0, 2) for e in m)) for pos, m in terms]
        terms += [(rng.randrange(npos), m) for _, m in terms]
        for a in terms:
            ta = pk.pack(*a)
            assert pk.unpack(ta) == a
            for b in terms:
                tb = pk.pack(*b)
                assert (ta < tb) == (term_key(order, *a) < term_key(order, *b))
                assert (ta == tb) == (a == b)
                d = tb - ta
                divides = a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))
                assert (d >= 0 and not d & pk.divmask) == divides
                if divides:  # d is the shift X^(b - a): adding it shifts every term
                    s = tuple(y - x for x, y in zip(a[1], b[1]))
                    assert pk.unpack_shift(d) == s
                    for c in terms[:4]:
                        shifted = tuple(x + y for x, y in zip(c[1], s))
                        fits = all(sum(shifted[i] for i in blk) <= pk.top for blk in order.blocks)
                        assert not (pk.pack(*c) + d) & pk.guard == fits
                        if fits:
                            assert pk.pack(*c) + d == pk.pack(c[0], shifted)


def test_fitting_starts_at_32_bits():
    order = TermOrder(2, blocks=[(0,), (1,)])
    assert order._fitting([{(0, (2 ** 31 - 1, 2 ** 31 - 1)): 1}]).width == 32
    assert order._fitting([{(0, (2 ** 31, 0)): 1}]).width == 64
    assert order._fitting([{(0, (2 ** 70, 0)): 1}]).width == 128
    assert TermOrder(2)._fitting([{(0, (2 ** 30, 2 ** 30)): 1}]).width == 64  # the degree field


# -- the engine against the reference ---------------------------------------------

def test_normal_form_matches_reference():
    rng = random.Random(31)
    ties = 0
    for _ in range(400):
        nvars, npos = rng.randint(1, 3), rng.randint(1, 3)
        order = random_order(rng, nvars, npos)
        vecs = [random_vec(rng, nvars, npos, rng.randint(1, 3), maxexp=1)
                for _ in range(rng.randint(1, 6))]
        vec = random_vec(rng, nvars, npos, rng.randint(1, 8), maxexp=4)
        want_rec, got_rec = [], []
        want = ref_normal_form(vec, [_RefEntry(v, order) for v in vecs], order, record=want_rec)
        basis = entries(vecs, order)
        got = recorded_remainder(vec, basis, order, got_rec)
        assert list(got.items()) == list(want.items())
        assert list(groebner.remainder(vec, basis, order).items()) == list(got.items())
        assert got_rec == want_rec
        ties += tied_divisors(basis, got_rec)
    assert ties >= 200


def test_kept_tables_match_the_old_normal_form():
    """`normal_form` over a kept `_Basis` (built at once, or built from one
    entry and appended to, as in the raw run) and over a plain list,
    against the body it replaced: the same remainder, in the same insertion
    order, and the same record.  Half the bases are augmented, so every
    leading term is a column term and the e-part terms below them go
    through the heap after every column term; in the other half some
    leading term may sit below the flag."""
    rng = random.Random(36)
    augmented = 0
    for case in range(600):
        nvars, p = rng.randint(1, 3), rng.randint(1, 3)
        npos = p + rng.randint(1, 3)
        order = TermOrder(nvars, elim_positions=p)
        if case % 2:
            vecs = [{**random_vec(rng, nvars, npos, rng.randint(0, 3), maxexp=3),
                     **random_vec(rng, nvars, p, rng.randint(1, 3), maxexp=1)}
                    for _ in range(rng.randint(1, 6))]
        else:
            vecs = [random_vec(rng, nvars, npos, rng.randint(1, 3), maxexp=1)
                    for _ in range(rng.randint(1, 6))]
        basis = entries(vecs, order)
        pk = basis[0].pk
        grown = groebner._Basis(pk, basis[:1])  # as the raw run: built, then appended to
        for e in basis[1:]:
            grown.append(e)
        kept = groebner._Basis(pk, basis)
        for table in (grown, kept):  # every index once, each list in (|lc|, index) order
            indices = sorted(r[1] for rs in table.reducers.values() for r in rs)
            assert indices == list(range(len(basis)))
            assert all(rs == sorted(rs) for rs in table.reducers.values())
        augmented += (all(e.lead & pk.flag for e in basis)
                      and any(t < pk.flag for e in basis for t, _ in e.tail))
        for _ in range(3):
            vec = pk.pack_vec(random_vec(rng, nvars, npos, rng.randint(1, 8), maxexp=4))
            want_rec = []
            want = old_normal_form(vec, basis, pk, record=want_rec)
            for table in (kept, grown, basis):
                got_rec = []
                got = groebner.normal_form(vec, table, pk, record=got_rec)
                assert list(got.items()) == list(want.items())
                assert got_rec == want_rec
    assert augmented >= 200


def counted_normal_forms(monkeypatch) -> list:
    """Patch `groebner.normal_form` so that the returned one-item list counts
    its calls."""
    calls = [0]
    real = groebner.normal_form

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "normal_form", counting)
    return calls


def pair_vectors(raw) -> int:
    """The S- and GCD-vectors that `ref_buchberger_raw` reduces to end at
    the raw basis `raw`: it tests no pair, and it pops every pair of
    elements at one position once."""
    return sum(1 + (gi.coef % gj.coef != 0 and gj.coef % gi.coef != 0)
               for i, gi in enumerate(raw) for gj in raw[i + 1:] if gi.pos == gj.pos)


def test_buchberger_matches_reference(monkeypatch):
    calls = counted_normal_forms(monkeypatch)
    made = reduced = 0
    rng = random.Random(32)
    for case in range(150):
        saturate = case % 2 == 1  # with the fresh variable, at most 3 in all
        nvars, npos = rng.randint(1, 2 if saturate else 3), rng.randint(1, 3)
        gens = random_gens(rng, nvars, npos)
        if saturate:
            gens, order = saturation_input(gens, nvars, npos)
        else:
            order = random_order(rng, nvars, npos)
        want_raw, want_recipes = ref_buchberger_raw(gens, order)
        pk = order._fitting(gens)
        before = calls[0]
        got_raw, got_recipes = groebner._buchberger_raw([pk.pack_vec(g) for g in gens], pk)
        made += calls[0] - before
        reduced += pair_vectors(want_raw)
        assert items(got_raw) == items(want_raw)
        assert unpacked_recipes(got_recipes, pk) == want_recipes
        want = ref_buchberger(gens, order)
        got = groebner.buchberger(gens, order)
        assert items(got) == items(want)
        for _ in range(3):  # membership and coset representatives
            vec = random_vec(rng, order.nvars, npos, rng.randint(1, 5), maxexp=3)
            want_rec, got_rec = [], []
            assert ref_normal_form(vec, want, order, record=want_rec) == \
                recorded_remainder(vec, got, order, got_rec) == groebner.remainder(vec, got, order)
            assert got_rec == want_rec
    assert made <= reduced - 1000  # the chain criterion skips S-vectors


def test_syzygy_generators_match_reference(monkeypatch):
    calls = counted_normal_forms(monkeypatch)
    made = [0]
    raw_run = groebner._buchberger_raw

    def counted_raw_run(*args, **kwargs):
        before = calls[0]
        out = raw_run(*args, **kwargs)
        made[0] += calls[0] - before
        return out

    monkeypatch.setattr(groebner, "_buchberger_raw", counted_raw_run)
    reduced = 0
    rng = random.Random(33)
    for _ in range(150):
        nvars, p = rng.randint(1, 3), rng.randint(1, 3)
        columns = [random_vec(rng, nvars, p, rng.randint(1, 2)) for _ in range(rng.randint(3, 5))]
        want = ref_syzygy_generators(columns, p, nvars)
        got = groebner.syzygy_generators(columns, p, nvars)
        assert syzygy_items(got) == syzygy_items(want)
        reduced += pair_vectors(ref_buchberger_raw(columns, TermOrder(nvars, elim_positions=p))[0])
    assert made[0] <= reduced - 1000  # the chain criterion skips S-vectors


def chain_witnesses(basis, i: int, j: int) -> list:
    """The chain criterion at the pair (i, j), i < j, of `basis`, checked
    on unpacked terms: per middle element k, (lcm(i, k) == T, lcm(j, k) ==
    T) for the pair's lcm T.  A pair with lcm T is popped in creation
    order, so (i, k) comes before (i, j) iff k < j, and (j, k) iff k < i."""
    gi, gj = basis[i], basis[j]
    t = tuple(map(max, gi.mono, gj.mono))
    l_ij = abs(gi.coef * gj.coef) // gcd(gi.coef, gj.coef)
    out = []
    for k, gk in enumerate(basis):
        if k in (i, j) or gk.pos != gi.pos or l_ij % gk.coef:
            continue
        if any(a > b for a, b in zip(gk.mono, t)):
            continue
        ik = tuple(map(max, gi.mono, gk.mono)) == t
        jk = tuple(map(max, gj.mono, gk.mono)) == t
        if not (ik and k > j or jk and k > i):
            out.append((ik, jk))
    return out


@pytest.mark.parametrize("gens, order, kind", [
    # n = 2: lcm(i, k) and lcm(j, k) both below T
    ([{(0, (0, 0)): 2}, {(0, (2, 0)): 6, (0, (0, 2)): 1}], TermOrder(2), (False, False)),
    # n = 1: the monomials are totally ordered, so lcm(i, k) or lcm(j, k) is T
    ([{(0, (1,)): -3}, {(0, (2,)): 4, (0, (0,)): -2}], TermOrder(1), (False, True)),
    # n = 0: constants, every lcm is T and c_k | lcm(c_i, c_j) decides
    ([{(0, ()): 6}, {(0, ()): 2, (1, ()): 2}, {(0, ()): -3}], TermOrder(0), (True, True)),
    # `saturated_basis`'s order: the fresh variable in a block of its own
    (*saturation_input([{(0, (1,)): -1}], 1, 1), (True, False)),
], ids=["n2-both-below", "n1-equal-lcm", "n0-constants", "saturation"])
def test_chain_criterion_pinned(monkeypatch, gens, order, kind):
    """Each kind of middle element skips a nonzero S-vector that reduces to
    zero, and the raw run still matches the reference, which skips none."""
    skipped = []
    chained = groebner._chained

    def spy(basis, leads, lcm_term, i, j):
        skip = chained(basis, leads, lcm_term, i, j)
        if skip:
            s_vector = groebner._seed_vector(groebner._pair_seeds(basis, i, j)[0], basis)
            skipped.append((chain_witnesses(basis, i, j), s_vector,
                            groebner.normal_form(s_vector, basis, basis.pk)))
        return skip

    monkeypatch.setattr(groebner, "_chained", spy)
    want_raw, want_recipes = ref_buchberger_raw(gens, order)
    pk = order._fitting(gens)
    got_raw, got_recipes = groebner._buchberger_raw([pk.pack_vec(g) for g in gens], pk)
    assert items(got_raw) == items(want_raw)
    assert unpacked_recipes(got_recipes, pk) == want_recipes
    assert all(witnesses and rem == {} for witnesses, _, rem in skipped)
    assert any(kind in witnesses and s_vector for witnesses, s_vector, _ in skipped)


def test_lifting_refuses_a_basis_without_one_element(monkeypatch):
    """Without any one element of the minimal strong basis, some column or
    pair no longer reduces to zero, and the lifting raises instead of
    reading syzygies off the remainders."""
    minimal = groebner._minimal
    sizes = []

    def without(drop):
        def patched(basis, pk):
            kept = minimal(basis, pk)
            sizes.append(len(kept))
            return kept[:drop] + kept[drop + 1:]
        return patched

    rng = random.Random(35)
    for _ in range(40):
        nvars, p = rng.randint(1, 3), rng.randint(1, 3)
        columns = [random_vec(rng, nvars, p, rng.randint(1, 2)) for _ in range(rng.randint(3, 5))]
        drop = 0
        while drop == 0 or drop < sizes[-1]:
            monkeypatch.setattr(groebner, "_minimal", without(drop))
            with pytest.raises(AssertionError, match="failed to reduce"):
                groebner.syzygy_generators(columns, p, nvars)
            drop += 1
    assert len(sizes) > 40 and max(sizes) >= 3


@pytest.mark.parametrize("big", HUGE)
def test_huge_exponents_match_reference(big):
    """Exponents at and past the width of 32 bits, beside small ones,
    through all three entry points."""
    rng = random.Random(big)
    for _ in range(30):
        nvars, npos = rng.randint(1, 2), rng.randint(1, 2)
        order = random_order(rng, nvars, npos)
        vecs = [random_vec(rng, nvars, npos, rng.randint(1, 3), big=big)
                for _ in range(rng.randint(1, 4))]
        vec = random_vec(rng, nvars, npos, rng.randint(1, 6), big=big)
        want_rec, got_rec = [], []
        want = ref_normal_form(vec, [_RefEntry(v, order) for v in vecs], order, record=want_rec)
        basis = entries(vecs, order)
        got = recorded_remainder(vec, basis, order, got_rec)
        assert list(got.items()) == list(want.items())
        assert list(groebner.remainder(vec, basis, order).items()) == list(got.items())
        assert got_rec == want_rec
        gens = random_gens(rng, nvars, npos, big=big)
        assert items(groebner.buchberger(gens, order)) == items(ref_buchberger(gens, order))
        columns = [random_vec(rng, nvars, npos, rng.randint(1, 2), big=big) for _ in range(3)]
        assert syzygy_items(groebner.syzygy_generators(columns, npos, nvars)) == \
            syzygy_items(ref_syzygy_generators(columns, npos, nvars))


A = 2 ** 30 + 3  # fits the width of 32 bits; 2 * A does not


def test_normal_form_widens_mid_run(monkeypatch):
    """x0 -> x1^A under x0 dominant: reducing x0^3 creates x1^(2A) and then
    x1^(3A), past the width the inputs fit, and the call restarts wider."""
    order = TermOrder(2, blocks=[(0,), (1,)])
    vecs = [{(0, (1, 0)): 1, (0, (0, A)): -1}]
    vec = {(0, (3, 0)): 2, (0, (0, 1)): 5}
    basis = entries(vecs, order)
    assert basis[0].pk.width == 32
    widths = recorded_widths(monkeypatch)
    want_rec, got_rec = [], []
    want = ref_normal_form(vec, [_RefEntry(v, order) for v in vecs], order, record=want_rec)
    got = recorded_remainder(vec, basis, order, got_rec)
    assert list(got.items()) == list(want.items()) == [((0, (0, 3 * A)), 2), ((0, (0, 1)), 5)]
    assert list(groebner.remainder(vec, basis, order).items()) == list(got.items())
    assert got_rec == want_rec
    assert widths[0] == 32 and widths[-1] == 64


def test_buchberger_and_syzygies_widen_mid_run(monkeypatch):
    widths = recorded_widths(monkeypatch)
    order = TermOrder(2, blocks=[(0,), (1,)])
    gens = [{(0, (1, 0)): 1, (0, (0, A)): -1}, {(0, (2, 0)): 1, (0, (0, 1)): 1}]
    assert items(groebner.buchberger(gens, order)) == items(ref_buchberger(gens, order))
    assert widths[0] == 32 and widths[-1] == 64
    del widths[:]
    columns = [{(0, (A, 0)): 1, (1, (0, 0)): 2}, {(0, (0, A)): 3, (1, (0, 1)): -1},
               {(1, (1, 1)): 1}]
    assert syzygy_items(groebner.syzygy_generators(columns, 2, 2)) == \
        syzygy_items(ref_syzygy_generators(columns, 2, 2))
    assert widths[0] == 32 and widths[-1] == 64


def test_negative_exponents_are_refused():
    with pytest.raises(ValueError):
        groebner.buchberger([{(0, (1, -1)): 1}], TermOrder(2))


def test_axpy_guard_raises():
    pk = TermOrder(1)._packing(32)
    dst = {}
    with pytest.raises(groebner._Overflow):
        pk.axpy(dst, 1, pk.pack(0, (2 ** 31 - 2,)) - pk.pack(0, (0,)), {pk.pack(0, (2,)): 1})


def test_deadline_reaches_the_lifting(monkeypatch):
    """A deadline that passes while the raw run finishes stops the lifting
    after it: composing A, reducing the columns, the pair syzygies."""
    raw = groebner._buchberger_raw

    def slow_raw(gens, order):
        out = raw(gens, order)
        time.sleep(0.1)
        return out

    monkeypatch.setattr(groebner, "_buchberger_raw", slow_raw)
    columns = [{(0, (2, 1)): 2, (0, (0, 0)): 3}, {(0, (1, 2)): 3, (0, (1, 0)): -2},
               {(0, (1, 1)): 1}]
    assert groebner.syzygy_generators(columns, 1, 2)
    with pytest.raises(DeadlineExceeded), deadline_scope(0.05):
        groebner.syzygy_generators(columns, 1, 2)


@pytest.mark.parametrize("columns", [
    [{(0, (2 ** 70,)): 1, (0, (0,)): 1}, {(0, (1,)): 1, (0, (0,)): -2}],
    [{(0, (2 ** 70,)): 1, (0, (0,)): -1}, {(0, (1,)): 1, (0, (0,)): 1}],
])
def test_deadline_reaches_inside_one_normal_form(columns):
    """Reducing X^(2^70) +- 1 by a binomial in X takes about 2^70 steps of
    one normal form; the deadline stops it all the same."""
    with fails_after(2), pytest.raises(DeadlineExceeded), deadline_scope(0.3):
        groebner.syzygy_generators(columns, 1, 1)


def test_deadline_reaches_a_normal_form_with_huge_coefficients():
    """Reducing X^12000 by X - 2^360 takes 12,000 steps, each adding 360
    bits to the coefficient, so 4,096 of them take seconds; a pop of a
    coefficient past 4,096 bits reads the clock, and the deadline stops the
    reduction on time."""
    order = TermOrder(1)
    vec = {(0, (12000,)): 1}
    basis = entries([{(0, (1,)): 1, (0, (0,)): -2 ** 360}], order)
    pk = basis[0].pk
    with fails_after(2), pytest.raises(DeadlineExceeded), deadline_scope(0.5):
        groebner.normal_form(pk.pack_vec(vec), basis, pk)
