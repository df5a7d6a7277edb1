"""Strong Groebner bases over Z for submodules of free modules Z[x]^p.

This is the computational core behind relation-module membership and syzygy
extraction.  Coefficients stay in Z throughout (Buchberger over a PID: the
pair set contains both S-vectors and GCD-vectors, the latter built from
Bezout coefficients).  Module vectors are dicts mapping (position, exponent
tuple) to a nonzero int; exponents are nonnegative here, Laurent clearing
happens in the callers.

Term orders are block orders: variables are grouped into blocks compared
left to right, graded-lex inside each block.  A block consisting of a single
fresh variable placed first gives an elimination order for saturation; a
count of leading "eliminated" module positions that dominate every term in
the remaining positions gives the syzygy/elimination order on positions.

A strong basis guarantees that every member of the module reduces to zero,
and (with the canonical nonnegative-remainder convention used here) that
normal forms are unique coset representatives.

Reduction keeps the terms of the work vector in a binary heap keyed by the
term order, with lazy deletion: a term that cancels stays in the heap and is
skipped when it is popped.  A reduction step only adds terms below the
leading term it removes, so a popped term never comes back, and each step
finds the leading term in logarithmic time instead of scanning the vector.
Each order caches the heap keys of the terms it has seen.  Reducers are
looked up in per-position lists sorted by (|lc|, index).

The outputs are path-dependent.  The reducer chosen for a leading term (the
divisor with the smallest |lc|, then the lowest index), the pair order
(smallest lcm term first, then creation order) and the canonical remainders
fix every raw basis element and its recipe, hence the lifting matrices and
the syzygy generators that `syzygy_generators` returns.  Another choice gives
a basis of the same module, but other bytes, so these choices are part of
the output contract.
"""
from __future__ import annotations

import heapq
import time
from math import gcd
from operator import add, le, sub

from semizn.kernels import axpy_terms


class GroebnerBudgetError(Exception):
    """Raised when a Groebner run exceeds its deadline."""


def _check(deadline):
    """Raise GroebnerBudgetError once `deadline` (a `time.monotonic()`
    value, or None) has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise GroebnerBudgetError("groebner deadline exceeded")


class TermOrder:
    def __init__(self, nvars: int, blocks=None, elim_positions: int = 0):
        self.nvars = nvars
        if blocks is None:
            blocks = [tuple(range(nvars))]
        self.blocks = [tuple(b) for b in blocks]
        covered = sorted(i for b in self.blocks for i in b)
        if covered != list(range(nvars)):
            raise ValueError("blocks must partition the variables")
        self.elim_positions = elim_positions
        self._heap_entries: dict = {}

    def key(self, pos: int, mono: tuple):
        parts = [1 if pos < self.elim_positions else 0]
        for block in self.blocks:
            sub = tuple(mono[i] for i in block)
            parts.append((sum(sub), sub))
        parts.append(-pos)
        return tuple(parts)

    def heap_entry(self, term: tuple) -> tuple:
        """(negated key, term) for term = (pos, mono): the least entry is
        the leading term.  The negated key is `key` flattened into one tuple
        of ints, so heap comparisons stay in C."""
        entry = self._heap_entries.get(term)
        if entry is None:
            pos, mono = term
            neg = [-1 if pos < self.elim_positions else 0]
            for block in self.blocks:
                part = [mono[i] for i in block]
                neg.append(-sum(part))
                neg.extend(-a for a in part)
            neg.append(pos)
            entry = self._heap_entries[term] = (tuple(neg), term)
        return entry


def _ext_gcd(a: int, b: int):
    """g, s, t with s*a + t*b = g = gcd(a, b), g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class _Entry:
    __slots__ = ("vec", "pos", "mono", "coef", "key", "tail")

    def __init__(self, vec: dict, order: TermOrder):
        self.vec = vec
        lead = min(vec, key=order.heap_entry)
        self.pos, self.mono = lead
        self.coef = vec[lead]
        self.key = order.key(*lead)
        self.tail = [(t, c) for t, c in vec.items() if t != lead]


def _signed_entry(vec: dict, order: TermOrder):
    """The entry of +vec or -vec whose leading coefficient is positive, and
    the sign used."""
    e = _Entry(vec, order)
    if e.coef > 0:
        return e, 1
    return _Entry({k: -c for k, c in vec.items()}, order), -1


def normal_form(vec: dict, basis: list[_Entry], order: TermOrder, record=None) -> dict:
    """Strong normal form with canonical remainders (0 <= r < |lc|).

    With a strong basis this is a unique coset representative; membership is
    normal_form == {}.  When `record` is a list, every reduction step appends
    (q, shift, basis_index) meaning q * X^shift * basis[index] was
    subtracted, so vec = remainder + sum of recorded multiples.
    """
    reducers: dict = {}
    for idx in sorted(range(len(basis)), key=lambda i: (abs(basis[i].coef), i)):
        g = basis[idx]
        reducers.setdefault(g.pos, []).append((g.mono, g.coef, g.tail, idx))
    entry = order.heap_entry
    work = dict(vec)
    heap = [entry(t) for t in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        lead = heapq.heappop(heap)[1]
        c = work.pop(lead, None)
        if c is None:
            continue  # cancelled since it was pushed (lazy deletion)
        pos, mono = lead
        for g_mono, g_coef, g_tail, idx in reducers.get(pos, ()):
            if all(map(le, g_mono, mono)):
                break
        else:
            out[lead] = c
            continue
        r = c % abs(g_coef)
        q = (c - r) // g_coef
        if q:
            shift = tuple(map(sub, mono, g_mono))
            for (p, e), cg in g_tail:
                t = (p, tuple(map(add, e, shift)))
                d = q * cg
                old = work.get(t)
                if old is None:
                    work[t] = -d
                    heapq.heappush(heap, entry(t))
                elif old != d:
                    work[t] = old - d
                else:
                    del work[t]
            if record is not None:
                record.append((q, shift, idx))
        if r:
            out[lead] = r
    return out


def _pair_seeds(basis: list[_Entry], i: int, j: int) -> list:
    """The S-pair of basis[i] and basis[j] (same position), and their
    GCD-pair when neither leading coefficient divides the other, each as a
    list of (coef, shift, index) terms."""
    gi, gj = basis[i], basis[j]
    lcm_mono = tuple(map(max, gi.mono, gj.mono))
    si = tuple(map(sub, lcm_mono, gi.mono))
    sj = tuple(map(sub, lcm_mono, gj.mono))
    ci, cj = gi.coef, gj.coef
    l = abs(ci * cj) // gcd(ci, cj)
    seeds = [[(l // ci, si, i), (-(l // cj), sj, j)]]
    if ci % cj != 0 and cj % ci != 0:
        _, s, t = _ext_gcd(ci, cj)
        seeds.append([(s, si, i), (t, sj, j)])
    return seeds


def _seed_vector(seed: list, basis: list[_Entry]) -> dict:
    vec: dict = {}
    for coef, shift, idx in seed:
        axpy_terms(vec, coef, shift, basis[idx].vec)
    return vec


def buchberger(gens: list[dict], order: TermOrder, deadline=None) -> list[_Entry]:
    """Reduced strong Groebner basis of the module generated by `gens`."""
    raw, _ = _buchberger_raw(gens, order, deadline=deadline)
    return _reduce_basis(raw, order)[0]


def _buchberger_raw(gens: list[dict], order: TermOrder, deadline=None):
    """Incremental strong-basis run that records, per raw element, a one-level
    recipe: ("gen", j, sign) for (sign-normalized) input j, or
    ("comb", [(coef, shift, raw_idx), ...]) meaning the signed sum of shifted
    earlier raw elements.  Returns (raw entries, recipes).

    Processes S-vectors and GCD-vectors by the normal strategy (smallest lcm
    term first); deterministic for a fixed input order.
    """
    basis: list[_Entry] = []
    recipes: list = []
    for j, g in enumerate(gens):
        if g:
            e, sign = _signed_entry(dict(g), order)
            basis.append(e)
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
            lcm_mono = tuple(map(max, gi.mono, gnew.mono))
            counter += 1
            heapq.heappush(pending, (order.key(gi.pos, lcm_mono), counter, i, new_idx))

    for idx in range(len(basis)):
        push_pairs(idx)

    while pending:
        _check(deadline)
        _, _, i, j = heapq.heappop(pending)
        for seed in _pair_seeds(basis, i, j):
            rec: list = []
            rem = normal_form(_seed_vector(seed, basis), basis, order, record=rec)
            if not rem:
                continue
            comb = seed + [(-qq, shift, m) for qq, shift, m in rec]
            e, sign = _signed_entry(rem, order)
            if sign < 0:
                comb = [(-c, s2, m) for c, s2, m in comb]
            basis.append(e)
            recipes.append(("comb", comb))
            push_pairs(len(basis) - 1)
    return basis, recipes


def _reduce_basis(basis: list[_Entry], order: TermOrder):
    """Minimalize (drop entries whose leading term is a multiple of another's)
    and tail-reduce against the other survivors, in ascending order of
    (leading term, |lc|), which is also the order of the result.

    Returns (reduced entries, combinations): each reduced entry is the signed
    sum of the (coef, shift, index) terms of its combination, over `basis`.
    """
    ranked = sorted(range(len(basis)), key=lambda t: (basis[t].key, abs(basis[t].coef)))
    kept: list[int] = []
    for t in ranked:
        e = basis[t]
        redundant = any(
            basis[k].pos == e.pos
            and all(map(le, basis[k].mono, e.mono))
            and e.coef % basis[k].coef == 0
            for k in kept
        )
        if not redundant:
            kept.append(t)
    zero = (0,) * order.nvars
    reduced: list[_Entry] = []
    combs: list = []
    for t in kept:
        e = basis[t]
        others = [k for k in kept if k != t]
        rec: list = []
        nf_tail = normal_form(dict(e.tail), [basis[k] for k in others], order, record=rec)
        nf_tail[(e.pos, e.mono)] = e.coef
        reduced.append(_Entry(nf_tail, order))
        combs.append([(1, zero, t)] + [(-qq, shift, others[m]) for qq, shift, m in rec])
    return reduced, combs


# ---------------------------------------------------------------------------
# Derived computations
# ---------------------------------------------------------------------------

def syzygy_generators(columns: list[dict], p: int, nvars: int, deadline=None) -> list[dict]:
    """Generators of {h in Z[x]^q : sum_i h_i * columns[i] = 0}.

    Extended-basis (lifting) route in three matrices: a strong basis G of
    the column module with per-element recipes, the representation A with
    G = A * columns (recipes composed lazily), the representation B with
    columns = B * G (recorded reductions), and the syzygies of G itself read
    off the S- and GCD-pair reductions of the final basis (over a PID the
    pairwise S-syzygies generate the term syzygies, by the Bezout
    induction).  The output is {sigma * A} + rows(I - B * A), every row
    verified exactly against the columns before being returned.  `deadline`
    is checked in every phase, the raw run and the lifting alike.
    """
    q = len(columns)
    zero = (0,) * nvars
    order = TermOrder(nvars, elim_positions=p)
    raw, recipes = _buchberger_raw(columns, order, deadline=deadline)
    final_entries, final_combs = _reduce_basis(raw, order)

    # A: each final element as a combination of the original columns
    memo: dict = {}

    def a_row(raw_idx: int) -> dict:
        if raw_idx in memo:
            return memo[raw_idx]
        _check(deadline)
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
    for comb in final_combs:
        _check(deadline)
        row = {}
        for coef, shift, m in comb:
            axpy_terms(row, coef, shift, a_row(m))
        a_final.append(row)

    # B: each column reduced to zero by the final strong basis
    b_rows = []
    for col in columns:
        _check(deadline)
        rec = []
        rem = normal_form(dict(col), final_entries, order, record=rec)
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
            if final_entries[i].pos != final_entries[j].pos:
                continue
            for seed in _pair_seeds(final_entries, i, j):
                _check(deadline)
                rec = []
                rem = normal_form(_seed_vector(seed, final_entries), final_entries, order,
                                  record=rec)
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
        _check(deadline)
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
        _check(deadline)
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


def saturated_basis(columns: list[dict], p: int, nvars: int, deadline=None, var_blocks=None):
    """Strong basis of the saturation of <columns> w.r.t. the product of all
    variables, restricted to the original ring.

    A fresh variable u (index 0 after remapping) is adjoined with the
    relations (u*x_1*...*x_n - 1) * e_j, and eliminated by a block order.
    Returns (basis_entries, order) over the original nvars variables; the
    basis supports membership tests of u-free vectors, hence of the Laurent
    span of the columns.  `var_blocks` optionally block-orders the original
    variables (first block dominant), e.g. to further eliminate a variable
    group from the u-free part.
    """
    def lift(mono):
        return (0,) + mono

    ext_cols = [{(pos, lift(mono)): c for (pos, mono), c in col.items()} for col in columns]
    all_ones = (1,) + (1,) * nvars
    zero = (0,) + (0,) * nvars
    for j in range(p):
        ext_cols.append({(j, all_ones): 1, (j, zero): -1})
    if var_blocks is None:
        var_blocks = [tuple(range(nvars))]
    lifted_blocks = [(0,)] + [tuple(i + 1 for i in b) for b in var_blocks]
    order = TermOrder(nvars + 1, blocks=lifted_blocks)
    gb = buchberger(ext_cols, order, deadline=deadline)
    base_order = TermOrder(nvars, blocks=[tuple(b) for b in var_blocks])
    kept = []
    for e in gb:
        if all(mono[0] == 0 for _, mono in e.vec):
            kept.append(
                _Entry({(pos, mono[1:]): c for (pos, mono), c in e.vec.items()}, base_order)
            )
    kept.sort(key=lambda e: e.key)
    return kept, base_order
