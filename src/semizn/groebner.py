"""Strong Groebner bases over Z for submodules of free modules Z[x]^p.

This is the computational core behind relation-module membership and syzygy
extraction.  Coefficients stay in Z throughout (Buchberger over a PID: the
pair set contains both S-vectors and GCD-vectors, the latter built from
Bezout coefficients).  Callers pass module vectors as dicts mapping
(position, exponent tuple) to a nonzero int; exponents are nonnegative here,
Laurent clearing happens in the callers.

Term orders are block orders: variables are grouped into blocks compared
left to right, graded-lex inside each block.  A block consisting of a single
fresh variable placed first gives an elimination order for saturation; a
count of leading "eliminated" module positions that dominate every term in
the remaining positions gives the syzygy/elimination order on positions.

A strong basis guarantees that every member of the module reduces to zero,
and (with the canonical nonnegative-remainder convention used here) that
normal forms are unique coset representatives.

Inside the engine every term is one int (`_Packing`).  From the top, its
fields are the eliminated-position flag, each block's degree followed by its
exponents, and the largest field value minus the position, each field with a
guard bit above it.  Integer order is then exactly the term order (flag,
each block's degree and exponents, lower position), the term X^s * t is the
int t + s, and g divides t exactly when d = t - g has d >= 0 and no guard or
position bit set (a field of g above t's borrows from its guard bit).  The
field width comes from the inputs' largest field value; every term the
engine creates is tested against the guard bits, and a hit restarts the
whole call at double width (`_widening`).  The restarted call runs the same
code on the same terms, so it makes the same reductions, and terms are
decoded once, as results leave the engine (`_Entry.vec`, the syzygies,
`remainder`), so the width never shows in an output.

Reduction keeps the terms of the work vector in a binary heap of negated
ints, with lazy deletion: a term that cancels stays in the heap and is
skipped when it is popped.  A reduction step only adds terms below the
leading term it removes, so a popped term never comes back, and each step
finds the leading term in logarithmic time instead of scanning the vector.
Reducers are looked up in per-position lists sorted by (|lc|, index), which
a `_Basis` keeps across calls: the raw run adds one sorted insert per new
element, and the fixed bases of `_tail_reduced` and of the lifting build
theirs once.  While every leading term is a column term (flag set), no
e-part term is reducible: those terms stay in the work vector but off the
heap, and join the result at the end in descending order, where the heap
would have put them.

Syzygies are lifted on the augmented module (see `syzygy_generators`):
only the reduced basis carries its representation by the columns, as an
e-part below every column term.  The raw run keeps a one-level recipe per
element instead, because carrying the e-part through every pair reduction,
most of which go to zero, costs more.

The raw run skips the S-vector of a popped pair (i, j), i < j, with lcm
term T when another element k at its position has a leading term dividing
T, c_k | l = lcm(c_i, c_j), and (i, k) and (j, k) were popped first: the
chain criterion of Gebauer and Moeller, with the coefficient condition of
strong bases over Z (Lichtblau, 2012).  S_ij = (l / l_ik) X^(T - T_ik) S_ik
- (l / l_jk) X^(T - T_jk) S_jk (T_ik, l_ik: the lcms of (i, k)), each of
which reduced below its lcm term or was skipped in turn, so S_ij is a
combination of basis elements with every term below T.  The heap pops the
least key, so every pair with lcm below T has been handled, the basis is
strong below T, and `normal_form` would have returned {}.  At lcm T pairs
pop in creation order: (i, k) came first iff k < j, (j, k) iff k < i.  A
GCD-vector keeps T as its leading term and may reduce to nonzero although
another lead divides T, so each is reduced; the product criterion (coprime
leading terms) holds for ideals, not for module vectors.

The outputs are path-dependent.  The reducer chosen for a leading term (the
divisor with the smallest |lc|, then the lowest index), the pair order
(smallest lcm term first, then creation order) and the canonical remainders
fix every raw basis element and its recipe, hence the rows of A and the
syzygy generators that `syzygy_generators` returns.  Another choice gives a
basis of the same module, but other bytes, so these choices are part of the
output contract.  The chain criterion skips only S-vectors that would have
reduced to {}, so the path stays.
"""
from __future__ import annotations

import bisect
import contextlib
import contextvars
import heapq
import time
from math import gcd, lcm


_CHAIN_SCAN = 16  # the largest leads <= T that `_chained` tries; trying all costs more


class DeadlineExceeded(Exception):
    """Raised by `check_deadline` once a run's deadline has passed."""


_DEADLINE = contextvars.ContextVar("semizn_deadline", default=None)  # a time.monotonic() value


class _Overflow(Exception):
    """A term does not fit the field width of its packing."""


@contextlib.contextmanager
def deadline_scope(seconds):
    """Run the block under a deadline `seconds` from now (None sets none);
    a nested scope keeps the earlier deadline.  The scope reaches every
    phase without a parameter.  Never hold one open across a `yield`."""
    mine = None if seconds is None else time.monotonic() + seconds
    token = _DEADLINE.set(min((d for d in (_DEADLINE.get(), mine) if d is not None), default=None))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline():
    """Raise DeadlineExceeded once the enclosing `deadline_scope` has
    passed: the one budget check of every phase."""
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded("deadline exceeded")


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
        self._packings: dict = {}

    def _packing(self, width: int) -> "_Packing":
        """This order's terms packed with `width` bits per field."""
        pk = self._packings.get(width)
        if pk is None:
            pk = self._packings[width] = _Packing(self, width)
        return pk

    def _fitting(self, vecs) -> "_Packing":
        """The packing of the least width, 32 doubled as often as needed,
        whose fields hold every position and block degree of the terms of
        the (position, exponent tuple) dicts `vecs`."""
        need = 0
        for vec in vecs:
            for pos, mono in vec:
                need = max(need, pos, *(sum(mono[i] for i in b) for b in self.blocks))
        width = 32
        while need >> (width - 1):
            width *= 2
        return self._packing(width)


class _Packing:
    """The terms (pos, mono) of one TermOrder as ints, `width` bits per
    field, the guard bit included; see the module docstring.  A shift X^s
    is packed with position field and flag 0, so that term + shift is the
    shifted term."""

    def __init__(self, order: TermOrder, width: int):
        self.order = order
        self.width = width
        self.top = top = (1 << (width - 1)) - 1  # largest field value
        self.var_offsets = [0] * order.nvars
        self.degree_fields = []  # (offset, block), the lowest block first
        off = width  # the position field sits at offset 0
        for block in reversed(order.blocks):
            for i in reversed(block):
                self.var_offsets[i] = off
                off += width
            self.degree_fields.append((off, block))
            off += width
        self.flag = 1 << off
        self.guard = sum(1 << (k + width - 1) for k in range(0, off, width))
        self.varguard = sum(1 << (k + width - 1) for k in self.var_offsets)
        self.divmask = self.guard | top
        self.monomask = (1 << off) - 1 - self.divmask

    def pack(self, pos: int, mono: tuple) -> int:
        top = self.top
        if pos > top:
            raise _Overflow
        t = top - pos
        if pos < self.order.elim_positions:
            t |= self.flag
        offsets = self.var_offsets
        for deg_off, block in self.degree_fields:
            deg = 0
            for i in block:
                e = mono[i]
                if e < 0:
                    raise ValueError(f"negative exponent in {mono}")
                deg += e
                t |= e << offsets[i]
            if deg > top:
                raise _Overflow
            t |= deg << deg_off
        return t

    def unpack(self, t: int) -> tuple:
        return self.top - (t & self.top), self.unpack_shift(t)

    def unpack_shift(self, s: int) -> tuple:
        top = self.top
        return tuple((s >> off) & top for off in self.var_offsets)

    def split(self, t: int) -> tuple:
        """(position, packed shift) of the term t."""
        return self.top - (t & self.top), t & self.monomask

    def pack_vec(self, vec: dict) -> dict:
        pack = self.pack
        return {pack(pos, mono): c for (pos, mono), c in vec.items()}

    def unpack_vec(self, vec: dict) -> dict:
        unpack = self.unpack
        return {unpack(t): c for t, c in vec.items()}

    def axpy(self, dst: dict, coef: int, shift: int, src: dict) -> dict:
        """In place dst += coef * X^shift * src."""
        guard = self.guard
        for t, c in src.items():
            t += shift
            if t & guard:
                raise _Overflow
            s = dst.get(t, 0) + coef * c
            if s:
                dst[t] = s
            elif t in dst:
                del dst[t]
        return dst


def _widening(order: TermOrder, vecs, run, width: int = 32):
    """run(packing) at the least width, at least `width`, that holds
    `vecs`, and again at double the width after each guard hit."""
    pk = order._packing(max(width, order._fitting(vecs).width))
    while True:
        try:
            return run(pk)
        except _Overflow:
            pk = order._packing(2 * pk.width)


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
    """A basis element over a packing: its packed terms, its leading term
    (the largest int) with coefficient, the other terms, and the leading
    term's position and exponents."""
    __slots__ = ("terms", "pk", "lead", "coef", "tail", "pos", "mono")

    def __init__(self, terms: dict, pk: _Packing):
        self.terms = terms
        self.pk = pk
        self.lead = lead = max(terms)
        self.coef = terms[lead]
        self.tail = [(t, c) for t, c in terms.items() if t != lead]
        self.pos, self.mono = pk.unpack(lead)

    @property
    def vec(self) -> dict:
        """The element as a (position, exponent tuple) dict."""
        return self.pk.unpack_vec(self.terms)


def _signed_entry(vec: dict, pk: _Packing):
    """The entry of +vec or -vec whose leading coefficient is positive, and
    the sign used."""
    e = _Entry(vec, pk)
    if e.coef > 0:
        return e, 1
    return _Entry({k: -c for k, c in vec.items()}, pk), -1


def remainder(vec: dict, basis: list[_Entry], order: TermOrder) -> dict:
    """`normal_form` for callers outside the engine: `vec` and the result
    are (position, exponent tuple) dicts, and `basis` holds entries of any
    packing of `order`."""
    def run(pk):
        packed = [e if e.pk is pk else _Entry(pk.pack_vec(e.vec), pk) for e in basis]
        return pk.unpack_vec(normal_form(pk.pack_vec(vec), packed, pk))
    return _widening(order, [vec], run, max((e.pk.width for e in basis), default=32))


class _Basis(list):
    """Basis entries with their reducer lists, kept across `normal_form`
    calls: per position, (|lc|, index, lead, coef, tail, low tail) in
    ascending order.  `cut` is the flag bit when the entries carry e-part
    terms (below the flag) and every leading term is a column term (flag
    set), and 0 otherwise.  No term below `cut` is ever reducible then, so
    each tail is split at it, and the terms below it stay off the heap."""
    __slots__ = ("pk", "cut", "reducers")

    def __init__(self, pk: _Packing, entries=()):
        super().__init__(entries)
        self.pk = pk
        self._index()

    def _index(self):
        pk, flag = self.pk, self.pk.flag
        columns = all(e.lead & flag for e in self)
        self.cut = flag if columns and any(min(e.terms) < flag for e in self) else 0
        self.reducers = {}
        for r in sorted(map(self._reducer, range(len(self)))):
            self.reducers.setdefault(r[2] & pk.top, []).append(r)

    def _reducer(self, idx: int) -> tuple:
        e, cut = self[idx], self.cut
        if not cut:
            return abs(e.coef), idx, e.lead, e.coef, e.tail, ()
        return (abs(e.coef), idx, e.lead, e.coef, [tc for tc in e.tail if tc[0] >= cut],
                [tc for tc in e.tail if tc[0] < cut])

    def append(self, e: _Entry):
        super().append(e)
        if self.cut and not e.lead & self.cut:
            self._index()  # a leading term below the cut: no split any more
        else:
            bisect.insort(self.reducers.setdefault(e.lead & self.pk.top, []),
                          self._reducer(len(self) - 1))


def normal_form(vec: dict, basis: list[_Entry], pk: _Packing, record=None) -> dict:
    """Strong normal form with canonical remainders (0 <= r < |lc|), over
    the packing `pk` of `vec`, `basis` and the result.  A `_Basis` brings
    its kept reducer lists; a plain list gets them built for this call.

    With a strong basis this is a unique coset representative; membership is
    normal_form == {}.  When `record` is a list, every reduction step appends
    (q, shift, basis_index) meaning q * X^shift * basis[index] was
    subtracted, so vec = remainder + sum of recorded multiples.  The terms
    of the result come in the order the heap would pop them: the column
    terms as they leave the heap, then the terms below the cut, descending.

    Under a deadline, `check_deadline` runs every 4,096 heap pops, and on
    every pop of a coefficient longer than 4,096 bits: one normal form can
    take astronomically many steps (reducing X^(2^70) + 1 by a binomial in
    X), or steps that each grow a huge coefficient (X^12000 by X - 2^360),
    so a run's budget has to reach inside it.
    """
    table = basis if isinstance(basis, _Basis) else _Basis(pk, basis)
    reducers, cut = table.reducers, table.cut
    top, divmask, guard = pk.top, pk.divmask, pk.guard
    work = dict(vec)
    heap = [-t for t in work if t >= cut]  # terms below the cut stay off the heap
    heapq.heapify(heap)
    out = {}
    pops = 0
    deadline = _DEADLINE.get()
    while heap:
        lead = -heapq.heappop(heap)
        c = work.pop(lead, None)
        if deadline is not None:
            pops += 1
            if not pops & 4095 or c is not None and c.bit_length() > 4096:
                check_deadline()
        if c is None:
            continue  # cancelled since it was pushed (lazy deletion)
        for _, idx, g_lead, g_coef, g_tail, g_low in reducers.get(lead & top, ()):
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
                    raise _Overflow
                d = q * cg
                old = work.get(t)
                if old is None:
                    work[t] = -d
                    heapq.heappush(heap, -t)
                elif old != d:
                    work[t] = old - d
                else:
                    del work[t]
            for e, cg in g_low:
                t = e + shift
                if t & guard:
                    raise _Overflow
                d = q * cg
                old = work.get(t)
                if old is None:
                    work[t] = -d
                elif old != d:
                    work[t] = old - d
                else:
                    del work[t]
            if record is not None:
                record.append((q, shift, idx))
        if r:
            out[lead] = r
    if work:  # only terms below the cut are left
        out.update(sorted(work.items(), reverse=True))
    return out


def _pair_seeds(basis: list[_Entry], i: int, j: int) -> list:
    """The S-pair of basis[i] and basis[j] (same position), and their
    GCD-pair when neither leading coefficient divides the other, each as a
    list of (coef, shift, index) terms."""
    gi, gj = basis[i], basis[j]
    lcm = gi.pk.pack(gi.pos, tuple(map(max, gi.mono, gj.mono)))
    si, sj = lcm - gi.lead, lcm - gj.lead
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
        basis[idx].pk.axpy(vec, coef, shift, basis[idx].terms)
    return vec


def buchberger(gens: list[dict], order: TermOrder) -> list[_Entry]:
    """Reduced strong Groebner basis of the module generated by `gens`."""
    def run(pk):
        raw, _ = _buchberger_raw([pk.pack_vec(g) for g in gens], pk)
        return _tail_reduced([raw[t] for t in _minimal(raw, pk)], pk)
    return _widening(order, gens, run)


def _buchberger_raw(gens: list[dict], pk: _Packing):
    """Incremental strong-basis run on packed generators that records, per
    raw element, a one-level recipe: ("gen", j, sign) for (sign-normalized)
    input j, or ("comb", [(coef, shift, raw_idx), ...]) meaning the signed
    sum of shifted earlier raw elements.  Returns (raw entries, recipes).

    Processes S-vectors and GCD-vectors by the normal strategy (smallest lcm
    term first); deterministic for a fixed input order.
    """
    entries: list[_Entry] = []
    recipes: list = []
    for j, g in enumerate(gens):
        if g:
            e, sign = _signed_entry(dict(g), pk)
            entries.append(e)
            recipes.append(("gen", j, sign))
    basis = _Basis(pk, entries)

    pending: list = []
    counter = 0
    leads: dict = {}  # per position, (leading term, index) ascending

    def push_pairs(new_idx: int):
        nonlocal counter
        gnew = basis[new_idx]
        bisect.insort(leads.setdefault(gnew.lead & pk.top, []), (gnew.lead, new_idx))
        for i in range(new_idx):
            gi = basis[i]
            if gi.pos != gnew.pos:
                continue
            counter += 1
            lcm = pk.pack(gi.pos, tuple(map(max, gi.mono, gnew.mono)))
            heapq.heappush(pending, (lcm, counter, i, new_idx))

    for idx in range(len(basis)):
        push_pairs(idx)

    while pending:
        check_deadline()
        lcm_term, _, i, j = heapq.heappop(pending)
        seeds = _pair_seeds(basis, i, j)
        same_pos = leads[lcm_term & pk.top]
        if len(same_pos) > 2 and _chained(basis, same_pos, lcm_term, i, j):
            del seeds[0]  # the S-vector; the GCD-vector is still reduced
        for seed in seeds:
            rec: list = []
            rem = normal_form(_seed_vector(seed, basis), basis, pk, record=rec)
            if not rem:
                continue
            comb = seed + [(-qq, shift, m) for qq, shift, m in rec]
            e, sign = _signed_entry(rem, pk)
            if sign < 0:
                comb = [(-c, s2, m) for c, s2, m in comb]
            basis.append(e)
            recipes.append(("comb", comb))
            push_pairs(len(basis) - 1)
    return basis, recipes


def _chained(basis: list[_Entry], leads: list, T: int, i: int, j: int) -> bool:
    """Whether the chain criterion (module docstring) skips the S-vector of
    the pair (i, j) with lcm term T; `leads` holds (lead, index) of T's
    position, ascending, and the `_CHAIN_SCAN` largest leads <= T are tried."""
    pk = basis[i].pk
    monomask, guard, varguard = pk.monomask, pk.guard, pk.varguard

    def at_top(t):  # the guard bits of the variable fields where t equals T
        return ((t & monomask | guard) - (T & monomask)) & varguard

    hi = bisect.bisect_right(leads, (T, len(basis)))
    for lead_k, k in reversed(leads[max(0, hi - _CHAIN_SCAN):hi]):
        if k == i or k == j or (T - lead_k) & pk.divmask:  # lead_k <= T: only the mask
            continue
        if k > i and (k > j and at_top(basis[i].lead) | at_top(lead_k) == varguard
                      or at_top(basis[j].lead) | at_top(lead_k) == varguard):
            continue  # (i, k) or (j, k) has lcm T and comes after (i, j)
        if lcm(basis[i].coef, basis[j].coef) % basis[k].coef == 0:
            return True
    return False


def _minimal(basis: list[_Entry], pk: _Packing) -> list[int]:
    """The indices of the entries that minimalization keeps (it drops an
    entry whose leading term is a multiple of a kept one's), in ascending
    order of (leading term, |lc|)."""
    ranked = sorted(range(len(basis)), key=lambda t: (basis[t].lead, abs(basis[t].coef)))
    divmask = pk.divmask
    kept: list[int] = []
    for t in ranked:
        e = basis[t]
        for k in kept:
            d = e.lead - basis[k].lead
            if d >= 0 and not d & divmask and e.coef % basis[k].coef == 0:
                break
        else:
            kept.append(t)
    return kept


def _tail_reduced(entries: list[_Entry], pk: _Packing) -> list[_Entry]:
    """Each entry with its tail reduced against the other entries, in the
    order given.  One reducer table serves every entry: an entry's own
    leading term lies above every term of its tail and of each reduction
    of it, so it never divides one, and the others keep their order."""
    table = _Basis(pk, entries)
    out = []
    for e in entries:
        check_deadline()
        tail = normal_form(dict(e.tail), table, pk)
        tail[e.lead] = e.coef
        out.append(_Entry(tail, pk))
    return out


# ---------------------------------------------------------------------------
# Derived computations
# ---------------------------------------------------------------------------

def syzygy_generators(columns: list[dict], p: int, nvars: int) -> list[dict]:
    """Generators of {h in Z[x]^q : sum_i h_i * columns[i] = 0}.

    Lifting on the augmented module: each element g of the reduced strong
    basis G of the column module carries its row of A (g = sum_j A_j c_j)
    as an e-part, the unit vector e_j at position p + j.  The elimination
    order keeps every e-part term below every column term, so reducing an
    augmented vector makes the same steps as reducing its column part, and
    the e-part records them.  The candidates are the normal forms of each
    S- and GCD-pair of G (sigma * A: over a PID the pairwise S-syzygies
    generate the term syzygies, by the Bezout induction), then of each
    (c_j, e_j) (the row e_j - B_j * A, with c_j = B_j * G).  Their column
    parts must reduce to zero, and their e-parts are the syzygies, each
    verified exactly against the columns before being returned.  The
    deadline is checked in every phase, the raw run and the lifting alike.
    """
    order = TermOrder(nvars, elim_positions=p)
    return _widening(order, columns, lambda pk: _syzygies(columns, pk))


def _syzygies(columns: list[dict], pk: _Packing) -> list[dict]:
    """`syzygy_generators` over one packing.  The rows of A are built
    lazily from the recipes of the kept raw elements; the generators are
    decoded on return, e-part position p + j as position j."""
    p = pk.order.elim_positions
    zero = (0,) * pk.order.nvars
    packed_cols = [pk.pack_vec(col) for col in columns]
    raw, recipes = _buchberger_raw(packed_cols, pk)
    memo: dict = {}

    def a_row(raw_idx: int) -> dict:
        if raw_idx in memo:
            return memo[raw_idx]
        check_deadline()
        kind = recipes[raw_idx]
        if kind[0] == "gen":
            row = {pk.pack(p + kind[1], zero): kind[2]}
        else:
            row = {}
            for coef, shift, m in kind[1]:
                pk.axpy(row, coef, shift, a_row(m))
        memo[raw_idx] = row
        return row

    basis = _Basis(pk, _tail_reduced(
        [_Entry({**raw[t].terms, **a_row(t)}, pk) for t in _minimal(raw, pk)], pk))

    def candidates():
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                if basis[i].pos == basis[j].pos:
                    for seed in _pair_seeds(basis, i, j):
                        yield _seed_vector(seed, basis)
        for j, col in enumerate(packed_cols):
            yield {**col, pk.pack(p + j, zero): 1}

    out = []
    seen = set()
    for vec in candidates():
        check_deadline()
        syz = normal_form(vec, basis, pk)
        if any(t & pk.flag for t in syz):
            raise AssertionError("a pair or column failed to reduce by its own strong basis")
        if not syz:
            continue
        check: dict = {}
        for t, c in syz.items():
            pos, shift = pk.split(t)
            pk.axpy(check, c, shift, packed_cols[pos - p])
        if check:
            raise AssertionError("produced vector is not a syzygy of the columns")
        key = frozenset(syz.items())
        if key not in seen:
            seen.add(key)
            out.append(syz)
    return [{(pos - p, mono): c for (pos, mono), c in pk.unpack_vec(s).items()} for s in out]


def saturated_basis(columns: list[dict], p: int, nvars: int, var_blocks=None):
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
    gb = buchberger(ext_cols, order)
    base_order = TermOrder(nvars, blocks=[tuple(b) for b in var_blocks])
    kept = []
    for e in gb:
        vec = e.vec
        if all(mono[0] == 0 for _, mono in vec):
            kept.append({(pos, mono[1:]): c for (pos, mono), c in vec.items()})
    pk = base_order._fitting(kept)
    kept = [_Entry(pk.pack_vec(vec), pk) for vec in kept]
    kept.sort(key=lambda e: e.lead)
    return kept, base_order
