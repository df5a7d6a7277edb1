"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the semizn modules with
wrappers that record a span (name, start, end, parent, op id) per call, plus
counters read from arguments and results.  `uninstall()` puts the originals
back.  Names that `semizn.decide` imports from other modules are replaced
there too, because it calls them through its own globals.

The layer is named after the module that owns the function.  Spans live in
memory until the run ends; `write_spans` saves them as JSON lines.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Counters that are functions of the inputs alone.  They must repeat exactly
# between two traced runs of the same corpus.
COUNT_METRICS = (
    "groebner.nf.calls", "groebner.nf.zero", "algebra.syzygy.generators",
    "algebra.syzygy.terms", "algebra.syzygy.coef_bits_max", "decide.subset.calls",
    "linalg.window_lp.calls", "linalg.window_lp.rows_max", "linalg.window_lp.vars_max",
    "geometry.fan.cells",
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []          # indices of open spans
        self.op_id = None
        self.counts = defaultdict(int)      # per op: name -> value
        self.maxima = defaultdict(int)
        self._saved = []

    # -- recording ------------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self.stack.clear()
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        # an op stopped at its limit unwinds through every open span
        while self.stack and self.stack.pop() != idx:
            pass

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def bump(self, name: str, by: int = 1):
        self.counts[name] += by

    def peak(self, name: str, value: int):
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(args, kwargs, result)` records counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def events(self, name: str, fn, counter: str):
        """Wrap a generator function so that every next() is one span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def gen():
                while True:
                    idx = self.open(name)
                    try:
                        event = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.bump(counter)
                    yield event
            return gen()
        return wrapper

    def _patch(self, module, attr: str, new):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        from semizn import (algebra, closure, decide, geometry, group, groebner,
                            jsonio, linalg, positions)

        def nf(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.bump("groebner.nf.calls")
                if not out:
                    self.bump("groebner.nf.zero")
                return out
            return wrapper

        def syzygy_counts(args, kwargs, basis):
            self.bump("algebra.syzygy.generators", len(basis.generators))
            for g in basis.generators:
                for p in g:
                    self.bump("algebra.syzygy.terms", len(p.terms))
                    for c in p.terms.values():
                        self.peak("algebra.syzygy.coef_bits_max", abs(int(c)).bit_length())

        def lp_feasible_point(fn):
            spanned = self.span("linalg.window_lp", fn)

            @functools.wraps(fn)
            def wrapper(constraints, num_vars):
                if self.inside("linalg.refuter_lp"):
                    return fn(constraints, num_vars)
                self.bump("linalg.window_lp.calls")
                self.peak("linalg.window_lp.rows_max", len(constraints))
                self.peak("linalg.window_lp.vars_max", num_vars)
                return spanned(constraints, num_vars)
            return wrapper

        def fan_cells(args, kwargs, cells):
            self.bump("geometry.fan.cells", len(cells))

        def closure_n(args, kwargs, result):
            self.peak("closure.n_max", result.N)

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.bump(name)
                return fn(*args, **kwargs)
            return wrapper

        syz = self.span("algebra.syzygy", algebra.syzygy_basis, syzygy_counts)
        lsyz = self.span("algebra.laurent_syzygies", algebra.laurent_syzygies)
        sat = self.span("groebner.saturate", groebner.saturated_basis)
        clo = self.span("closure", closure.eulerian_closure, closure_n)
        verify = self.span("group.verify", decide.verify_witness)
        evaluate = self.span("group.verify", decide.evaluate_word)
        patches = [
            (groebner, "normal_form", nf(groebner.normal_form)),
            (groebner, "buchberger", self.span("groebner.buchberger", groebner.buchberger)),
            (groebner, "_buchberger_raw",
             self.span("groebner.buchberger", groebner._buchberger_raw)),
            (groebner, "syzygy_generators",
             self.span("groebner.syzygy", groebner.syzygy_generators)),
            (groebner, "saturated_basis", sat), (decide, "saturated_basis", sat),
            (algebra, "syzygy_basis", syz), (decide, "syzygy_basis", syz),
            (algebra, "laurent_syzygies", lsyz), (decide, "laurent_syzygies", lsyz),
            (algebra.LaurentSubmodule, "contains",
             self.span("algebra.membership", algebra.LaurentSubmodule.contains)),
            (linalg, "lp_feasible_point", lp_feasible_point(linalg.lp_feasible_point)),
            (linalg, "strict_positive_combination",
             self.span("linalg.refuter_lp", linalg.strict_positive_combination)),
            (linalg, "fm_strictly_feasible",
             self.span("linalg.fm_recheck", linalg.fm_strictly_feasible)),
            (positions, "check_escape_condition",
             self.span("positions.escape", positions.check_escape_condition)),
            (geometry, "refined_fan", self.span("geometry.fan", geometry.refined_fan, fan_cells)),
            (closure, "eulerian_closure", clo), (decide, "eulerian_closure", clo),
            (decide, "verify_witness", verify), (decide, "evaluate_word", evaluate),
            (group, "evaluate_word", evaluate),
            (decide, "procedure_a_events",
             self.events("decide.positive_search", decide.procedure_a_events,
                         "decide.positive_search.events")),
            (decide, "locr_events",
             self.events("decide.refuter", decide.locr_events, "decide.refuter.samples")),
            (decide, "decide_subset", counted("decide.subset.calls", decide.decide_subset)),
        ]
        for name in ("instance_from_json", "verdict_to_json", "poly_to_json", "dumps"):
            patches.append((jsonio, name, self.span("jsonio", getattr(jsonio, name))))
        for module, attr, new in patches:
            self._patch(module, attr, new)

    def uninstall(self):
        while self._saved:
            module, attr, old = self._saved.pop()
            setattr(module, attr, old)

    # -- results --------------------------------------------------------------

    def op_counts(self) -> dict:
        out = dict(self.counts)
        out.update(self.maxima)
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_times(spans, ops) -> tuple:
    """(inclusive, self) seconds per span name, over the spans of the given
    op ids.  Inclusive time counts only the outermost span of a name, so
    recursion is not counted twice; self time is a span's duration minus
    that of its direct children.  A span the alarm interrupted before it
    could be closed has no end and is skipped."""
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None and end is not None:
            child[parent] += end - start
    for idx, (name, start, end, parent, op) in enumerate(spans):
        if end is None or op not in ops:
            continue
        dur = end - start
        self_time[name] += dur - child[idx]
        p = parent
        nested = False
        while p is not None:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            inclusive[name] += dur
    return inclusive, self_time
