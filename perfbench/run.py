"""Benchmark of the semizn deciders.

Run from the root of a source tree (the package is imported from `src/`):

    python3 perfbench/run.py --workload group --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 28

A run times the library path a `semizn check` / `semizn syzygy` user pays for
(`jsonio.instance_from_json`, the decider with the default `Budget()`,
`jsonio.verdict_to_json` and `jsonio.dumps`) over the workload's corpus, in
an order drawn from --seed.  Load model: a closed loop with one client; ops
run one after another in this process, with no threads.  A probe first runs
each op once in a forked child, which gives its peak memory and whether it
finishes within the workload's per-op limit; one over the limit counts as
over the limit in every pass without running again, and its time is left
out of the time metrics, which cover the ops that finished.  Times and
limits are at reference speed: a fixed loop (speed.py) runs between ops,
and each op's wall time is scaled by the loop's nominal time over its mean
time before and after the op, which takes out the drift of the machine's
speed.  Wall-clock figures are printed beside them.
Every output is checked after the timed region (checks.py); an op that
raised or failed a check is an error.

With --trace 0 the run makes a fixed number of whole passes over the corpus
after the probe (see `passes`) and the last line of stdout holds the
end-to-end metrics declared in BENCHMARK.json.  With --trace 1 it makes one pass in which each
op runs untraced and then traced (tracer.py), and the last line holds the
per-layer metrics and the tracing overhead.  --all runs every workload both
ways, each in a process of its own, and prints everything.  Spans and counts
of traced runs go to perfbench/out/.  See README.md for the workloads and
metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Per-op limits in seconds at reference speed (speed.py), each inside a gap
# of the workload's op-time distribution on its corpus, so that no op flips
# between finishing and being stopped (the measured gaps are in README.md).
# An op is over the limit when its time at reference speed is; the alarm
# that stops it is set at GUARD times the limit times the machine's current
# slowness, so that a misjudged slowness does not stop an op early.
LIMITS = {"syzygy": 2.0, "group": 0.8, "subsets": 1.25}
GUARD = 1.3
# Seconds at reference speed of the probe, which runs every op once and
# spends GUARD times the limit on each stopped op, and of a timed pass,
# which runs the finished ops with a reference loop after each.
PROBE_SECONDS = {"syzygy": 10.0, "group": 4.0, "subsets": 6.0}
PASS_SECONDS = {"syzygy": 1.8, "group": 2.0, "subsets": 5.0}
SETUP_REPEATS = 21
STOPPED = 3  # exit status of a probe child stopped at the limit
PROBE_JOBS = min(2, os.cpu_count() or 1)

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
    "decided_frac": "frac", "error_frac": "frac", "over_limit_frac": "frac",
    "peak_rss_mb": "MB",
}
# layer -> span name whose inclusive time is reported as a share of op time
LAYER_SHARES = {
    "groebner.syzygy.pct": "groebner.syzygy",
    "groebner.buchberger.pct": "groebner.buchberger",
    "groebner.saturate.pct": "groebner.saturate",
    "algebra.syzygy.pct": "algebra.syzygy",
    "algebra.membership.pct": "algebra.membership",
    "linalg.window_lp.pct": "linalg.window_lp",
    "linalg.refuter_lp.pct": "linalg.refuter_lp",
    "linalg.fm_recheck.pct": "linalg.fm_recheck",
    "positions.escape.pct": "positions.escape",
    "closure.pct": "closure",
    "group.verify.pct": "group.verify",
    "jsonio.pct": "jsonio",
    "decide.refuter.pct": "decide.refuter",
}
LAYER_CALLS = {
    "algebra.membership.calls": "algebra.membership",
    "linalg.refuter_lp.calls": "linalg.refuter_lp",
    "linalg.fm_recheck.calls": "linalg.fm_recheck",
    "positions.escape.calls": "positions.escape",
    "closure.calls": "closure",
}
LAYER_COUNTS = (
    "groebner.nf.calls", "algebra.syzygy.generators", "algebra.syzygy.terms",
    "algebra.syzygy.coef_bits_max", "linalg.window_lp.calls", "linalg.window_lp.rows_max",
    "linalg.window_lp.vars_max", "geometry.fan.cells", "closure.n_max",
    "decide.positive_search.events", "decide.refuter.samples", "decide.subset.calls",
)
LAYER_UNITS = {name: "%" for name in [*LAYER_SHARES, "decide.positive_search.self_pct"]}
LAYER_UNITS.update({name: "count" for name in [*LAYER_CALLS, *LAYER_COUNTS,
                                              "trace.counts_changed"]})
LAYER_UNITS.update({"groebner.nf.zero_frac": "frac", "trace.op_s": "s", "trace.overhead_s": "s"})
MAXIMA = ("algebra.syzygy.coef_bits_max", "linalg.window_lp.rows_max",
          "linalg.window_lp.vars_max", "closure.n_max")


class OverLimit(BaseException):
    """Raised by the alarm in a running op.  Not an Exception, so no handler
    inside the program catches it."""


@dataclass
class Result:
    op: workloads.Op
    status: str          # done | raised | over_limit
    seconds: float
    text: Optional[str]  # emitted JSON, or the exception for raised ops
    counts: Optional[dict] = None
    problem: Optional[str] = None
    scale: float = 1.0   # reference-speed seconds per wall second, around the op

    @property
    def nominal(self) -> float:
        """The op's time in seconds at reference speed."""
        return self.seconds * self.scale


class Alarm:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OverLimit()

    def arm(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- set-up -------------------------------------------------------------------

def _fresh_import():
    for name in [m for m in sys.modules if m == "semizn" or m.startswith("semizn.")]:
        del sys.modules[name]
    for name in ("semizn.decide", "semizn.jsonio", "semizn.algebra"):
        importlib.import_module(name)


def setup(workload: str, seed: int):
    """Import, corpus generation and parsing, repeated; returns the ops in
    run order and the set-up times, in seconds at reference speed."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    times = []
    meter = speed.Meter()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        _fresh_import()
        from semizn import jsonio
        ops = workloads.ordered(workloads.corpus(workload, ROOT), seed)
        for op in ops:
            jsonio.instance_from_json(json.loads(op.doc))
        wall = time.perf_counter() - t0
        times.append(wall * meter.scale())
    return ops, times


# -- ops ------------------------------------------------------------------------

def _decide(op: workloads.Op) -> str:
    """The op itself: parse, decide, serialize.  Returns the emitted JSON."""
    from semizn import algebra, decide, jsonio

    gens = jsonio.instance_from_json(json.loads(op.doc))
    if op.kind == "syzygy":
        basis = algebra.syzygy_basis(gens.presentation, gens.ys, gens.steps)
        return jsonio.dumps({
            "K": basis.K,
            "generators": [[jsonio.poly_to_json(p) for p in g] for g in basis.generators],
        })
    if op.kind == "group":
        verdict = decide.decide_group(gens)
    elif op.kind == "identity":
        verdict = decide.decide_identity(gens)
    else:
        verdict = decide.decide_inverse(gens, 1)
    return jsonio.dumps(jsonio.verdict_to_json(verdict))


def run_op(op: workloads.Op, alarm: Alarm, limit: float, meter: speed.Meter,
           trace=None) -> Result:
    """Run one op; over the limit if it takes more than `limit` seconds at
    reference speed."""
    if trace is not None:
        trace.begin_op(op.id)
    text = None
    wall_limit = GUARD * limit * meter.slowness()
    t0 = time.perf_counter()
    try:
        try:
            alarm.arm(wall_limit)
            text = _decide(op)
        finally:  # an alarm that fires in here still lands in the handler below
            alarm.disarm()
        status = "done"
    except OverLimit:
        status, text = "over_limit", None
    except Exception as exc:  # the op's failure is a result, not the run's
        status, text = "raised", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    # the next op starts from a collected heap, as it would in a fresh
    # `semizn` process; the collection is not part of any op's time
    gc.collect()
    scale = meter.scale()
    if seconds * scale > limit:
        status, text = "over_limit", None
    counts = trace.op_counts() if trace is not None and status != "over_limit" else None
    return Result(op, status, seconds, text, counts, scale=scale)


def probe(ops, alarm: Alarm, limit: float) -> dict:
    """Run each op once in a forked child, before the timed passes, with as
    many children at a time as there are CPUs; each measures the slowness
    just before and after its op, as `run_op` does.  Returns the peak resident
    memory (kB) of each op that finished within the limit (raising counts as
    finishing): that of a process that has set up the workload and then runs
    this one op.  The ops missing from it were stopped; the timed passes
    count them as stopped without starting them again, as they would be with
    the limit in a gap."""
    finished, running, queue = {}, {}, list(ops)
    gc.collect()
    while queue or running:
        while queue and len(running) < PROBE_JOBS:
            op = queue.pop(0)
            pid = os.fork()
            if pid == 0:
                code = STOPPED
                try:
                    before = speed.slowness()
                    alarm.arm(GUARD * limit * before)
                    t0 = time.perf_counter()
                    try:
                        _decide(op)
                    except Exception:
                        pass
                    wall = time.perf_counter() - t0
                    alarm.disarm()
                    if wall / ((before + speed.slowness()) / 2) <= limit:
                        code = 0
                finally:
                    os._exit(code)
            running[pid] = op
        pid, status, usage = os.wait4(-1, 0)
        op = running.pop(pid)
        if os.waitstatus_to_exitcode(status) != STOPPED:
            finished[op.id] = usage.ru_maxrss
    return finished


def check_results(results):
    """Check every finished op's output; identical outputs are checked once."""
    verdicts = {}
    for r in results:
        if r.status == "raised":
            r.problem = r.text
        if r.status != "done":
            continue
        key = (r.op.id, r.text)
        if key not in verdicts:
            try:
                if r.op.kind == "syzygy":
                    verdicts[key] = checks.check_syzygy(r.op.doc, r.text)
                else:
                    verdicts[key] = checks.check_decision(r.op.kind, r.op.doc, r.text,
                                                          r.op.expect)
            except Exception as exc:  # a malformed output fails its check
                verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
        r.problem = verdicts[key]


# -- metrics ----------------------------------------------------------------------

def tail(latencies):
    """(value, percentile, samples): the highest percentile with at least ten
    samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def decided(r: Result) -> bool:
    if r.status != "done" or r.problem:
        return False
    return r.op.kind == "syzygy" or json.loads(r.text)["verdict"] in ("yes", "no")


def latencies(results, wall: bool = False) -> list:
    """One latency per finished op and pass: the op's median time over the
    passes, so that the percentiles rank ops, not the noise between
    repeats of one op."""
    times = {}
    for r in results:
        if r.status != "over_limit":
            times.setdefault(r.op.id, []).append(r.seconds if wall else r.nominal)
    return [statistics.median(ts) for ts in times.values() for _ in ts]


def e2e_metrics(results, setup_times, rss_mb: float, wall: bool = False) -> dict:
    """The time metrics cover the ops that finished (returned or raised); a
    stopped op's time is the limit, not the program's.  The closed loop has
    no think time, so the run's op time is the sum of its ops' times, in
    seconds at reference speed (wall seconds if `wall`)."""
    n = len(results)
    finished = [r.seconds if wall else r.nominal for r in results
                if r.status != "over_limit"]
    typical = latencies(results, wall) or [0.0]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(finished) / sum(finished) if finished else 0.0,
        "latency_p50_s": statistics.median(typical),
        "latency_tail_s": tail(typical)[0],
        "decided_frac": sum(decided(r) for r in results) / n,
        "error_frac": sum(r.problem is not None for r in results) / n,
        "over_limit_frac": (n - len(finished)) / n,
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(results, trace: tracer.Tracer) -> dict:
    """Layer shares, calls and counts over the traced ops that finished."""
    results = [r for r in results if r.status != "over_limit"]
    ops = {r.op.id for r in results}
    op_time = sum(r.seconds for r in results) or 1.0
    inclusive, self_time = tracer.layer_times(trace.spans, ops)
    calls = {}
    for name, _, _, _, op in trace.spans:
        if op in ops:
            calls[name] = calls.get(name, 0) + 1
    counts = {}
    for r in results:
        for name, value in (r.counts or {}).items():
            if name in MAXIMA:
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    out = {name: 100.0 * inclusive.get(span, 0.0) / op_time
           for name, span in LAYER_SHARES.items()}
    out["decide.positive_search.self_pct"] = (
        100.0 * self_time.get("decide.positive_search", 0.0) / op_time)
    out.update({name: calls.get(span, 0) for name, span in LAYER_CALLS.items()})
    out.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    nf = counts.get("groebner.nf.calls", 0)
    out["groebner.nf.zero_frac"] = counts.get("groebner.nf.zero", 0) / nf if nf else 0.0
    out["trace.op_s"] = sum(r.nominal for r in results)
    return out


def count_metrics(results) -> dict:
    """The deterministic counters, per finished op."""
    return {str(r.op.id): {k: v for k, v in sorted(r.counts.items())
                           if k in tracer.COUNT_METRICS}
            for r in results if r.counts is not None}


def compare_counts(path: str, counts: dict) -> list:
    """Names of ops whose counts differ from the last traced run of the same
    workload (none on a first run); then save these counts.  The program
    keeps no state between ops, so an op's counts do not depend on the
    order, and runs with different seeds compare too."""
    changed = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        changed = sorted(op for op in counts.keys() & before.keys()
                         if counts[op] != before[op])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    return changed


# -- environment and report -------------------------------------------------------------

def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    from semizn import kernels

    return {
        "python": platform.python_version(),
        "backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "seed": seed,
        "limits_s": LIMITS,
        "reference_nominal_s": speed.NOMINAL_S,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_lines(workload: str, title: str, metrics: dict, units: dict) -> list:
    return [f"{workload:8s} {title:10s} {name:34s} {_fmt(v):>14s} {units[name]}"
            for name, v in metrics.items()]


# -- one workload ---------------------------------------------------------------------------

def passes(workload: str, seconds: float) -> int:
    """Timed passes in an untraced run of `seconds`, after the probe.  The
    count depends on --seconds alone, not on how fast the run happens to
    go, so a run on a machine slower than the reference takes longer."""
    return max(1, int((seconds - PROBE_SECONDS[workload]) // PASS_SECONDS[workload]))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, limit=None,
                 ops=None, out_dir: str = OUT) -> dict:
    """Run one workload; returns a summary with the report lines.

    Both ways start with the probe.  Untraced, the run then makes whole
    passes over the ops.  Traced, it makes one pass in which every finished
    op runs untraced and then traced, back to back, so the tracing overhead
    is measured on the same ops at the same moment."""
    limit = LIMITS[workload] if limit is None else limit
    corpus_ops, setup_times = setup(workload, seed)
    ops = corpus_ops if ops is None else ops
    alarm = Alarm()
    rss = probe(ops, alarm, limit)
    stopped = {op.id: Result(op, "over_limit", limit, None) for op in ops if op.id not in rss}
    meter = speed.Meter()
    t = tracer.Tracer()
    traced = []
    if trace:
        n_passes, results = 1, []
        for op in ops:
            if op.id in stopped:
                results.append(stopped[op.id])
                traced.append(stopped[op.id])
                continue
            results.append(run_op(op, alarm, limit, meter))
            t.install()
            try:
                traced.append(run_op(op, alarm, limit, meter, t))
            finally:
                t.uninstall()
    else:
        n_passes = passes(workload, seconds)
        results = [stopped.get(op.id) or run_op(op, alarm, limit, meter)
                   for _ in range(n_passes) for op in ops]
    check_results(results + traced)
    e2e = e2e_metrics(results, setup_times, max(rss.values(), default=0) / 1024)
    summary = {"results": results, "e2e": e2e}
    if trace:
        layers = layer_metrics(traced, t)
        layers["trace.overhead_s"] = sum(
            b.nominal - a.nominal for a, b in zip(results, traced)
            if a.status != "over_limit" and b.status != "over_limit")
        os.makedirs(out_dir, exist_ok=True)
        t.write_spans(os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl"))
        changed = compare_counts(os.path.join(out_dir, f"counts-{workload}.json"),
                                 count_metrics(traced))
        layers["trace.counts_changed"] = len(changed)
        lines = report_lines(workload, "per-layer", layers, LAYER_UNITS)
        lines.append(f"{workload:8s} {'per-layer':10s} tracing overhead "
                     f"{layers['trace.overhead_s']:.4g} s on {layers['trace.op_s']:.4g} s")
        if changed:
            lines.append(f"{workload:8s} WARNING counts differ from the last traced run "
                         f"on ops {', '.join(changed)}")
        summary["layers"] = layers
        summary["traced"] = results = traced
    else:
        _, pct, samples = tail(latencies(results) or [0.0])
        lines = report_lines(workload, "e2e", e2e, E2E_UNITS)
        lines.append(f"{workload:8s} {'e2e':10s} latency_tail_s is p{pct:.2f} of {samples} "
                     f"finished ops ({n_passes} passes of {len(ops)} ops)")
        wall = e2e_metrics(results, setup_times, 0.0, wall=True)
        slow = statistics.median(1 / r.scale for r in results if r.status != "over_limit")
        lines.append(f"{workload:8s} {'wall':10s} ops_per_s {wall['ops_per_s']:.6g} 1/s, "
                     f"latency_p50_s {wall['latency_p50_s']:.6g} s, latency_tail_s "
                     f"{wall['latency_tail_s']:.6g} s; the machine ran at {slow:.3f}x "
                     f"the reference loop's nominal {speed.NOMINAL_S} s")
    lines.append(f"{workload:8s} ops stopped at the {limit} s limit: {sorted(stopped)}")
    late = sorted({r.op.id for r in results if r.status == "over_limit"} - stopped.keys())
    if late:
        lines.append(f"{workload:8s} WARNING ops that finished in the probe but were "
                     f"stopped in a pass: {late}")
    for r in {r.op.id: r for r in results if r.problem}.values():
        lines.append(f"{workload:8s} error op {r.op.id} ({r.op.cls}): {r.problem[:160]}")
    summary["lines"] = lines
    summary["attempted"] = len(results)
    summary["failed"] = sum(r.problem is not None or r.status == "over_limit"
                            for r in results)
    # a wrong answer, unlike a raised op, makes the run incorrect
    summary["correct"] = not any(r.status == "done" and r.problem for r in results)
    return summary


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "semizn")) or \
            not os.path.isdir(os.path.join(ROOT, "instances")):
        print(f"error: no semizn source tree at {ROOT}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args.seed, args.seconds)
    s = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(s["lines"]))
    print(json.dumps({"environment": environment(args.seed)}, sort_keys=True))
    kind = "per_layer" if args.trace else "end_to_end"
    source = s["layers"] if args.trace else s["e2e"]
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in _declared(kind).items()}
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each run in a process of its own
    so that its memory figure is its own; prints their reports and then one
    JSON object of all their metrics."""
    doc, status = {}, 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            doc[f"{name}{'/trace' if trace else ''}"] = {
                "correct": result["correct"],
                **{k: v["value"] for k, v in result["metrics"].items()}}
    print(json.dumps(doc, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
