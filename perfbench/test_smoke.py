"""Smoke test of the benchmark harness on a few cheap ops per workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _few(workload):
    ops = workloads.corpus(workload, run.ROOT)
    cheap = {"syzygy": ("n0", "n1"), "group": ("pinned:", "pairs-free"),
             "subsets": ("identity-z2-K3", "inverse-z2-K3", "pinned:")}[workload]
    return [op for op in ops if op.cls.startswith(cheap)][:5]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(workload, tmp_path):
    s = run.run_workload(workload, 1, 0, trace=True, ops=_few(workload), out_dir=str(tmp_path))
    assert set(run.E2E_UNITS) <= set(s["e2e"])
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(s["e2e"])
    assert {m["name"] for m in SPEC["per_layer"]} <= set(s["layers"])
    assert s["attempted"] == len(_few(workload)) and s["correct"]
    assert (tmp_path / f"spans-{workload}-1.jsonl").exists()


def test_counts_repeat(tmp_path):
    first = run.run_workload("group", 2, 0, trace=True, ops=_few("group"), out_dir=str(tmp_path))
    second = run.run_workload("group", 2, 0, trace=True, ops=_few("group"), out_dir=str(tmp_path))
    assert second["layers"]["trace.counts_changed"] == 0
    assert run.count_metrics(first["traced"]) == run.count_metrics(second["traced"])
    assert run.count_metrics(first["traced"])
    path = tmp_path / "counts-group.json"
    counts = json.loads(path.read_text())
    op = next(iter(counts))
    counts[op]["groebner.nf.calls"] = -1
    assert run.compare_counts(str(path), counts) == [op]


def test_planted_failures_are_counted(tmp_path):
    raising = workloads.Op(900, "group", "planted", json.dumps({"module": {"n": 1}}))
    rng555 = next(op for op in workloads.corpus("syzygy", run.ROOT) if op.pinned)
    slow = workloads.Op(901, "syzygy", "planted", rng555.doc)
    s = run.run_workload("group", 1, 0, trace=False, ops=[raising, slow], limit=0.3,
                         out_dir=str(tmp_path))
    assert s["e2e"]["error_frac"] == 0.5
    assert s["e2e"]["over_limit_frac"] == 0.5
    assert s["failed"] == 2 and s["correct"]
    statuses = [r.status for r in s["results"]]
    assert statuses == ["raised", "over_limit"]


def test_stopped_ops_stay_out_of_the_time_metrics():
    op = workloads.Op(0, "group", "planted", "{}")
    done = run.Result(op, "done", 0.5, json.dumps({"verdict": "yes"}))
    stopped = run.Result(op, "over_limit", 3.0, None)
    e2e = run.e2e_metrics([done, stopped, done], [0.1], 1.0)
    assert e2e["ops_per_s"] == 2.0 and e2e["latency_p50_s"] == 0.5
    assert e2e["latency_tail_s"] == 0.5 and e2e["over_limit_frac"] == 1 / 3


def test_syzygy_check_needs_the_whole_module():
    expected = run.checks._expected_syzygy()
    op = next(op for op in workloads.corpus("syzygy", run.ROOT)
              if len(expected.get(run.checks.instance_key(op.doc), ())) >= 2)
    gens = expected[run.checks.instance_key(op.doc)]
    assert run.checks.check_syzygy(op.doc, json.dumps({"generators": gens})) is None
    # another generating set of the same module passes
    assert run.checks.check_syzygy(op.doc, json.dumps({"generators": gens[::-1]})) is None
    assert run.checks.check_syzygy(op.doc, json.dumps({"generators": []}))


def test_wrong_answer_fails_its_check():
    op = next(op for op in workloads.corpus("group", run.ROOT) if op.expect == "yes"
              and not op.pinned)
    fake = json.dumps({"verdict": "no", "certificate": {"sample": ["1", "1"],
                                                        "dual": ["1", "0", "0", "0"]}})
    assert run.checks.check_decision("group", op.doc, fake, "yes")


def test_times_are_scaled_to_reference_speed():
    fast = workloads.Op(0, "group", "planted", "{}")
    slow = workloads.Op(1, "group", "planted", "{}")
    text = json.dumps({"verdict": "yes"})
    # the machine ran at half the reference speed around the first two ops
    results = [run.Result(fast, "done", 0.2, text, scale=0.5),
               run.Result(fast, "done", 0.1, text),
               run.Result(slow, "done", 0.4, text),
               run.Result(slow, "done", 0.6, text)]
    e2e = run.e2e_metrics(results, [0.1], 1.0)
    assert e2e["ops_per_s"] == pytest.approx(4 / 1.2)
    # each op's samples are its median over the passes
    assert run.latencies(results) == [0.1, 0.1, 0.5, 0.5]
    assert run.e2e_metrics(results, [0.1], 1.0, wall=True)["ops_per_s"] == pytest.approx(4 / 1.3)


def test_reference_meter():
    meter = run.speed.Meter()
    assert meter.slowness() > 0
    assert 0 < meter.scale() and len(meter.recent) == 2
