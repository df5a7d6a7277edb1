"""The canonical verdict JSON, relation-module basis JSON and hull
outputs of every pinned case are unchanged, byte for byte: their sha256
match `data/golden_verdicts.json`, `data/golden_syzygies.json` and
`data/golden_geometry.json` (written by `make_golden.py`)."""
import json

from semizn import jsonio
from semizn.algebra import syzygy_basis
from semizn.decide import Budget

from conftest import check_one_signed, normalize_unit
from make_golden import (GOLDEN, GOLDEN_GEOMETRY, GOLDEN_SYZYGIES, _decisions, cases,
                         geometry_cases, syzygy_cases, syzygy_inputs)


def _changed(path, case_list):
    """Ids of the cases in the file at `path` whose digest differs now."""
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    thunks = dict(case_list)
    assert set(golden) <= set(thunks)
    return [case_id for case_id, want in golden.items() if thunks[case_id]() != want]


def test_golden_verdict_digests():
    changed = _changed(GOLDEN, cases())
    assert not changed, f"verdict JSON changed on {changed}"


def test_golden_syzygy_digests():
    changed = _changed(GOLDEN_SYZYGIES, syzygy_cases())
    assert not changed, f"syzygy basis JSON changed on {changed}"


def test_golden_geometry_digests():
    changed = _changed(GOLDEN_GEOMETRY, geometry_cases())
    assert not changed, f"hull output changed on {changed}"


def test_relation_module_generators_are_unit_normal():
    """Every generator of the pinned relation-module bases is its own
    `normalize_unit`, the form `algebra._syzygies` decodes to, so the
    positive search tries each generator as it comes, with no re-normalizing."""
    with open(GOLDEN_SYZYGIES, encoding="utf-8") as fh:
        pinned = json.load(fh)
    checked = 0
    for case_id, (pres, ys, steps) in syzygy_inputs():
        if case_id not in pinned:
            continue
        for g in syzygy_basis(pres, ys, steps).generators:
            assert [p.terms for p in normalize_unit(g, pres.n)] == [p.terms for p in g], case_id
            checked += 1
    assert checked >= 100, checked


def test_sign_entries_check_from_the_steps():
    """Every one-signed entry of a pinned Identity or Inverse NO is its
    subset's sign certificate, checked from the instance's steps alone."""
    with open(GOLDEN, encoding="utf-8") as fh:
        pinned = json.load(fh)
    checked = 0
    for case_id, decide, gens in _decisions():
        if case_id not in pinned or case_id.endswith(":group"):
            continue
        verdict = jsonio.verdict_to_json(decide(gens, Budget()))
        for entry in verdict.get("certificate", {}).get("subsets", []):
            cert = entry["certificate"]
            if "one_signed" in cert:
                assert list(cert) == ["one_signed"], case_id
                assert check_one_signed(gens.steps, entry["subset"], cert["one_signed"]), case_id
                checked += 1
    assert checked >= 50, checked
