"""The canonical verdict JSON, relation-module basis JSON and hull
outputs of every pinned case are unchanged, byte for byte: their sha256
match `data/golden_verdicts.json`, `data/golden_syzygies.json` and
`data/golden_geometry.json` (written by `make_golden.py`)."""
import json

from semizn.algebra import syzygy_basis

from conftest import normalize_unit
from make_golden import (GOLDEN, GOLDEN_GEOMETRY, GOLDEN_SYZYGIES, cases, geometry_cases,
                         syzygy_cases, syzygy_inputs)


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
