"""The canonical verdict JSON, relation-module basis JSON and hull
outputs of every pinned case are unchanged, byte for byte: their sha256
match `data/golden_verdicts.json`, `data/golden_syzygies.json` and
`data/golden_geometry.json` (written by `make_golden.py`)."""
import json

from make_golden import (GOLDEN, GOLDEN_GEOMETRY, GOLDEN_SYZYGIES, cases, geometry_cases,
                         syzygy_cases)


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
