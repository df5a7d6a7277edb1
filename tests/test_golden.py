"""The canonical verdict JSON of every pinned case is unchanged, byte for
byte: its sha256 matches `data/golden_verdicts.json` (written by
`make_golden.py`)."""
import json

from make_golden import GOLDEN, cases


def test_golden_verdict_digests():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    thunks = dict(cases())
    assert set(golden) <= set(thunks)
    changed = [case_id for case_id, want in golden.items() if thunks[case_id]() != want]
    assert not changed, f"verdict JSON changed on {changed}"
