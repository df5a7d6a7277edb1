"""Write data/syzygy_expected.json, the reference bases `checks.check_syzygy`
compares the `syzygy` outputs with.

For every op of the `syzygy` corpus that finishes within five times the
workload's limit, it stores the relation-module basis `algebra.syzygy_basis`
returns, keyed by `checks.instance_key` of the instance, after checking each
generator's residual.  Run it from the root of a source tree whenever the
corpus changes:

    python3 perfbench/make_expected.py
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    sys.path.insert(0, run.SRC)
    alarm = run.Alarm()
    expected = {}
    for op in workloads.corpus("syzygy", run.ROOT):
        r = run.run_op(op, alarm, 5 * run.LIMITS["syzygy"])
        if r.status != "done":
            print(f"op {op.id} ({op.cls}): {r.status}, no reference", file=sys.stderr)
            continue
        problem = checks.check_syzygy(op.doc, r.text, expected=[])
        if problem:
            raise SystemExit(f"op {op.id}: {problem}")
        expected[checks.instance_key(op.doc)] = json.loads(r.text)["generators"]
    with open(checks.EXPECTED_SYZYGY, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
