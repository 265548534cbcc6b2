#!/usr/bin/env python3
"""Behavioral check of tools/bench_diff.py: two report trees that differ
only in one fingerprint must fail the diff (exit 1), wherever the
fingerprint sits; identical trees must pass (exit 0).

Usage: bench_diff_selftest.py PATH/TO/bench_diff.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

REPORT = {
    "schema": "sov-bench-report-v1", "bench": "demo", "smoke": True,
    "meta": {"scenarios": 12, "wall_s": 0.5},
    "rows": {"runs": [{"threads": 1, "wall_s": 0.4,
                       "scenarios_per_sec": 30.0,
                       "fleet_fingerprint": "a1bbbef1e45adddd",
                       "triage_fingerprint": "53a5f933da213b7b"}]},
    "gates": [{"name": "fleet_deterministic", "pass": True}],
    "extra": {"report": {"scenarios": 12,
                         "fingerprint": "4946764c63613b35"}},
    "pass": True,
}


def diff(bench_diff, base, cand):
    with tempfile.TemporaryDirectory() as tmp:
        for tree, report in (("base", base), ("cand", cand)):
            os.mkdir(os.path.join(tmp, tree))
            with open(os.path.join(tmp, tree, "BENCH_demo.json"), "w",
                      encoding="utf-8") as f:
                json.dump(report, f)
        proc = subprocess.run(
            [sys.executable, bench_diff, os.path.join(tmp, "base"),
             os.path.join(tmp, "cand")],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout


def main(argv):
    bench_diff = argv[1]
    rc, out = diff(bench_diff, REPORT, REPORT)
    assert rc == 0, (rc, out)

    edits = {
        "row fleet_fingerprint":
            lambda r: r["rows"]["runs"][0].update(
                fleet_fingerprint="a1bbbef1e45addde"),
        "row triage_fingerprint":
            lambda r: r["rows"]["runs"][0].update(
                triage_fingerprint="0000000000000000"),
        "extra.report.fingerprint":
            lambda r: r["extra"]["report"].update(
                fingerprint="4946764c63613b36"),
        "top-level fingerprint":
            lambda r: r.update(fingerprint="ffffffffffffffff"),
    }
    for what, edit in edits.items():
        cand = copy.deepcopy(REPORT)
        edit(cand)
        base = REPORT
        if what == "top-level fingerprint":
            base = copy.deepcopy(REPORT)
            base["fingerprint"] = "eeeeeeeeeeeeeeee"
        rc, out = diff(bench_diff, base, cand)
        assert rc == 1, (what, rc, out)
        assert "fingerprint" in out, (what, out)
    print("bench_diff selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
