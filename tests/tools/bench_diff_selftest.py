#!/usr/bin/env python3
"""Behavioral check of tools/bench_diff.py, one key class at a time.

Identical trees pass. A changed fingerprint (wherever it sits), a
changed outcome, a gate that flips or disappears, and model-time drift
past tolerance fail. Wall keys are never compared, and smoke/full pairs
are skipped. Host-clock drift fails only between reports with equal
meta.host stamps; otherwise each host-clock key prints one HOST line.

Usage: bench_diff_selftest.py PATH/TO/bench_diff.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HOST_A = "cpu=Demo CPU A; cores=4; simd=avx2; build=Release; compiler=GNU 13"
HOST_B = "cpu=Demo CPU B; cores=8; simd=avx2; build=Release; compiler=GNU 13"

REPORT = {
    "schema": "sov-bench-report-v1", "bench": "demo", "smoke": False,
    "meta": {"host": HOST_A, "scenarios": 12, "wall_s": 0.5,
             "cold_wall_ms": 40.0,
             "latency_budget_ms": 100.0, "per_scenario_ms": 2.0,
             "sync_fingerprint": "fb5448b31b7b39eb"},
    "rows": {
        "runs": [{"threads": 1, "wall_s": 0.4,
                  "scenarios_per_sec": 30.0,
                  "fleet_fingerprint": "a1bbbef1e45adddd",
                  "triage_fingerprint": "53a5f933da213b7b",
                  "failover_fingerprint": "ec3c3c766f31d0de"}],
        "cells": [{"fault": "lidar_dropout", "outcome": "stop",
                   "availability": 0.9, "ttfr_p99_ms": 5.0}],
        "threads": [{"threads": 1, "fingerprint": "87a39c7951c91e32"},
                    {"threads": 2, "fingerprint": "87a39c7951c91e32"}],
    },
    "gates": [{"name": "fleet_deterministic", "pass": True}],
    "extra": {"report": {"scenarios": 12,
                         "fingerprint": "4946764c63613b35"}},
    "pass": True,
}

# Host-clock keys in REPORT: one HOST line each across hosts.
HOST_CLOCK_KEYS = 3


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


def edited(edit, report=REPORT):
    out = copy.deepcopy(report)
    edit(out)
    return out


def host_lines(out):
    return [line for line in out.splitlines()
            if line.strip().startswith("HOST ")]


def slower(r):
    """Every host-clock key 2x off: far past any tolerance."""
    r["meta"]["per_scenario_ms"] *= 2.0
    r["rows"]["runs"][0]["scenarios_per_sec"] /= 2.0
    r["rows"]["cells"][0]["ttfr_p99_ms"] *= 2.0


def expect(bench_diff, what, base, cand, rc_want, needle=None):
    rc, out = diff(bench_diff, base, cand)
    assert rc == rc_want, (what, rc, out)
    if needle is not None:
        assert needle in out, (what, needle, out)
    return out


def main(argv):
    bench_diff = argv[1]
    out = expect(bench_diff, "identical", REPORT, REPORT, 0)
    assert not host_lines(out), out

    fingerprint_edits = {
        "row fleet_fingerprint":
            lambda r: r["rows"]["runs"][0].update(
                fleet_fingerprint="a1bbbef1e45addde"),
        "row triage_fingerprint":
            lambda r: r["rows"]["runs"][0].update(
                triage_fingerprint="0000000000000000"),
        "meta sync_fingerprint":
            lambda r: r["meta"].update(
                sync_fingerprint="0000000000000000"),
        "row failover_fingerprint":
            lambda r: r["rows"]["runs"][0].update(
                failover_fingerprint="ec3c3c766f31d0df"),
        "extra.report.fingerprint":
            lambda r: r["extra"]["report"].update(
                fingerprint="4946764c63613b36"),
        "top-level fingerprint":
            lambda r: r.update(fingerprint="ffffffffffffffff"),
    }
    for what, edit in fingerprint_edits.items():
        base = REPORT
        if what == "top-level fingerprint":
            base = edited(lambda r: r.update(fingerprint="eeeeeeeeeeeeeeee"))
        expect(bench_diff, what, base, edited(edit), 1, "fingerprint")
    # The row's only string is its fingerprint, so it is labelled by
    # index and compared against its own candidate row.
    expect(bench_diff, "fingerprint-only row", REPORT,
           edited(lambda r: r["rows"]["threads"][1].update(
               fingerprint="87a39c7951c91e33")), 1,
           "threads[#1].fingerprint")

    expect(bench_diff, "outcome change", REPORT,
           edited(lambda r: r["rows"]["cells"][0].update(
               outcome="collision")), 1, "outcome")
    expect(bench_diff, "gate flip", REPORT,
           edited(lambda r: r["gates"][0].update({"pass": False})), 1,
           "flipped pass -> FAIL")
    expect(bench_diff, "gate disappeared", REPORT,
           edited(lambda r: r.update(gates=[])), 1, "disappeared")

    # Model time: compared on every run, across hosts too.
    expect(bench_diff, "model-time drift", REPORT,
           edited(lambda r: r["meta"].update(latency_budget_ms=150.0)), 1,
           "latency_budget_ms")
    expect(bench_diff, "model-time drift across hosts", REPORT,
           edited(lambda r: (r["meta"].update(host=HOST_B),
                             r["rows"]["cells"][0].update(
                                 availability=0.5))), 1, "availability")
    expect(bench_diff, "model-time within tolerance", REPORT,
           edited(lambda r: r["meta"].update(latency_budget_ms=105.0)), 0)

    # Wall keys are never compared, even when they end in "_ms".
    expect(bench_diff, "wall keys", REPORT,
           edited(lambda r: (r["meta"].update(wall_s=50.0,
                                              cold_wall_ms=400.0),
                             r["rows"]["runs"][0].update(wall_s=0.0))), 0)

    # Smoke/full pairs are skipped, even with a gate flip in them.
    expect(bench_diff, "smoke/full pair", REPORT,
           edited(lambda r: (r.update(smoke=True),
                             r["gates"][0].update({"pass": False}))), 0,
           "SKIP BENCH_demo.json")

    # Host clock: compared only between equal host stamps.
    out = expect(bench_diff, "host-clock drift, same host", REPORT,
                 edited(slower), 1)
    for key in ("per_scenario_ms", "scenarios_per_sec", "ttfr_p99_ms"):
        assert key in out, (key, out)
    assert not host_lines(out), out
    no_host = edited(lambda r: r["meta"].pop("host"))
    for what, base, cand in (
            ("hosts differ", REPORT,
             edited(lambda r: (slower(r), r["meta"].update(host=HOST_B)))),
            ("baseline has no host", no_host, edited(slower)),
            ("candidate has no host", REPORT, edited(slower, no_host))):
        out = expect(bench_diff, what, base, cand, 0, "OK   BENCH_demo.json")
        assert len(host_lines(out)) == HOST_CLOCK_KEYS, (what, out)
    print("bench_diff selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
