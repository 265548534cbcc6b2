#!/usr/bin/env python3
"""Diff two trees of BENCH_*.json reports and flag regressions.

Compares every report present in both trees (matched by filename).
These changes fail the diff:

  * gate flips — a gate that passed in the baseline and fails in the
    candidate (new gates and newly-passing gates are reported but OK);
  * performance drift — a named latency/throughput value in a row
    table or the meta block moving by more than --tolerance (default
    10%) in either direction;
  * fault-outcome drift — a row's categorical outcome ("outcome",
    "worst_level", "final_state") changing at all, or its
    "availability" drifting out of tolerance. This is what turns a
    fault-matrix regression (a scenario that used to stop now
    collides, a policy that used to stay Degraded now hits SafeStop)
    into a CI failure;
  * fingerprint drift — any "fingerprint" or "*_fingerprint" key
    (fleet_, triage_, sync_, async_, failover_...) changing anywhere
    in a row, the meta block, the top level or the "extra" section.
    Fingerprints fold every simulated result bit for bit, so a change
    is a behaviour change even when every perf value stays within
    tolerance.

Performance keys are recognised by name: anything containing
"latency", "throughput", "availability", "ttfr" or "fairness", or
ending in "_ms", "_hz" or "per_sec". Wall-clock keys (anything with
"wall" in the name, e.g. "wall_s" or "cold_wall_ms") are machine
noise and never compared; the simulated-time metrics are
deterministic, so drift there is a real behaviour change, not
jitter.

Row tables are aligned by a composite of the row's known label keys
(fault/scenario/policy/mode/preset/stack/name — so the fault matrix's
4 cells per fault land on distinct labels), falling back to the first
string-valued field that is not a fingerprint, then the row index. A
report pair whose `smoke` flags disagree is skipped — a smoke matrix
and a full matrix legitimately produce different numbers.

Usage:
    tools/bench_diff.py BASELINE_DIR CANDIDATE_DIR [--tolerance 0.10]

Exits 1 on any gate flip or out-of-tolerance drift, 2 on usage or
unreadable input, 0 otherwise.
"""

import argparse
import glob
import json
import os
import sys

PERF_SUFFIXES = ("_ms", "_hz", "per_sec")

# Row fields that identify a row rather than measure it, in label
# order. The fault matrix repeats the same fault name across its
# policy x mode cells; compounding the keys keeps each cell distinct.
# "tenant" keys the fleet-service fairness table (one row per tenant).
LABEL_KEYS = ("fault", "scenario", "policy", "mode", "preset", "stack",
              "tenant", "name")

# Categorical per-row results: any change is a behaviour regression.
# The kernel-bench equivalence fields ride along: "equivalent" flips
# when a backend diverges from its oracle, and the checksums are
# bit-identical across hosts and SIMD levels by design, so any drift
# is a numerics regression even when the timings are all within
# tolerance.
OUTCOME_KEYS = ("outcome", "worst_level", "final_state", "equivalent",
                "checksum_ref", "checksum_fast")


def is_fingerprint_key(key):
    """Bit-identity digests: categorical wherever they appear."""
    return key == "fingerprint" or key.endswith("_fingerprint")


def is_perf_key(key):
    lowered = key.lower()
    if "wall" in lowered:
        return False
    if ("latency" in lowered or "throughput" in lowered
            or "availability" in lowered or "ttfr" in lowered
            or "fairness" in lowered):
        return True
    return lowered.endswith(PERF_SUFFIXES)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def row_label(row, index):
    parts = [row[key] for key in LABEL_KEYS
             if isinstance(row.get(key), str)]
    if parts:
        return "/".join(parts)
    # A fingerprint is a result, not a label: labelling by it would
    # hide its change behind "row missing" and fold every row sharing
    # it (one per thread count) onto one candidate row.
    for key, value in row.items():
        if isinstance(value, str) and not is_fingerprint_key(key):
            return value
    return f"#{index}"


def diff_values(path, base, cand, tolerance, problems):
    """Compare one flat dict of perf values (a row or the meta block)."""
    for key, base_value in base.items():
        if not is_perf_key(key) or not is_number(base_value):
            continue
        cand_value = cand.get(key)
        if not is_number(cand_value):
            problems.append(f"{path}.{key}: present in baseline "
                            f"({base_value}), missing in candidate")
            continue
        if base_value == 0:
            drift = 0.0 if cand_value == 0 else float("inf")
        else:
            drift = abs(cand_value - base_value) / abs(base_value)
        if drift > tolerance:
            problems.append(
                f"{path}.{key}: {base_value:g} -> {cand_value:g} "
                f"({drift * 100.0:+.1f}% > {tolerance * 100.0:.0f}%)")


def diff_outcomes(path, base, cand, problems, outcomes=True):
    """Flag any change in a categorical field: every fingerprint, plus
    the row outcome keys when @p outcomes is set."""
    for key in base:
        if not (is_fingerprint_key(key)
                or (outcomes and key in OUTCOME_KEYS)):
            continue
        if base.get(key) != cand.get(key):
            problems.append(f"{path}.{key}: '{base.get(key)}' -> "
                            f"'{cand.get(key)}'")


def diff_report_fingerprints(path, base, cand, problems):
    """Fingerprints outside the row tables: the top level, meta and
    any nested object (e.g. extra.report.fingerprint)."""
    diff_outcomes(path, base, cand, problems, outcomes=False)
    for key, value in base.items():
        if key != "rows" and isinstance(value, dict):
            cand_value = cand.get(key)
            diff_report_fingerprints(
                f"{path}.{key}", value,
                cand_value if isinstance(cand_value, dict) else {},
                problems)


def diff_report(name, base, cand, tolerance):
    problems = []

    base_gates = {g["name"]: bool(g.get("pass"))
                  for g in base.get("gates", [])}
    cand_gates = {g["name"]: bool(g.get("pass"))
                  for g in cand.get("gates", [])}
    for gate, passed in sorted(base_gates.items()):
        if gate not in cand_gates:
            problems.append(f"{name}: gate '{gate}' disappeared")
        elif passed and not cand_gates[gate]:
            problems.append(f"{name}: gate '{gate}' flipped pass -> FAIL")

    diff_values(f"{name}.meta", base.get("meta", {}),
                cand.get("meta", {}), tolerance, problems)
    diff_report_fingerprints(name, base, cand, problems)

    base_rows = base.get("rows", {})
    cand_rows = cand.get("rows", {})
    for table, rows in sorted(base_rows.items()):
        cand_table = cand_rows.get(table)
        if cand_table is None:
            problems.append(f"{name}: row table '{table}' disappeared")
            continue
        cand_by_label = {row_label(r, i): r
                         for i, r in enumerate(cand_table)}
        for i, row in enumerate(rows):
            label = row_label(row, i)
            cand_row = cand_by_label.get(label)
            if cand_row is None:
                problems.append(f"{name}.{table}[{label}]: row missing "
                                f"in candidate")
                continue
            diff_values(f"{name}.{table}[{label}]", row, cand_row,
                        tolerance, problems)
            diff_outcomes(f"{name}.{table}[{label}]", row, cand_row,
                          problems)
    return problems


def load_reports(tree):
    reports = {}
    for path in sorted(glob.glob(os.path.join(tree, "BENCH_*.json"))):
        with open(path, encoding="utf-8") as f:
            reports[os.path.basename(path)] = json.load(f)
    return reports


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, add_help=True,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--tolerance", type=float, default=0.10)
    args = parser.parse_args(argv[1:])

    try:
        baseline = load_reports(args.baseline)
        candidate = load_reports(args.candidate)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_diff: unreadable input: {exc}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"bench_diff: no BENCH_*.json under {args.baseline}",
              file=sys.stderr)
        return 2

    failures = 0
    for name, base in sorted(baseline.items()):
        cand = candidate.get(name)
        if cand is None:
            print(f"SKIP {name}: not present in candidate")
            continue
        if bool(base.get("smoke")) != bool(cand.get("smoke")):
            print(f"SKIP {name}: smoke={base.get('smoke')} vs "
                  f"{cand.get('smoke')} — matrices differ by design")
            continue
        problems = diff_report(name, base, cand, args.tolerance)
        if problems:
            failures += 1
            print(f"FAIL {name}")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"OK   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
