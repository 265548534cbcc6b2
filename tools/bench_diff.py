#!/usr/bin/env python3
"""Diff two trees of BENCH_*.json reports and flag regressions.

Compares every report present in both trees (matched by filename).
A gate that passed in the baseline and fails or disappears in the
candidate fails the diff; new and newly-passing gates are fine.

Every key of the meta block and of every row falls into exactly one
class of KEY_RULES (first match wins):

  fingerprint  "fingerprint" or "*_fingerprint": must match exactly.
               Fingerprints fold every simulated result bit for bit,
               so a change is a behaviour change even when every value
               stays within tolerance. They are also compared at the
               top level and in any nested object ("extra", "metrics").
  outcome      a categorical result (OUTCOME_KEYS): must match exactly.
  ignored      wall-clock keys ("wall" anywhere in the name), plus any
               key no rule names (labels, counts, ratios).
  host-clock   how fast this host ran the code ("*per_sec", "ttfr*",
               "per_scenario_ms"): compared within --tolerance, but only
               when both reports carry the same meta.host stamp. Across
               hosts, or when a stamp is missing, each such key prints
               one HOST line instead of being compared.
  model-time   the paper's calibrated latencies and rates ("*_ms",
               "*_hz", "latency", "throughput", "availability",
               "fairness"): deterministic, so compared within
               --tolerance (default 10%) on every run.

Row tables are aligned by a composite of the row's known label keys
(fault/scenario/policy/mode/preset/stack/tenant/name — so the fault
matrix's 4 cells per fault land on distinct labels), falling back to
the first string-valued field that is not a fingerprint, then the row
index. A report pair whose `smoke` flags disagree is skipped — a smoke
matrix and a full matrix legitimately produce different numbers.

Usage:
    tools/bench_diff.py BASELINE_DIR CANDIDATE_DIR [--tolerance 0.10]

Exits 1 on any gate flip, mismatch or out-of-tolerance drift, 2 on
usage or unreadable input, 0 otherwise.
"""

import argparse
import glob
import json
import os
import sys

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

FINGERPRINT = "fingerprint"
OUTCOME = "outcome"
IGNORED = "ignored"
HOST_CLOCK = "host-clock"
MODEL_TIME = "model-time"

# (class, predicate over the lower-cased key), first match wins; a key
# no rule matches is IGNORED.
KEY_RULES = (
    (FINGERPRINT, lambda k: k == "fingerprint" or k.endswith("_fingerprint")),
    (OUTCOME, lambda k: k in OUTCOME_KEYS),
    (IGNORED, lambda k: "wall" in k),
    (HOST_CLOCK, lambda k: (k.endswith("per_sec") or k.startswith("ttfr")
                            or k == "per_scenario_ms")),
    (MODEL_TIME, lambda k: (k.endswith(("_ms", "_hz"))
                            or any(word in k for word in (
                                "latency", "throughput", "availability",
                                "fairness")))),
)


def key_class(key):
    lowered = key.lower()
    for cls, matches in KEY_RULES:
        if matches(lowered):
            return cls
    return IGNORED


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
        if isinstance(value, str) and key_class(key) != FINGERPRINT:
            return value
    return f"#{index}"


def host_mismatch(base, cand):
    """Why host-clock keys cannot be compared, or None if they can."""
    base_host = base.get("meta", {}).get("host")
    cand_host = cand.get("meta", {}).get("host")
    if not base_host or not cand_host:
        return "no host stamp in " + ("baseline" if not base_host
                                      else "candidate")
    return None if base_host == cand_host else "hosts differ"


def diff_fields(path, base, cand, tolerance, host_skip, problems, skips):
    """Compare one flat dict (the meta block or a row) under KEY_RULES.
    Host-clock keys go to @p skips when @p host_skip names a reason."""
    for key, base_value in base.items():
        cls = key_class(key)
        cand_value = cand.get(key)
        if cls in (FINGERPRINT, OUTCOME):
            if base_value != cand_value:
                problems.append(f"{path}.{key}: '{base_value}' -> "
                                f"'{cand_value}'")
            continue
        if cls == IGNORED or not is_number(base_value):
            continue
        if not is_number(cand_value):
            problems.append(f"{path}.{key}: present in baseline "
                            f"({base_value}), missing in candidate")
            continue
        if cls == HOST_CLOCK and host_skip:
            skips.append(f"{path}.{key}: {base_value:g} -> "
                         f"{cand_value:g} not compared ({host_skip})")
            continue
        if base_value == 0:
            drift = 0.0 if cand_value == 0 else float("inf")
        else:
            drift = abs(cand_value - base_value) / abs(base_value)
        if drift > tolerance:
            problems.append(
                f"{path}.{key}: {base_value:g} -> {cand_value:g} "
                f"({drift * 100.0:+.1f}% > {tolerance * 100.0:.0f}%)")


def diff_fingerprints(path, base, cand, problems):
    """Fingerprints anywhere in @p base, recursing into nested objects
    (e.g. extra.report.fingerprint)."""
    for key, value in base.items():
        cand_value = cand.get(key)
        if key_class(key) == FINGERPRINT:
            if value != cand_value:
                problems.append(f"{path}.{key}: '{value}' -> "
                                f"'{cand_value}'")
        elif isinstance(value, dict):
            diff_fingerprints(
                f"{path}.{key}", value,
                cand_value if isinstance(cand_value, dict) else {},
                problems)


def diff_report(name, base, cand, tolerance):
    """(problems, host-clock skips) of one report pair."""
    problems = []
    skips = []

    base_gates = {g["name"]: bool(g.get("pass"))
                  for g in base.get("gates", [])}
    cand_gates = {g["name"]: bool(g.get("pass"))
                  for g in cand.get("gates", [])}
    for gate, passed in sorted(base_gates.items()):
        if gate not in cand_gates:
            problems.append(f"{name}: gate '{gate}' disappeared")
        elif passed and not cand_gates[gate]:
            problems.append(f"{name}: gate '{gate}' flipped pass -> FAIL")

    host_skip = host_mismatch(base, cand)
    diff_fields(f"{name}.meta", base.get("meta", {}), cand.get("meta", {}),
                tolerance, host_skip, problems, skips)
    diff_fingerprints(name, {key: value for key, value in base.items()
                             if key not in ("meta", "rows")},
                      cand, problems)

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
            diff_fields(f"{name}.{table}[{label}]", row, cand_row,
                        tolerance, host_skip, problems, skips)
    return problems, skips


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
        problems, skips = diff_report(name, base, cand, args.tolerance)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'OK  '} {name}")
        for problem in problems:
            print(f"  {problem}")
        for skip in skips:
            print(f"  HOST {skip}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
