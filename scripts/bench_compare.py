#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json trajectory.

Compares the current run's Google-Benchmark JSON files against the
artifacts of the previous main-branch run and fails (exit 1) when any
per-family benchmark row regressed by more than the tolerance factor.

Usage:
  bench_compare.py --baseline DIR --current DIR [--tolerance 1.5]

Rules of the gate:
  * A BENCH_*.json present in the baseline but missing from the current
    run is an error (a family silently dropped is itself a regression).
  * Benchmarks present only in the current run pass (new families), but
    added and removed rows are reported explicitly — coverage drift
    should be visible in the log, not silent.
  * Rows are matched by full benchmark name (e.g. "BM_RuleDelta_Chain/2048")
    and compared on real_time, normalized to nanoseconds.
  * A family run with --benchmark_repetitions=N writes N iteration rows
    per name; they are reduced to their median, so one noisy sample of a
    sub-microsecond row cannot trip the gate alone. The aggregate rows
    Google Benchmark adds (mean/median/stddev/cv) are skipped, and a
    one-run file compares as before (the median of one sample is it).
  * CI runners are noisy; 1.5x is deliberately loose — it catches
    order-of-magnitude breakage (a lost fast path), not jitter.
  * A row may declare its own jitter via a `noise_tolerance` user counter
    (e.g. `state.counters["noise_tolerance"] = 0.45` for a wall-clock
    threaded workload): the effective tolerance for that row becomes
    max(--tolerance, 1 + noise_tolerance), taking the larger declaration
    from the baseline and current runs. Rows without the counter keep the
    global tolerance.

When $GITHUB_STEP_SUMMARY is set, a markdown summary table of every
compared row (plus added/removed rows) is appended to it, so the verdict
is readable from the Actions run page without digging through the log.
Rows that got *faster* than the inverse tolerance (ratio < 1/tolerance)
are marked IMPROVEMENT per row and counted in the summary — a perf win
should be as visible in the run page as a regression, and a surprise
improvement (a row suddenly 10x faster) is worth a look too: it can mean
a benchmark stopped measuring what it used to.
"""

import argparse
import glob
import json
import os
import statistics
import sys

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class MalformedBenchJson(Exception):
    """A BENCH_*.json that cannot be parsed into benchmark rows."""


def load_rows(path):
    """benchmark name -> (median real_time ns, noise_tolerance or None).

    Raises MalformedBenchJson — with a one-line human reason, never a
    traceback — for anything a truncated upload or a crashed benchmark
    binary can leave behind: unreadable file, invalid/truncated JSON, or
    JSON whose shape is not Google Benchmark's (top-level dict with a
    `benchmarks` list of dicts, numeric `real_time`).
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise MalformedBenchJson(f"unreadable: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise MalformedBenchJson(
            f"invalid JSON (truncated upload?): {e.msg} at line {e.lineno} "
            f"column {e.colno}") from e
    if not isinstance(data, dict):
        raise MalformedBenchJson(
            f"top level is {type(data).__name__}, expected a Google "
            "Benchmark object")
    benchmarks = data.get("benchmarks", [])
    if not isinstance(benchmarks, list):
        raise MalformedBenchJson("'benchmarks' is not a list")
    samples = {}  # name -> [real_time ns, ...]
    noises = {}
    for i, b in enumerate(benchmarks):
        if not isinstance(b, dict):
            raise MalformedBenchJson(f"benchmarks[{i}] is not an object")
        if b.get("run_type") == "aggregate":
            continue
        unit = UNIT_NS.get(b.get("time_unit", "ns"))
        if unit is None or "real_time" not in b:
            continue
        name = b.get("name")
        real_time = b["real_time"]
        if not isinstance(name, str):
            raise MalformedBenchJson(f"benchmarks[{i}] has no string 'name'")
        if not isinstance(real_time, (int, float)) or isinstance(
                real_time, bool):
            raise MalformedBenchJson(
                f"benchmarks[{i}] ({name!r}) has non-numeric real_time")
        samples.setdefault(name, []).append(real_time * unit)
        noise = b.get("noise_tolerance")
        if isinstance(noise, (int, float)) and not isinstance(noise, bool):
            noises[name] = max(noise, noises.get(name, noise))
    return {name: (statistics.median(times), noises.get(name))
            for name, times in samples.items()}


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"


def write_step_summary(records, regressions, improvements, tolerance,
                       compared):
    """Appends a markdown table to $GITHUB_STEP_SUMMARY when set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = []
    verdict = "❌ FAIL" if regressions else "✅ PASS"
    lines.append(f"## Bench compare: {verdict}")
    lines.append(f"{compared} rows compared, {len(regressions)} "
                 f"regression(s), {len(improvements)} improvement(s), "
                 f"tolerance {tolerance}x")
    lines.append("")
    lines.append("| benchmark | baseline | current | ratio | status |")
    lines.append("|---|---:|---:|---:|---|")
    for rec in records:
        name, base_ns, cur_ns, ratio, status = rec
        base_s = fmt_ns(base_ns) if base_ns is not None else "—"
        cur_s = fmt_ns(cur_ns) if cur_ns is not None else "—"
        ratio_s = f"{ratio:.2f}x" if ratio is not None else "—"
        lines.append(f"| `{name}` | {base_s} | {cur_s} | {ratio_s} "
                     f"| {status} |")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--tolerance", type=float, default=1.5)
    args = ap.parse_args()

    baseline_files = sorted(
        glob.glob(os.path.join(args.baseline, "BENCH_*.json")))
    if not baseline_files:
        print("bench-compare: no baseline BENCH_*.json found; "
              "first run on this branch — passing.")
        return 0

    regressions = []
    improvements = []
    records = []  # (row name, base_ns, cur_ns, ratio, status)
    compared = 0
    added = 0
    removed = 0
    for base_path in baseline_files:
        name = os.path.basename(base_path)
        cur_path = os.path.join(args.current, name)
        if not os.path.exists(cur_path):
            regressions.append(f"{name}: missing from current run")
            records.append((name, None, None, None, "missing file"))
            continue
        try:
            base = load_rows(base_path)
        except MalformedBenchJson as e:
            # A corrupt *baseline* (e.g. a truncated artifact download) is
            # outside this run's control: warn and skip the family rather
            # than wedging the gate. The next green main run rewrites it.
            print(f"  WARNING: skipping baseline {name}: {e}")
            records.append((name, None, None, None, "malformed baseline"))
            continue
        try:
            cur = load_rows(cur_path)
        except MalformedBenchJson as e:
            # A corrupt *current* file was produced by this very run — the
            # bench binary crashed mid-write or emitted garbage. Fail.
            regressions.append(f"{name}: malformed current-run JSON: {e}")
            records.append((name, None, None, None, "malformed current"))
            continue
        for row, (base_ns, base_noise) in sorted(base.items()):
            if row not in cur:
                # Renamed/removed rows inside a surviving family are
                # reported, not failed: the file-level check above already
                # guards against wholesale loss.
                removed += 1
                print(f"  removed: {name}:{row} absent in current run")
                records.append((f"{name}:{row}", base_ns, None, None,
                                "removed"))
                continue
            cur_ns, cur_noise = cur[row]
            compared += 1
            # Per-row noise declarations widen the gate, never narrow it.
            declared = max(
                (n for n in (base_noise, cur_noise) if n is not None),
                default=None)
            tolerance = args.tolerance
            if declared is not None:
                tolerance = max(tolerance, 1.0 + declared)
            ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
            if ratio > tolerance:
                marker = "REGRESSION"
            elif ratio < 1.0 / tolerance:
                marker = "IMPROVEMENT"
            else:
                marker = "ok"
            noise_note = (f" [noise_tolerance -> {tolerance:.2f}x]"
                          if tolerance != args.tolerance else "")
            print(f"  {name}:{row}: {base_ns:.0f}ns -> {cur_ns:.0f}ns "
                  f"({ratio:.2f}x) {marker}{noise_note}")
            records.append((f"{name}:{row}", base_ns, cur_ns, ratio, marker))
            if ratio > tolerance:
                regressions.append(
                    f"{name}:{row}: {ratio:.2f}x slower "
                    f"({base_ns:.0f}ns -> {cur_ns:.0f}ns, row tolerance "
                    f"{tolerance:.2f}x)")
            elif ratio < 1.0 / tolerance:
                improvements.append(
                    f"{name}:{row}: {1.0 / ratio:.2f}x faster "
                    f"({base_ns:.0f}ns -> {cur_ns:.0f}ns)")
        for row, (cur_ns, _) in sorted(cur.items()):
            if row not in base:
                added += 1
                print(f"  added: {name}:{row} new in current run")
                records.append((f"{name}:{row}", None, cur_ns, None, "added"))

    print(f"bench-compare: {compared} rows compared, {added} added, "
          f"{removed} removed, {len(regressions)} regression(s), "
          f"{len(improvements)} improvement(s), tolerance {args.tolerance}x")
    if improvements:
        print("improvements beyond inverse tolerance:")
        for imp in improvements:
            print(f"  {imp}")
    write_step_summary(records, regressions, improvements, args.tolerance,
                       compared)
    if regressions:
        print("\nFAIL: perf regressions beyond tolerance:")
        for r in regressions:
            print(f"  {r}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
