#!/usr/bin/env python3
"""CI perf-smoke regression gate for the columnar fast paths.

Compares a freshly generated ``BENCH_core.json`` against the committed
``benchmarks/BENCH_core.baseline.json`` and fails (exit 1) when:

* the columnar breakdowns diverged from the per-frame dict oracle
  (``analysis.identical`` false), or the columnar scanner's stats
  diverged from the per-page oracle scanner (``scan.identical``
  false) — correctness regressions; or
* the columnar dump analysis lost more than ``--tolerance`` (default
  20%) relative to the dict oracle compared to the baseline run; or
* the columnar scanner lost more than ``--tolerance`` relative to the
  per-page oracle scanner compared to the baseline run.

The gate compares *fractions* (``columnar_wall / dict_wall``,
``batch_wall / object_wall``) rather than absolute walls, so the
machine's speed cancels out: a slower CI runner slows both sides
alike, but a code change that pessimizes only the fast path moves the
fraction.  Baselines predating a section skip that section's gate with
a warning instead of failing.

Runs at different ``REPRO_BENCH_SCALE`` are not comparable; the gate
warns and exits 0 instead of guessing.

With ``--hugepages-report`` the huge-page trade-off artifact written by
``repro hugepages --bench-out`` is gated too (and the core report
becomes optional, so the hugepages smoke job can gate its artifact
alone).  The hard checks are invariants of the model — KSM savings must
be identical across THP policies within a scenario, the ``never``
policy must report zero splits and a 1.0 TLB multiplier, the huge
bytes sacrificed must equal ``splits * block_pages * 4096``, and no
point may carry validation findings.  Against the committed
``benchmarks/BENCH_hugepages.baseline.json`` (same scale, block size
and seed) the split counts must match exactly: the simulation is
deterministic, so any drift is a semantic change that needs a baseline
regeneration, not noise.

With a core report, the gate also prints the per-layer trend of the
committed end-to-end record, ``benchmarks/BENCH_e2e.json``: per
workload, the newest entry's ``--trace 1`` values next to those of the
previous entry that has them, with their ratio, and each layer time's
share of ``trace.run_s`` in both entries, with the change in points
(shares hold steady on a shared host where raw seconds do not).  An
entry recorded before shares were kept shows the share of its median
values.  When the newest entry holds paper-scale rows
(``paper_scale``: wall seconds and peak RSS per figure), the trend
prints them next to those of the previous entry that has them.  The
trend is a report only and never changes the exit code.

Usage::

    python benchmarks/check_perf_regression.py BENCH_core.json \
        [--baseline benchmarks/BENCH_core.baseline.json] \
        [--hugepages-report BENCH_hugepages.json] \
        [--tolerance 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from record_e2e import is_layer_time

DEFAULT_BASELINE = Path(__file__).parent / "BENCH_core.baseline.json"
DEFAULT_HUGEPAGES_BASELINE = (
    Path(__file__).parent / "BENCH_hugepages.baseline.json"
)
E2E_RECORD = Path(__file__).parent / "BENCH_e2e.json"


def fraction(analysis: dict, wall_key: str) -> float:
    return analysis[wall_key] / analysis["dict_wall_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "report",
        type=Path,
        nargs="?",
        help="fresh BENCH_core.json (optional with --hugepages-report)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE
    )
    parser.add_argument(
        "--hugepages-report",
        type=Path,
        help="fresh BENCH_hugepages.json from `repro hugepages --bench-out`",
    )
    parser.add_argument(
        "--hugepages-baseline",
        type=Path,
        default=DEFAULT_HUGEPAGES_BASELINE,
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed relative slowdown of the columnar fraction (0.2 "
        "= fail only when >20%% slower than the baseline fraction)",
    )
    args = parser.parse_args(argv)
    if args.report is None and args.hugepages_report is None:
        parser.error("a core report and/or --hugepages-report is required")

    failed = False
    if args.report is not None:
        report = json.loads(args.report.read_text())
        baseline = json.loads(args.baseline.read_text())
        failed = gate_core(report, baseline, args.tolerance) or failed
        print_layer_trend(E2E_RECORD)
    if args.hugepages_report is not None:
        hp_report = json.loads(args.hugepages_report.read_text())
        hp_baseline = (
            json.loads(args.hugepages_baseline.read_text())
            if args.hugepages_baseline.exists()
            else {}
        )
        failed = gate_hugepages(hp_report, hp_baseline) or failed
    if failed:
        print(
            "FAIL: a fast path regressed relative to its reference "
            "beyond tolerance"
        )
        return 1
    return 0


def print_layer_trend(path: Path) -> None:
    """Print the per-layer trend of the end-to-end record (a report
    only: whatever the record holds, the exit code does not change)."""
    try:
        lines = layer_trend(json.loads(path.read_text()))
    except (OSError, ValueError, KeyError, TypeError) as error:
        lines = [f"per-layer trend: {path.name} unreadable ({error})"]
    print("\n".join(lines))


def layer_trend(record: dict) -> list:
    """Per workload, the newest entry's trace values against those of
    the previous entry that has them, with the ratio newest/previous."""
    entries = record["entries"]
    if not entries:
        return ["per-layer trend: no entries"]
    newest = entries[-1]
    lines = [f"per-layer trend of {newest['label']} (report only):"]
    for workload, trace in sorted((newest.get("trace") or {}).items()):
        if not trace:
            lines.append(f"  {workload}: not traced")
            continue
        previous = next(
            (
                entry for entry in reversed(entries[:-1])
                if (entry.get("trace") or {}).get(workload)
            ),
            None,
        )
        if previous is None:
            lines.append(f"  {workload}: no earlier traced entry")
            continue
        before = previous["trace"][workload]
        shares = layer_shares(newest, workload)
        shares_before = layer_shares(previous, workload)
        lines.append(f"  {workload}:")
        lines.append(
            f"    {'metric':<24} {previous['label']:>12}"
            f" {newest['label']:>12}   ratio"
        )
        for name, value in trace.items():
            old = before.get(name)
            ratio = (
                f"{value / old:7.3f}"
                if isinstance(value, (int, float))
                and isinstance(old, (int, float)) and old
                else "      -"
            )
            lines.append(
                f"    {name:<24} {_number(old):>12} {_number(value):>12}"
                f" {ratio}"
            )
        lines.append(
            f"    {'share of trace.run_s':<24} {previous['label']:>12}"
            f" {newest['label']:>12}  points"
        )
        for name, share in shares.items():
            old = shares_before.get(name)
            points = (
                f"{100 * (share - old):+7.1f}"
                if share is not None and old is not None else "      -"
            )
            lines.append(
                f"    {name:<24} {_percent(old):>12} {_percent(share):>12}"
                f" {points}"
            )
    return lines + paper_scale_trend(entries)


def paper_scale_trend(entries: list) -> list:
    """The newest entry's paper-scale rows against the previous entry
    that has some, with the ratio newest/previous."""
    rows = entries[-1].get("paper_scale")
    if not rows:
        return []
    previous = next(
        (e for e in reversed(entries[:-1]) if e.get("paper_scale")), None
    )
    label = "-" if previous is None else previous["label"]
    lines = [
        "  paper scale (wall s / peak RSS MB):",
        f"    {'figure':<10} {label:>16} {entries[-1]['label']:>16}"
        "   ratio",
    ]
    for figure, row in rows.items():
        old = (previous or {}).get("paper_scale", {}).get(figure)
        ratio = (
            f"{row['peak_rss_mb'] / old['peak_rss_mb']:7.3f}"
            if old and old["peak_rss_mb"] else "      -"
        )
        before = (
            f"{old['wall_s']:.1f} / {old['peak_rss_mb']:.1f}" if old else "-"
        )
        now = f"{row['wall_s']:.1f} / {row['peak_rss_mb']:.1f}"
        lines.append(f"    {figure:<10} {before:>16} {now:>16} {ratio}")
    return lines


def layer_shares(entry: dict, workload: str) -> dict:
    """Each layer time's share of ``trace.run_s`` in one entry: the
    recorded ``shares``, else those of the recorded medians."""
    recorded = (entry.get("shares") or {}).get(workload)
    if recorded:
        return recorded
    trace = entry["trace"][workload]
    run_s = trace.get("trace.run_s")
    return {
        name: value / run_s if isinstance(value, (int, float)) and run_s
        else None
        for name, value in trace.items()
        if is_layer_time(name)
    }


def _percent(share) -> str:
    return "-" if share is None else f"{100 * share:.1f} %"


def _number(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def gate_core(report: dict, baseline: dict, tolerance: float) -> bool:
    """Gate the columnar analysis fractions; returns True on failure."""
    analysis = report.get("analysis") or {}
    base_analysis = baseline.get("analysis") or {}

    if not analysis:
        print("FAIL: report has no 'analysis' section (bench not run?)")
        return True
    if not analysis.get("identical", False):
        print("FAIL: columnar breakdowns diverged from the dict oracle")
        return True
    if not base_analysis:
        print("warning: baseline has no 'analysis' section; gate skipped")
        return False
    if report.get("scale") != baseline.get("scale"):
        print(
            f"warning: scale mismatch (report {report.get('scale')} vs "
            f"baseline {baseline.get('scale')}); fractions are not "
            "comparable, gate skipped"
        )
        return False

    current = fraction(analysis, "numpy_wall_s")
    base = fraction(base_analysis, "numpy_wall_s")
    limit = base * (1.0 + tolerance)
    verdict = "ok" if current <= limit else "FAIL"
    print(
        f"{verdict}: columnar-numpy fraction {current:.4f} "
        f"(baseline {base:.4f}, limit {limit:.4f})"
    )
    failed = current > limit

    return gate_scan(report, baseline, tolerance) or failed


def gate_scan(report: dict, baseline: dict, tolerance: float) -> bool:
    """Gate the columnar scan fraction; returns True on failure."""
    scan = report.get("scan") or {}
    base_scan = baseline.get("scan") or {}
    if not scan:
        print("FAIL: report has no 'scan' section (bench not run?)")
        return True
    if not scan.get("identical", False):
        print("FAIL: columnar scanner stats diverged from the oracle")
        return True
    if not base_scan:
        print("warning: baseline has no 'scan' section; scan gate skipped")
        return False

    current = scan["batch_wall_s"] / scan["object_wall_s"]
    base = base_scan["batch_wall_s"] / base_scan["object_wall_s"]
    limit = base * (1.0 + tolerance)
    verdict = "ok" if current <= limit else "FAIL"
    print(
        f"{verdict}: batch-numpy fraction {current:.4f} "
        f"(baseline {base:.4f}, limit {limit:.4f})"
    )
    return current > limit


def gate_hugepages(report: dict, baseline: dict) -> bool:
    """Gate the huge-page trade-off artifact; returns True on failure.

    Hard checks are model invariants of the fresh report; the baseline
    comparison is exact-match on the deterministic split counts and is
    skipped (with a warning) when no comparable baseline is committed.
    """
    points = report.get("points") or {}
    if not points:
        print("FAIL: hugepages report has no 'points' (bench not run?)")
        return True

    failed = False
    block_pages = report.get("block_pages", 0)
    by_scenario: dict = {}
    for key, point in points.items():
        by_scenario.setdefault(point["scenario"], {})[
            point["policy"]
        ] = point
        if point.get("validation_codes"):
            print(
                f"FAIL: {key} carries validation findings "
                f"{point['validation_codes']}"
            )
            failed = True
        sacrificed = point["thp_splits"] * block_pages * 4096
        if point["huge_bytes_sacrificed"] != sacrificed:
            print(
                f"FAIL: {key} huge_bytes_sacrificed "
                f"{point['huge_bytes_sacrificed']} != "
                f"{point['thp_splits']} splits * {block_pages} pages * 4096"
            )
            failed = True
    for scenario, policies in sorted(by_scenario.items()):
        saved = {point["saved_bytes"] for point in policies.values()}
        if len(saved) != 1:
            print(
                f"FAIL: {scenario} KSM savings vary across THP policies "
                f"({sorted(saved)}); split-on-merge must preserve sharing"
            )
            failed = True
        never = policies.get("never")
        if never and (
            never["thp_splits"] != 0 or never["tlb_multiplier"] != 1.0
        ):
            print(
                f"FAIL: {scenario}/never reports "
                f"{never['thp_splits']} splits, "
                f"tlb x{never['tlb_multiplier']} (expected 0, x1.0)"
            )
            failed = True
    if not failed:
        print(f"ok: hugepages invariants hold over {len(points)} point(s)")

    base_points = baseline.get("points") or {}
    if not base_points:
        print(
            "warning: no hugepages baseline committed; only invariants "
            "were gated"
        )
        return failed
    comparable = all(
        report.get(key) == baseline.get(key)
        for key in ("scale", "ticks", "seed", "block_pages")
    )
    if not comparable:
        print(
            "warning: hugepages baseline ran at a different "
            "scale/ticks/seed/block_pages; split-count gate skipped"
        )
        return failed
    for key in sorted(base_points):
        if key not in points:
            print(f"warning: baseline point {key} missing from report")
            continue
        current = points[key]["thp_splits"]
        base = base_points[key]["thp_splits"]
        verdict = "ok" if current == base else "FAIL"
        print(
            f"{verdict}: {key} thp_splits {current} (baseline {base})"
        )
        failed = failed or current != base
    return failed


if __name__ == "__main__":
    sys.exit(main())
