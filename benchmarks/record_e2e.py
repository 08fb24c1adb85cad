"""Append one entry to the end-to-end trajectory record, ``BENCH_e2e.json``.

Usage (from the root of a checkout)::

    python3 benchmarks/record_e2e.py --label LABEL --runs 5 --trace --tests

For every perfbench workload it runs ``perfbench/run.py --workload W
--seed N`` for ``N`` in ``1..runs``, each in its own subprocess, and
records the median and quartiles of each end-to-end metric over those
runs, with the run count (``pairs``: a change measured against its
parent in alternating pairs contributes one run per pair).  ``--trace``
adds three ``--trace 1 --seed 1`` runs per workload for the layer
split: one traced run is too noisy to attribute a change (say, four
traced ``fig3c_steady`` runs of one commit spread ``trace.run_s`` over
0.56-0.93 s), so the entry records each timed metric's median over the
three, and a count metric (unit ``count``) must read the same in all
three or nothing is recorded.  Raw seconds still swing with the load of
a shared host while each layer's share of the traced wall holds to a
point or two, so the entry also records, under ``shares``, each layer
time's (``*_s``) share of ``trace.run_s``: the median over the three
runs of the per-run share.  ``--tests`` runs the tier-1 suite for
its test count and wall time.  Each perfbench result (the JSON line it
prints last) is kept in a fresh temporary directory as
``<workload>.<seed>.json`` and ``<workload>.trace.<n>.json``;
``--saved DIR`` builds the entry from such files (or from a single
``<workload>.trace.json``, as kept before) instead of running
perfbench, so runs made by hand (say the change side of a pair series)
can be recorded.  perfbench itself is never edited.  Markdown files
(``*.md``) in the ``--saved`` directory may hold the
``| figure | wall s | peak RSS MB |`` rows ``benchmarks/rusage_run.py``
writes for the paper-scale figures; their rows are recorded under
``paper_scale``.

The entry's ``commit`` is ``git rev-parse --short HEAD``; ``dirty`` says
whether ``src/`` differed from it when the entry was made.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "benchmarks" / "BENCH_e2e.json"
WORKLOADS = ("fig3c_steady", "fig2_bigimage", "fig7_sweep")
END_TO_END = ("run_s", "cpu_s", "setup_s", "peak_rss_mb")
#: Traced regenerations per workload behind an entry's layer split.
TRACE_RUNS = 3


def perfbench(workload: str, seed: int, trace: bool, out: Path) -> None:
    """Run one perfbench invocation and keep its JSON line in ``out``."""
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    )
    out.write_text(done.stdout.strip().splitlines()[-1] + "\n")


def spread(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method) of the per-run values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": round(statistics.median(values), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
    }


def workload_entry(saved: Path, workload: str) -> Optional[dict]:
    """The end-to-end summary of the kept runs of one workload."""
    runs = []
    for path in sorted(saved.glob(f"{workload}.*.json")):
        if path.name.startswith(f"{workload}.trace."):
            continue
        runs.append(json.loads(path.read_text()))
    if not runs:
        return None
    entry = {"pairs": len(runs), "correct": all(r["correct"] for r in runs)}
    for name in END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        entry[name] = spread([v for v in values if v is not None])
    return entry


def traced_runs(saved: Path, workload: str) -> List[dict]:
    """The metrics of the kept traced runs of one workload."""
    paths = sorted(saved.glob(f"{workload}.trace.*.json"))
    if not paths:
        paths = list(saved.glob(f"{workload}.trace.json"))  # one kept run
    return [json.loads(path.read_text())["metrics"] for path in paths]


def is_layer_time(name: str) -> bool:
    """Whether a trace metric is a layer's seconds (not the wall)."""
    return name != "trace.run_s" and name.endswith(("_s", ".s"))


def share_entry(saved: Path, workload: str) -> Optional[dict]:
    """Each layer time's share of ``trace.run_s``: the median over the
    kept traced runs of one workload of the per-run share."""
    runs = traced_runs(saved, workload)
    if not runs:
        return None
    entry = {}
    for name in filter(is_layer_time, runs[0]):
        shares = [
            run[name]["value"] / run["trace.run_s"]["value"]
            for run in runs
            if run[name]["value"] is not None and run["trace.run_s"]["value"]
        ]
        entry[name] = round(statistics.median(shares), 4) if shares else None
    return entry


def trace_entry(saved: Path, workload: str) -> Optional[dict]:
    """The layer split of the kept traced runs of one workload: each
    count metric's common value, every other metric's median."""
    runs = traced_runs(saved, workload)
    if not runs:
        return None
    entry = {}
    for name, metric in runs[0].items():
        values = [run[name]["value"] for run in runs]
        if metric["unit"] == "count":
            if len(set(values)) > 1:
                raise SystemExit(
                    f"{workload}: {name} differs among the traced runs "
                    f"({values}); no entry recorded"
                )
            entry[name] = values[0]
        else:
            known = [value for value in values if value is not None]
            entry[name] = statistics.median(known) if known else None
    return entry


#: One ``benchmarks/rusage_run.py`` row: ``| LABEL | wall s | peak MB |``.
PAPER_SCALE_ROW = re.compile(
    r"^\|\s*(\S+)\s*\|\s*([\d.]+)\s*\|\s*([\d.]+)\s*\|\s*$"
)


def paper_scale_entry(saved: Path) -> Optional[dict]:
    """Wall seconds and peak RSS per label, from the rusage rows in the
    Markdown files of ``saved`` (None when there are none)."""
    rows = {}
    for path in sorted(saved.glob("*.md")):
        for line in path.read_text().splitlines():
            found = PAPER_SCALE_ROW.match(line)
            if found:
                rows[found.group(1)] = {
                    "wall_s": float(found.group(2)),
                    "peak_rss_mb": float(found.group(3)),
                }
    return rows or None


def tier1() -> Dict[str, float]:
    """Run the tier-1 suite; its test count and wall time."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-p", "no:cacheprovider"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    wall = time.monotonic() - started
    passed = re.search(r"(\d+) passed", done.stdout)
    if done.returncode != 0 or passed is None:
        raise SystemExit("tier-1 failed; no entry recorded")
    return {"tests": int(passed.group(1)), "wall_s": round(wall, 1)}


def git(*args: str) -> Optional[str]:
    """A git query about this checkout (None outside a git checkout)."""
    done = subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--label", required=True, help="the entry's name, as in the others"
    )
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tests", action="store_true")
    parser.add_argument(
        "--saved", type=Path, help="record kept results, run nothing"
    )
    args = parser.parse_args(argv)
    saved = args.saved
    if saved is None:
        saved = Path(tempfile.mkdtemp(prefix="record-e2e-"))
        print(f"perfbench results kept in {saved}", file=sys.stderr)
        for workload in WORKLOADS:
            for seed in range(1, args.runs + 1):
                perfbench(
                    workload, seed, False, saved / f"{workload}.{seed}.json"
                )
            if args.trace:
                for run in range(1, TRACE_RUNS + 1):
                    perfbench(
                        workload, 1, True,
                        saved / f"{workload}.trace.{run}.json",
                    )
    status = git("status", "--porcelain", "--", "src")
    entry = {
        "label": args.label,
        "commit": git("rev-parse", "--short", "HEAD"),
        "dirty": None if status is None else bool(status),
        "workloads": {w: workload_entry(saved, w) for w in WORKLOADS},
        "trace": {w: trace_entry(saved, w) for w in WORKLOADS},
        "shares": {w: share_entry(saved, w) for w in WORKLOADS},
        "paper_scale": paper_scale_entry(saved),
        "tier1": tier1() if args.tests else None,
    }
    record = json.loads(RECORD.read_text())
    record["entries"].append(entry)
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(entry, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
