"""End-to-end benchmark: regenerate the paper's figures in a closed loop.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig3c_steady --seed 1 --seconds 30 --trace 0

One client regenerates one figure at a time; the next regeneration
starts only after the previous one finished.  Each regeneration runs in
a fresh interpreter (``regen.py``) that calls the public CLI in-process,
``repro.cli.main([...])``, with ``--no-cache`` and ``--seed``, and with no
``--backend``, ``--scan-engine`` or ``--scan-policy``: the benchmark
always measures the default production path.

``--seed`` picks the program seed from a fixed rotation whose printed
figures have recorded reference digests (``references.json``); a figure
that differs from its reference, a regeneration that raises or returns
nonzero, counts as failed.  ``--held-out`` draws from seeds kept out of
the rotation, to confirm a change on inputs it was not tuned on.

``--trace 0`` prints the end-to-end metrics (medians over the run),
with times rescaled to a reference CPU speed sampled alongside each
regeneration (``speed.py``) and also printed as measured;
``--trace 1`` prints the per-layer split from a traced regeneration
(see ``spans.py``) and the tracing overhead against an untraced one.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
REFERENCES = HERE / "references.json"

#: Program seeds the benchmark's ``--seed`` rotates through; the first is
#: the CLI default.  Every one has a recorded reference per workload.
PROGRAM_SEEDS = (
    20130421, 20130422, 20130423, 20130424,
    20130425, 20130426, 20130427, 20130428,
)
#: Recorded too, but never run while a change is developed.
HELD_OUT_SEEDS = (4242, 777001)

#: Fewest setup-only starts timed per run for ``setup_s`` (after one
#: untimed start that fills the bytecode cache).
SETUP_PROBES = 4

#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_DEADLINE_S = 170


def fig7_jobs() -> int:
    return min(2, os.cpu_count() or 1)


#: workload -> CLI arguments before ``--no-cache --seed N``.
WORKLOADS = {
    "fig3c_steady": ["fig3c"],
    "fig2_bigimage": ["fig2", "--scale", "0.5", "--ticks", "1"],
    "fig7_sweep": ["fig7", "--jobs", str(fig7_jobs())],
}

END_TO_END_UNITS = {
    "run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "experiments.build_s": "s",
    "guestos.boot_s": "s",
    "jvm.startup_s": "s",
    "jvm.tick_s": "s",
    "jvm.tick_calls": "count",
    "hash.calls": "count",
    "content.memo_hit_ratio": "ratio",
    "ksm.warmup_s": "s",
    "ksm.merges": "count",
    "ksm.merge_ratio": "ratio",
    "ksm.scan_s": "s",
    "ksm.pages_scanned": "count",
    "ksm.full_scans": "count",
    "ksm.us_per_page": "us",
    "ksm.volatile_skips": "count",
    "ksm.clear_unstable_s": "s",
    "ksm.unstable_cleared": "count",
    "dump.collect_s": "s",
    "accounting.s": "s",
    "exec.map_s": "s",
    "exec.parallel_eff": "ratio",
    "exec.retries": "count",
    "exec.pool_fallbacks": "count",
    "trace.run_s": "s",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Metrics the fig7 traced pass takes from the configured-jobs run: the
#: workers' spans never reach the parent, so the layer split comes from
#: an in-process (``--jobs 1``) pass instead.
EXEC_METRICS = (
    "exec.map_s", "exec.parallel_eff", "exec.retries", "exec.pool_fallbacks",
)


def cli_argv(workload: str, seed: int, jobs: Optional[int] = None) -> List[str]:
    argv = list(WORKLOADS[workload])
    if jobs is not None:
        argv[argv.index("--jobs") + 1] = str(jobs)
    return argv + ["--no-cache", "--seed", str(seed)]


def cpus_for(argv: List[str]) -> List[int]:
    """The CPUs a regeneration is pinned to: one per ``--jobs`` worker.

    Pinning keeps a one-process regeneration on the CPU its speed is
    sampled on (see ``speed.py``).
    """
    jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
    return sorted(os.sched_getaffinity(0))[:jobs]


def clean_env() -> Dict[str, str]:
    """The parent environment without any ``REPRO_*`` knob, with the
    bytecode cache kept inside the checkout's build directory."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORKDIR / "pycache")
    return env


def spawn(argv: List[str], mode: str = "run", trace: bool = False,
          deadline: Optional[float] = None) -> dict:
    """Run ``regen.py`` once; its record, or an ``error`` record.

    The child leads its own process group, so a child that overruns
    ``deadline`` (a ``time.monotonic()`` value) is killed with its
    workers."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    cpus = cpus_for(argv) if mode == "run" else cpus_for(argv)[:1]
    job = {
        "src": str(SRC), "argv": argv, "mode": mode, "trace": trace,
        "cpus": cpus, "spawned": time.monotonic(),
    }
    child = subprocess.Popen(
        [sys.executable, str(HERE / "regen.py"), json.dumps(job)],
        cwd=WORKDIR, env=clean_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    timeout = None
    if deadline is not None:
        timeout = max(1.0, deadline - time.monotonic())
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "argv": argv}
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"error": f"exit code {child.returncode}", "argv": argv}
    record = json.loads(lines[-1])
    record["argv"] = argv
    return record


def load_references() -> dict:
    """workload -> program seed -> figure digest ({} before recording)."""
    try:
        with open(REFERENCES) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def check(record: dict, workload: str, seed: int, references: dict) -> str:
    """``ok``, ``failed`` (raised, nonzero, wrong figure) or ``unchecked``."""
    if record.get("error") or record.get("status") != 0:
        return "failed"
    expected = references.get(workload, {}).get(str(seed))
    if expected is None:
        return "unchecked"
    return "ok" if record["digest"] == expected else "failed"


def closed_loop(argv: List[str], seconds: float, deadline: float) -> tuple:
    """Regenerate back to back until the run is ``seconds`` long.

    Another regeneration starts when its expected end lies nearer the
    ``seconds`` mark than the present moment does, so runs average
    ``seconds`` whatever one regeneration takes.  A setup probe runs
    before each regeneration (and more after the last, up to
    ``SETUP_PROBES``), so ``setup_s`` samples the whole run rather than
    one moment of it.
    """
    records, probes = [], []
    started = time.monotonic()
    while True:
        probes.append(spawn(argv, mode="setup", deadline=deadline))
        records.append(spawn(argv, deadline=deadline))
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(records) / 2 >= seconds or (
            time.monotonic() >= deadline
        ):
            break
    while len(probes) < SETUP_PROBES:
        probes.append(spawn(argv, mode="setup", deadline=deadline))
    return records, probes


def median_of(records: List[dict], key: str) -> Optional[float]:
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def environment(workload: str, seed: int) -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return (
        f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={numpy} jobs={fig7_jobs() if workload == 'fig7_sweep' else 1} "
        f"program_seed={seed}"
    )


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple:
    argv = cli_argv(workload, seed)
    spawn(argv, mode="setup", deadline=deadline)  # fills the bytecode cache
    records, probes = closed_loop(argv, seconds, deadline)
    metrics = {
        "run_s": median_of(records, "run_s"),
        "cpu_s": median_of(records, "cpu_s"),
        "setup_s": median_of(probes, "setup_s"),
        "peak_rss_mb": median_of(records, "peak_rss_mb"),
    }
    measured = {
        "wall": median_of(records, "wall_s"),
        "cpu": median_of(records, "cpu_wall_s"),
        "setup": median_of(probes, "setup_wall_s"),
    }
    return records, metrics, END_TO_END_UNITS, measured


def traced(workload: str, seed: int, deadline: float) -> tuple:
    argv = cli_argv(workload, seed)
    spawn(argv, mode="setup", deadline=deadline)  # fills the bytecode cache
    plain = spawn(argv, deadline=deadline)
    timed = spawn(argv, trace=True, deadline=deadline)
    records = [plain, timed]
    layers = dict(timed.get("layers", {}))
    # Layer self times are as measured, so their base is the raw wall.
    layers["trace.run_s"] = timed.get("wall_s")
    if workload == "fig7_sweep":
        serial = spawn(cli_argv(workload, seed, jobs=1), trace=True,
                       deadline=deadline)
        records.append(serial)
        exec_part = {name: layers.get(name) for name in EXEC_METRICS}
        layers = dict(serial.get("layers", {}))
        layers.update(exec_part)
        layers["trace.run_s"] = serial.get("wall_s")
    if "run_s" in plain and "run_s" in timed:
        layers["trace.overhead_frac"] = timed["run_s"] / plain["run_s"] - 1
    metrics = {name: layers.get(name) for name in PER_LAYER_UNITS}
    measured = {"wall": median_of(records, "wall_s")}
    return records, metrics, PER_LAYER_UNITS, measured


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out", action="store_true",
        help="draw the program seed from the held-out seeds",
    )
    args = parser.parse_args(argv)
    # Turn a SIGTERM into SystemExit, so spawn() still kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    seeds = HELD_OUT_SEEDS if args.held_out else PROGRAM_SEEDS
    seed = seeds[args.seed % len(seeds)]
    references = load_references()
    if args.trace:
        records, metrics, units, measured = traced(
            args.workload, seed, deadline
        )
    else:
        records, metrics, units, measured = end_to_end(
            args.workload, seed, args.seconds, deadline
        )
    if not any("run_s" in record for record in records):
        for record in records:
            print(f"error: {record.get('error')}", file=sys.stderr)
        return 1
    verdicts = [check(r, args.workload, seed, references) for r in records]
    failed = verdicts.count("failed")
    print(environment(args.workload, seed))
    for record, verdict in zip(records, verdicts):
        if verdict != "ok":
            print(f"{verdict}: {' '.join(record['argv'])} "
                  f"{record.get('error') or ''}".rstrip())
    samples = ", ".join(
        f"{r['wall_s']:.3f} s / {r['slowdown']:.3f}"
        for r in records if "wall_s" in r
    )
    print(f"regenerations: {len(records)} (wall / slowdown: {samples})")
    print("as measured (medians): " + ", ".join(
        f"{name} {value:.6g} s" for name, value in measured.items()
        if value is not None
    ))
    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:24} {shown:>12} {units[name]}")
    print(f"{'failed_frac':24} {failed / len(records):12.6g} share "
          f"({failed} of {len(records)}; check: "
          f"{'unchecked' if 'unchecked' in verdicts else 'digests'})")
    result = {
        "correct": all(v == "ok" for v in verdicts),
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
