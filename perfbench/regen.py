"""One figure regeneration in a fresh interpreter.

``run.py`` starts this script once per regeneration, so every timing
starts from a cold process, as a user's ``python -m repro`` does.  The
job arrives as one JSON argument::

    {"src": "<checkout>/src", "argv": ["fig3c", ...], "spawned": <t>,
     "mode": "setup" | "run", "trace": false, "cpus": [0]}

``spawned`` is the parent's ``time.monotonic()`` just before the start
(CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` spans the
interpreter start, the ``repro`` import and the parsing of the command.
In ``run`` mode the CLI runs in-process with its output captured; the
record gives the wall and CPU seconds of that call (worker processes
included), the peak RSS and the SHA-256 of the printed figure.  Every
time is recorded as measured (``*_wall_s``, ``wall_s``) and divided by
the CPU slowdown sampled over the same interval on ``cpus`` (see
``speed.py``).  The record is the last line of standard output.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from speed import Speedometer, reference_loop, slowdown_of

#: Reference-loop samples taken just after set-up (about 10 ms).
SETUP_SAMPLES = 16


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    import repro.cli

    if not os.path.abspath(repro.cli.__file__).startswith(
        os.path.join(job["src"], "")
    ):
        print(f"error: repro imported from {repro.cli.__file__}",
              file=sys.stderr)
        return 2
    build_parser = getattr(repro.cli, "_build_parser", None)
    if build_parser is not None:
        build_parser().parse_args(job["argv"])
    setup_wall = time.monotonic() - job["spawned"]
    # Too short for a sampler thread: the CPU's speed right after it.
    slowdown = slowdown_of(reference_loop() for _ in range(SETUP_SAMPLES))
    record = {"setup_s": setup_wall / slowdown, "setup_wall_s": setup_wall}
    if job["mode"] == "run":
        record.update(_regenerate(
            repro.cli.main, job["argv"], job["cpus"], job["trace"]
        ))
    print(json.dumps(record))
    return 0


def _regenerate(cli_main, argv, cpus, traced: bool) -> dict:
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    figure = io.StringIO()
    error = None
    cpu_before = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    with Speedometer(cpus) as meter:
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(figure):
                status = cli_main(argv)
        except SystemExit as exc:  # argparse rejected the command
            status, error = exc.code, f"SystemExit: {exc.code}"
        except Exception as exc:  # a failed regeneration is a result
            status, error = None, f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - started
    # The samplers' own CPU time is about the time their loops took.
    cpu_s = (
        _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        - cpu_before - sum(meter.samples)
    )
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    slowdown = meter.slowdown()
    record = {
        "run_s": wall_s / slowdown,
        "cpu_s": cpu_s / slowdown,
        "wall_s": wall_s,
        "cpu_wall_s": cpu_s,
        "slowdown": slowdown,
        "peak_rss_mb": peak_kib / 1024,
        "status": status,
        "error": error,
        "digest": hashlib.sha256(figure.getvalue().encode()).hexdigest(),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(wall_s)
    return record


if __name__ == "__main__":
    sys.exit(main())
