"""Run one command and report its wall time and peak resident memory.

Usage::

    python benchmarks/rusage_run.py LABEL -- COMMAND [ARGS...]

The command inherits stdin, stdout and stderr, so redirections around
this wrapper apply to it unchanged, and the wrapper exits with the
command's status.  It then appends one Markdown table row,
``| LABEL | wall s | peak RSS MB |``, to the file named by
``$GITHUB_STEP_SUMMARY``, or writes the row to stderr when that variable
is unset.  Peak RSS is ``getrusage(RUSAGE_CHILDREN).ru_maxrss`` (KiB on
Linux) over 1024, the largest resident set of the command or any
process it waited for, so no GNU ``time`` binary is needed.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    label, command = argv[0], argv[2:]
    started = time.perf_counter()
    status = subprocess.call(command)
    wall_s = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    row = f"| {label} | {wall_s:.1f} | {peak_mb:.1f} |\n"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as handle:
            handle.write(row)
    else:
        sys.stderr.write(row)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
