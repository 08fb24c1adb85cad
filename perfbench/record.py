"""Record the reference digest of every workload's printed figure.

Usage (from the root of a checkout)::

    python3 perfbench/record.py [--workload NAME ...]

Regenerates each workload once per program seed (the rotation and the
held-out seeds in ``run.py``) and writes the SHA-256 of each printed
figure to ``references.json``.  Run it only at a commit whose figures are
known to be right: the benchmark counts every later mismatch as failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import (
    HELD_OUT_SEEDS,
    PROGRAM_SEEDS,
    REFERENCES,
    WORKLOADS,
    cli_argv,
    load_references,
    spawn,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="record only these workloads (default: all)",
    )
    args = parser.parse_args()
    references = load_references()
    for workload in args.workload or sorted(WORKLOADS):
        digests = references.setdefault(workload, {})
        for seed in PROGRAM_SEEDS + HELD_OUT_SEEDS:
            record = spawn(cli_argv(workload, seed))
            if record.get("error") or record.get("status") != 0:
                print(f"error: {workload} seed {seed}: {record}",
                      file=sys.stderr)
                return 1
            digests[str(seed)] = record["digest"]
            print(f"{workload} {seed} {record['digest']} "
                  f"{record['run_s']:.2f} s", flush=True)
    with open(REFERENCES, "w") as handle:
        json.dump(references, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
