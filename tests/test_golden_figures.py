"""Golden figure output: the printed figure must not change by a byte.

Each ``tests/golden/<fig>.txt`` is the standard output of one figure
command.  ``fig3c.txt`` is the output of::

    python -m repro fig3c --no-cache --seed 20130421

and both the production path and the oracle of :mod:`tests.oracle`
(the per-page scanner with the per-frame dict accounting) must still
print it exactly.  Its digest is also the end-to-end benchmark's
recorded reference for that seed, so the two checks cannot drift
apart.  The other files hold the small-scale runs of
``tests/test_cli.py`` and ``tests/test_cli_figures.py`` (``--scale 0.02
--ticks 1``; fig5c at ``--scale 0.1``), which compare against them
through :func:`golden`; ``fig2_faults.txt`` and ``doctor_faults.txt``
pin the degraded-mode output of the two faulted runs there (``fig2
--faults 1337`` and ``doctor daytrader4 --faults 1337:0.5``, same
scale).  ``pressure.json`` and ``hugepages.json`` hold
the canonical JSON (:func:`report_json`) of the pressure family and the
huge-page curve runs in ``tests/test_experiments_pressure.py`` and
``tests/test_hugepages.py``, read through :func:`golden_report`.

``benchmarks/golden/<fig>.txt`` holds the paper-scale outputs (default
seed) of the eleven figure commands, each given only the options it
takes: ``python -m repro <fig> --scale 1.0 --ticks 6 --cache-dir DIR``
for fig2–fig5c, ``--scale 1.0 --cache-dir DIR`` for fig7 and fig8, and
``--scale 1.0`` for fig6 (EXPERIMENTS.md, "Paper-scale golden
outputs").  They take minutes, so CI's ``paper-scale-golden`` job
regenerates and diffs them; here one fast test reads their headline
values and checks that EXPERIMENTS.md states the same numbers.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.cli import main

from tests.oracle import use_oracle

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
BENCH_REFERENCES = ROOT / "perfbench" / "references.json"
PAPER_SCALE = ROOT / "benchmarks" / "golden"
FIG3C_ARGV = ["fig3c", "--no-cache", "--seed", "20130421"]


def golden(figure: str) -> str:
    """The recorded standard output of one figure command."""
    return (GOLDEN / f"{figure}.txt").read_text()


def golden_report(name: str) -> str:
    """The recorded canonical JSON of one experiment report."""
    return (GOLDEN / f"{name}.json").read_text()


def report_json(report: dict) -> str:
    """A ``to_dict()`` report as the ``.json`` golden files hold it."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize(
    "oracle", [False, True], ids=["default", "object-dict"]
)
def test_fig3c_matches_golden(oracle, capsys, monkeypatch):
    if oracle:
        use_oracle(monkeypatch)
    assert main(FIG3C_ARGV) == 0
    printed = capsys.readouterr().out
    assert printed == golden("fig3c")


def test_fig3c_golden_is_the_benchmark_reference():
    digest = hashlib.sha256((GOLDEN / "fig3c.txt").read_bytes()).hexdigest()
    references = json.loads(BENCH_REFERENCES.read_text())
    assert digest == references["fig3c_steady"]["20130421"]


def _paper_scale(figure: str) -> str:
    return (PAPER_SCALE / f"{figure}.txt").read_text()


def _total_mb(figure: str) -> float:
    """The TOTAL usage row of a VM-breakdown figure."""
    match = re.search(r"^TOTAL\s+([\d.]+)", _paper_scale(figure), re.M)
    return float(match.group(1))


def _max_vms(figure: str) -> str:
    """``"<default> → <preloaded>"`` max acceptable VMs of a sweep."""
    found = dict(re.findall(
        r"^\s+(default|preloaded): .*max acceptable VMs=(\d+)$",
        _paper_scale(figure),
        re.M,
    ))
    return f"{found['default']} → {found['preloaded']}"


def _class_metadata(figure: str):
    """(shared, total) MB of class metadata on each non-primary JVM."""
    lines = _paper_scale(figure).splitlines()
    header = re.split(r"\s{2,}", lines[2].strip())
    column = header.index("Class metadata") - 1
    cells = set()
    for line in lines[4:]:
        if not line.startswith("vm"):
            break
        usage, shared = re.findall(r"([\d.]+) \(\s*([\d.]+)\)", line)[
            column
        ]
        if float(shared) > 0:  # the owner JVM shares nothing
            cells.add((shared, usage))
    assert len(cells) == 1, cells
    return cells.pop()


def test_paper_scale_headlines_match_experiments_md():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    before, after = _total_mb("fig2"), _total_mb("fig4")
    shared, total = _class_metadata("fig5a")
    percent = f"{100 * float(shared) / float(total):.1f} %"
    rows = [
        f"| Figs. 2 → 4, TOTAL of the four guests | "
        f"{before:.1f} → {after:.1f} MB |",
        f"| Fig. 5(a), each non-primary JVM | {shared} of {total} MB "
        f"class metadata shared ({percent}) |",
        f"| Fig. 7, max acceptable VMs | {_max_vms('fig7')} VMs |",
        f"| Fig. 8, max VMs meeting the SLA | {_max_vms('fig8')} VMs |",
    ]
    for row in rows:
        assert row in experiments, row
    # The per-figure tables quote the same runs, rounded.
    rounded = lambda mb: f"{mb:,.0f}".replace(",", " ")
    assert f"{rounded(before)} → {rounded(after)} MB" in experiments
    assert f"**{percent}**" in experiments
