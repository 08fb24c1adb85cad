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
through :func:`golden`.  ``pressure.json`` and ``hugepages.json`` hold
the canonical JSON (:func:`report_json`) of the pressure family and the
huge-page curve runs in ``tests/test_experiments_pressure.py`` and
``tests/test_hugepages.py``, read through :func:`golden_report`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

from tests.oracle import use_oracle

GOLDEN = Path(__file__).parent / "golden"
BENCH_REFERENCES = (
    Path(__file__).parent.parent / "perfbench" / "references.json"
)
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
