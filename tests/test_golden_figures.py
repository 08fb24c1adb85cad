"""Golden figure output: the printed figure must not change by a byte.

``tests/golden/fig3c.txt`` is the standard output of::

    python -m repro fig3c --no-cache --seed 20130421

recorded before the batch engine and the columnar backend became the
defaults.  The default path and the opt-in reference path (the per-page
``object`` scan engine with the ``dict`` backend) must both still print
it exactly.  Its digest is also the end-to-end benchmark's recorded
reference for that seed, so the two checks cannot drift apart.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.columnar.backend import ENV_BACKEND

GOLDEN = Path(__file__).parent / "golden"
BENCH_REFERENCES = (
    Path(__file__).parent.parent / "perfbench" / "references.json"
)
FIG3C_ARGV = ["fig3c", "--no-cache", "--seed", "20130421"]


@pytest.mark.parametrize(
    "extra",
    [[], ["--scan-engine", "object", "--backend", "dict"]],
    ids=["default", "object-dict"],
)
def test_fig3c_matches_golden(extra, capsys, monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    assert main(FIG3C_ARGV + extra) == 0
    printed = capsys.readouterr().out
    assert printed == (GOLDEN / "fig3c.txt").read_text()


def test_fig3c_golden_is_the_benchmark_reference():
    digest = hashlib.sha256((GOLDEN / "fig3c.txt").read_bytes()).hexdigest()
    references = json.loads(BENCH_REFERENCES.read_text())
    assert digest == references["fig3c_steady"]["20130421"]
