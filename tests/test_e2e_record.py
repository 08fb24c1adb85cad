"""The layer shares of the end-to-end record and of its trend report.

``benchmarks/record_e2e.py`` keeps, per workload, each layer time's
share of ``trace.run_s`` (the median over the traced runs of the per-run
share), and ``benchmarks/check_perf_regression.py`` prints those shares
for the newest entry and the previous traced one, falling back to the
share of the medians for an entry recorded before shares were kept.
"""

import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def scripts(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import check_perf_regression
    import record_e2e

    return record_e2e, check_perf_regression


def traced(run_s, scan_s, calls):
    return {"metrics": {
        "trace.run_s": {"value": run_s, "unit": "s"},
        "ksm.scan_s": {"value": scan_s, "unit": "s"},
        "accounting.s": {"value": None, "unit": "s"},
        "hash.calls": {"value": calls, "unit": "count"},
    }}


def test_shares_are_medians_of_the_per_run_shares(scripts, tmp_path):
    record_e2e, _ = scripts
    for n, (run_s, scan_s) in enumerate([(2.0, 1.0), (4.0, 1.0), (1.0, 0.6)]):
        path = tmp_path / f"fig3c_steady.trace.{n + 1}.json"
        path.write_text(json.dumps(traced(run_s, scan_s, 7)))
    shares = record_e2e.share_entry(tmp_path, "fig3c_steady")
    # Per run 0.5, 0.25 and 0.6: the median share, not the share of
    # the medians (1.0 / 2.0).
    assert shares == {"ksm.scan_s": 0.5, "accounting.s": None}
    assert record_e2e.share_entry(tmp_path, "fig7_sweep") is None


def test_trend_prints_the_shares_of_both_entries(scripts):
    _, check = scripts
    trace = {"trace.run_s": 4.0, "ksm.scan_s": 1.0, "hash.calls": 9}
    record = {"entries": [
        {"label": "old", "trace": {"w": trace}},
        {
            "label": "new",
            "trace": {"w": dict(trace, **{"ksm.scan_s": 1.5})},
            "shares": {"w": {"ksm.scan_s": 0.3}},
        },
    ]}
    lines = check.layer_trend(record)
    row = next(line for line in lines if "%" in line)
    # The old entry has no shares: 1.0 / 4.0 of its medians.
    assert row.split() == ["ksm.scan_s", "25.0", "%", "30.0", "%", "+5.0"]
