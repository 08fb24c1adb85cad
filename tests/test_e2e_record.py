"""The layer shares of the end-to-end record and of its trend report.

``benchmarks/record_e2e.py`` keeps, per workload, each layer time's
share of ``trace.run_s`` (the median over the traced runs of the per-run
share), and ``benchmarks/check_perf_regression.py`` prints those shares
for the newest entry and the previous traced one, falling back to the
share of the medians for an entry recorded before shares were kept.
The record also keeps the paper-scale rows ``benchmarks/rusage_run.py``
writes, and the trend prints them against the previous entry's.
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


def test_paper_scale_rows_are_read_from_the_saved_markdown(
    scripts, tmp_path
):
    record_e2e, _ = scripts
    (tmp_path / "paper-scale.md").write_text(
        "### Paper-scale figures: wall time and peak RSS\n\n"
        "| figure | wall s | peak RSS MB |\n"
        "|---|---:|---:|\n"
        "| tables | 0.4 | 37.2 |\n"
        "| fig2 | 13.2 | 925.3 |\n"
    )
    (tmp_path / "fig2_bigimage.1.json").write_text("{}")  # not Markdown
    assert record_e2e.paper_scale_entry(tmp_path) == {
        "tables": {"wall_s": 0.4, "peak_rss_mb": 37.2},
        "fig2": {"wall_s": 13.2, "peak_rss_mb": 925.3},
    }
    empty = tmp_path / "empty"
    empty.mkdir()
    assert record_e2e.paper_scale_entry(empty) is None


def test_trend_prints_paper_scale_rows_against_the_previous_entry(scripts):
    _, check = scripts
    record = {"entries": [
        {"label": "old", "paper_scale": {
            "fig2": {"wall_s": 13.2, "peak_rss_mb": 925.0},
        }},
        {"label": "mid"},
        {"label": "new", "paper_scale": {
            "fig2": {"wall_s": 12.0, "peak_rss_mb": 740.0},
            "fig9": {"wall_s": 1.0, "peak_rss_mb": 50.0},
        }},
    ]}
    lines = check.layer_trend(record)
    fig2 = next(line for line in lines if line.split()[:1] == ["fig2"])
    assert fig2.split() == [
        "fig2", "13.2", "/", "925.0", "12.0", "/", "740.0", "0.800",
    ]
    fig9 = next(line for line in lines if line.split()[:1] == ["fig9"])
    assert fig9.split() == ["fig9", "-", "1.0", "/", "50.0", "-"]
    assert not any(
        "paper scale" in line
        for line in check.layer_trend({"entries": record["entries"][:2]})
    )
