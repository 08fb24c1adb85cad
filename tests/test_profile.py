"""The per-phase profiler and its CLI surface."""

import json

import pytest

from repro.perf.profile import PhaseProfiler


def test_phase_accumulates_wall_cpu_and_count():
    profiler = PhaseProfiler()
    for _ in range(3):
        with profiler.phase("scan"):
            sum(range(2000))
    sample = profiler.phases["scan"]
    assert sample.count == 3
    assert sample.wall_s > 0
    assert sample.cpu_s >= 0
    report = profiler.as_dict()
    assert report["phases"]["scan"]["count"] == 3
    assert report["total_wall_s"] == pytest.approx(sample.wall_s)


def test_phase_records_even_on_exception():
    profiler = PhaseProfiler()
    with pytest.raises(RuntimeError):
        with profiler.phase("dump"):
            raise RuntimeError("boom")
    assert profiler.phases["dump"].count == 1


def test_render_orders_standard_phases_first():
    profiler = PhaseProfiler()
    with profiler.phase("zcustom"):
        pass
    with profiler.phase("scan"):
        pass
    with profiler.phase("build"):
        pass
    lines = profiler.render("title").splitlines()
    names = [line.split()[0] for line in lines[3:-1]]
    assert names == ["build", "scan", "zcustom"]


def test_scenario_run_fills_standard_phases(tmp_path):
    from repro.config import ScenarioSpec
    from repro.core.experiments.scenarios import run

    profiler = PhaseProfiler()
    run(
        ScenarioSpec("daytrader4", scale=0.02, measurement_ticks=2),
        profiler=profiler,
    )
    for phase in ("build", "warmup", "workload", "scan", "dump",
                  "accounting"):
        assert phase in profiler.phases, phase
        assert profiler.phases[phase].wall_s > 0
    # ticks drive workload/scan once per tick
    assert profiler.phases["workload"].count == 2
    path = tmp_path / "profile.json"
    profiler.write_json(str(path))
    report = json.loads(path.read_text())
    assert report["total_wall_s"] > 0
    assert set(report["phases"]) >= {"build", "scan", "dump"}


def test_cli_profile_subcommand(capsys):
    from repro.cli import main

    rc = main([
        "profile", "daytrader4", "--scale", "0.02", "--ticks", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "phase profile: daytrader4" in out
    assert "scan" in out
    assert "TOTAL" in out


def test_cli_profile_flag_writes_json(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "prof.json"
    rc = main([
        "scenario", "daytrader4", "--scale", "0.02", "--ticks", "2",
        "--profile", str(path), "--no-cache",
    ])
    assert rc == 0
    report = json.loads(path.read_text())
    assert "scan" in report["phases"]
    assert "profile JSON written" in capsys.readouterr().out
