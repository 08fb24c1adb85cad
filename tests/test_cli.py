"""Tests for the command-line interface."""

import argparse
from types import SimpleNamespace

import pytest

import repro.cli
from repro.cli import main
from repro.config import ScenarioSpec
from repro.core.experiments import hugepages, powervm, pressure, scenarios
from repro.core.experiments.consolidation import run_daytrader_consolidation
from repro.exec.cache import ENV_CACHE_DIR, ResultCache, reset_default_cache
from repro.exec.fingerprint import canonical
from repro.perf import PhaseProfiler

from tests.test_golden_figures import golden


class TestCli:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "530 / 120 MB" in out

    def test_fig3a_small(self, capsys):
        assert main(["fig3a", "--scale", "0.02", "--ticks", "1"]) == 0
        assert capsys.readouterr().out == golden("fig3a")

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--scale", "0.02", "--ticks", "1"]) == 0
        assert capsys.readouterr().out == golden("fig2")

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--scale", "0.02"]) == 0
        assert capsys.readouterr().out == golden("fig6")

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--scale", "0.02"]) == 0
        assert capsys.readouterr().out == golden("fig7")

    def test_scenario_with_deployment(self, capsys):
        code = main([
            "scenario", "tuscany3", "--deployment", "shared-copy",
            "--scale", "0.1", "--ticks", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tuscany3" in out

    def test_cache_stats_with_cache_dir(self, tmp_path, capsys):
        argv = [
            "fig3c", "--scale", "0.02", "--ticks", "1",
            "--cache-dir", str(tmp_path), "--cache-stats",
        ]
        assert main(argv) == 0
        assert "0 hits, 1 misses, 1 stores" in capsys.readouterr().out
        assert main(argv) == 0
        assert "1 hits, 0 misses, 0 stores" in capsys.readouterr().out

    def test_settings_the_testbed_ignores_share_an_entry(
        self, tmp_path, capsys
    ):
        """A block size under THP "never" changes no testbed, so the
        run without ``--hugepages`` hits the entry of the run with it."""
        argv = [
            "fig3c", "--scale", "0.02", "--ticks", "1",
            "--cache-dir", str(tmp_path), "--cache-stats",
        ]
        assert main(argv + ["--hugepages", "64"]) == 0
        assert "0 hits, 1 misses, 1 stores" in capsys.readouterr().out
        assert main(argv) == 0
        assert "1 hits, 0 misses, 0 stores" in capsys.readouterr().out
        assert ResultCache(tmp_path).entry_count() == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestFaultsCli:
    def test_bad_fault_spec_is_a_clean_error(self, capsys):
        assert main(["fig2", "--faults", "bogus"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "bogus" in captured.err

    def test_fig2_with_faults_prints_reports(self, capsys):
        code = main([
            "fig2", "--faults", "1337",
            "--scale", "0.02", "--ticks", "1",
        ])
        assert code == 0
        assert capsys.readouterr().out == golden("fig2_faults")

    def test_doctor_clean(self, capsys):
        code = main([
            "doctor", "daytrader4", "--scale", "0.02", "--ticks", "1",
        ])
        assert code == 0
        assert capsys.readouterr().out == golden("doctor_clean")

    def test_doctor_with_faults(self, capsys):
        code = main([
            "doctor", "daytrader4", "--faults", "1337:0.5",
            "--scale", "0.02", "--ticks", "1",
        ])
        assert code == 0
        assert capsys.readouterr().out == golden("doctor_faults")

    def test_scenario_with_faults_prints_reports(self, capsys):
        code = main([
            "scenario", "daytrader4", "--faults", "1337",
            "--scale", "0.02", "--ticks", "1", "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # fig2 measures the same spec, so it printed the same reports.
        reports = golden("fig2_faults")
        reports = reports[reports.index("Collection report"):]
        assert "Validation report" in reports
        assert out[out.index("Collection report"):] == reports

    def test_fig6_rejects_faults(self, capsys):
        """fig6 models the PowerVM hosts without a crash dump."""
        with pytest.raises(SystemExit) as exited:
            main(["fig6", "--faults", "1", "--scale", "0.02"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --faults" in capsys.readouterr().err


def _subcommands():
    """subcommand -> its parser, as ``repro`` builds them."""
    (commands,) = [
        action for action in repro.cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices


def _accepted_options():
    """Every (subcommand, option) pair the parser accepts."""
    return [
        (command, action.option_strings[-1])
        for command, parser in _subcommands().items()
        for action in parser._actions
        if action.option_strings
        and not isinstance(action, argparse._HelpAction)
    ]


#: A non-default value of each option; ``{out}`` is the directory the
#: guard watches for written files.
OPTION_VALUES = {
    "--scale": ["0.5"],
    "--ticks": ["9"],
    "--seed": ["7"],
    "--scan-policy": ["incremental"],
    "--tiering": ["hints"],
    "--thp-policy": ["always"],
    "--hugepages": ["64"],
    "--faults": ["1337"],
    "--profile": ["{out}/profile.json"],
    "--jobs": ["3"],
    "--no-cache": [],
    "--cache-dir": ["{out}/cache"],
    "--cache-stats": [],
    "--deployment": ["shared-copy"],
    "--ram-fraction": ["0.5"],
    "--json": [],
    "--bench-out": ["{out}/report.json"],
    "--wipe": [],
}


@pytest.fixture(scope="module")
def canned_results():
    """One real result per entry point, measured once at a tiny scale,
    for the guard's stubs to hand back."""
    tiny = ScenarioSpec("daytrader4", scale=0.02, measurement_ticks=1)
    return {
        "run": scenarios.run(tiny),
        "measure": scenarios.testbed_for(tiny).measure(),
        "powervm": powervm.run_powervm_experiment(scale=0.02),
        "consolidation": run_daytrader_consolidation(
            footprint_scale=0.02, jobs=1, cache=None
        ),
        "pressure": pressure.run_pressure_family(
            scale=0.02, measurement_ticks=1, jobs=1, cache=None
        ),
        "hugepages": hugepages.run_hugepage_tradeoff(
            scale=0.02, measurement_ticks=1, block_pages=64,
            scenarios=("daytrader4",), jobs=1, cache=None,
        ),
    }


def _received(value):
    """What a stub received, comparable across two runs."""
    if isinstance(value, ResultCache):
        return ("cache", str(value.root))
    if isinstance(value, PhaseProfiler):
        return "profiler"
    if isinstance(value, dict):
        return {key: _received(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_received(item) for item in value)
    return canonical(value)


class TestEveryOptionIsRead:
    """Guard against silent options: setting any option a subcommand
    accepts must change what the command hands its entry points, or
    what it prints (standard output) or writes.

    The entry points are recording stubs that return real results, so
    options that act after the run (``--cache-stats``, ``--json``,
    ``--bench-out``, the profile JSON) still act.  A note on standard
    error that an option is ignored does not count as reading it.
    """

    @pytest.fixture
    def stubbed(self, monkeypatch, canned_results, tmp_path):
        calls = []

        def stub(name, result):
            def entry_point(*args, **kwargs):
                calls.append((name, _received(args), _received(kwargs)))
                return result
            return entry_point

        for module, name, result in [
            (repro.cli, "run", canned_results["run"]),
            (repro.cli, "run_cached", canned_results["run"]),
            (repro.cli, "run_powervm_experiment", canned_results["powervm"]),
            (repro.cli, "run_daytrader_consolidation",
             canned_results["consolidation"]),
            (repro.cli, "run_specj_consolidation",
             canned_results["consolidation"]),
            (pressure, "run_pressure_family", canned_results["pressure"]),
            (hugepages, "run_hugepage_tradeoff",
             canned_results["hugepages"]),
        ]:
            monkeypatch.setattr(module, name, stub(name, result))
        testbed = SimpleNamespace(
            measure=stub("measure", canned_results["measure"])
        )
        monkeypatch.setattr(
            repro.cli, "testbed_for", stub("testbed_for", testbed)
        )
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "default-cache"))
        out = tmp_path / "out"
        out.mkdir()
        yield calls, out
        reset_default_cache()

    @staticmethod
    def _observe(argv, calls, out, capsys):
        """What one ``main(argv)`` call did, as a comparable value."""
        calls.clear()
        reset_default_cache()
        status = main(argv)
        written = sorted(
            (str(path.relative_to(out)), path.read_bytes())
            for path in out.rglob("*") if path.is_file()
        )
        return status, list(calls), capsys.readouterr().out, written

    @pytest.mark.parametrize("command, option", [
        pytest.param(command, option, id=f"{command}{option}")
        for command, option in _accepted_options()
    ])
    def test_option_changes_what_the_command_does(
        self, command, option, stubbed, capsys
    ):
        calls, out = stubbed
        parser = _subcommands()[command]
        base = [command]
        if any(action.dest == "name" for action in parser._actions):
            base.append("daytrader4")
        value = [part.format(out=out) for part in OPTION_VALUES[option]]
        argv = base + [option, *value]
        assert parser.parse_args(argv[1:]) != parser.parse_args(base[1:])

        default = self._observe(base, calls, out, capsys)
        changed = self._observe(argv, calls, out, capsys)
        assert changed != default, f"{command} ignores {option}"
        if option == "--cache-stats":
            # The report is on the cache the command used: a command
            # that hands no entry point a cache has none to report on.
            assert any(
                kwargs.get("cache") for _, _, kwargs in default[1]
            ), f"{command} reports on a cache it never uses"
