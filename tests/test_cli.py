"""Tests for the command-line interface."""

import pytest

from repro.cli import main

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

    def test_fig6_ignores_faults_with_a_note(self, capsys):
        code = main(["fig6", "--faults", "1", "--scale", "0.02"])
        assert code == 0
        captured = capsys.readouterr()
        assert "ignored" in captured.err
        assert "before sharing" in captured.out

