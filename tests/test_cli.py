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
        out = capsys.readouterr().out
        assert "Collection report" in out
        assert "Validation report" in out

    def test_doctor_clean(self, capsys):
        code = main([
            "doctor", "daytrader4", "--scale", "0.02", "--ticks", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "doctor: daytrader4" in out
        assert "clean: all cross-layer invariants hold" in out

    def test_doctor_with_faults(self, capsys):
        code = main([
            "doctor", "daytrader4", "--faults", "1337:0.5",
            "--scale", "0.02", "--ticks", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Collection report" in out
        assert "Validation report" in out
        assert "breakdown under this dump" in out

    def test_fig6_ignores_faults_with_a_note(self, capsys):
        code = main(["fig6", "--faults", "1", "--scale", "0.02"])
        assert code == 0
        captured = capsys.readouterr()
        assert "ignored" in captured.err
        assert "before sharing" in captured.out


class TestFleetCli:
    ARGS = [
        "fleet", "--hosts", "12", "--vms", "40",
        "--chaos-plan", "77:0.3", "--horizon-minutes", "5",
    ]

    def test_fleet_text_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "fault(s) injected" in out
        assert "sharing savings" in out
        assert "placement fingerprint" in out

    def test_fleet_json_report(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hosts"] == 12
        assert report["violations"] == 0
        assert report["faults_injected"] > 0

    def test_fleet_bench_out_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_fleet.json"
        assert main(self.ARGS + ["--bench-out", str(out_file)]) == 0
        import json

        report = json.loads(out_file.read_text())
        assert report["placement_fingerprint"]

    def test_fleet_without_chaos(self, capsys):
        assert main(["fleet", "--hosts", "5", "--vms", "10"]) == 0
        out = capsys.readouterr().out
        assert "chaos plan off: 0 fault(s)" in out

    def test_fleet_bad_chaos_plan_is_clean_error(self, capsys):
        assert main(["fleet", "--chaos-plan", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err
