"""CLI coverage for the remaining figure subcommands (tiny scale)."""

from repro.cli import main

from tests.test_golden_figures import golden

ARGS = ["--scale", "0.02", "--ticks", "1"]


class TestFigureCommands:
    def test_fig3b(self, capsys):
        assert main(["fig3b", *ARGS]) == 0
        assert capsys.readouterr().out == golden("fig3b")

    def test_fig3c(self, capsys):
        assert main(["fig3c", "--scale", "0.1", "--ticks", "1"]) == 0
        assert "Class metadata" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4", *ARGS]) == 0
        assert capsys.readouterr().out == golden("fig4")

    def test_fig5a(self, capsys):
        assert main(["fig5a", *ARGS]) == 0
        assert capsys.readouterr().out == golden("fig5a")

    def test_fig5b(self, capsys):
        assert main(["fig5b", *ARGS]) == 0
        assert capsys.readouterr().out == golden("fig5b")

    def test_fig5c(self, capsys):
        assert main(["fig5c", "--scale", "0.1", "--ticks", "1"]) == 0
        assert capsys.readouterr().out == golden("fig5c")

    def test_fig8(self, capsys):
        assert main(["fig8", "--scale", "0.02"]) == 0
        assert capsys.readouterr().out == golden("fig8")

    def test_seed_changes_details(self, capsys):
        assert main(["fig3a", *ARGS, "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["fig3a", *ARGS, "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second  # deterministic per seed
