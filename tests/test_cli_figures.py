"""CLI coverage for the remaining figure subcommands (tiny scale)."""

import pytest

from repro.cli import main
from repro.config import Benchmark
from repro.core.columnar.backend import ENV_BACKEND, resolve_backend
from repro.core.experiments import testbed
from repro.core.experiments.consolidation import FootprintRequest
from repro.core.preload import CacheDeployment
from repro.exec.fingerprint import fingerprint_hex
from repro.workloads.base import build_workload

ARGS = ["--scale", "0.02", "--ticks", "1"]


class TestFigureCommands:
    def test_fig3b(self, capsys):
        assert main(["fig3b", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "vm2" in out  # the SPECj guest row

    def test_fig3c(self, capsys):
        assert main(["fig3c", "--scale", "0.1", "--ticks", "1"]) == 0
        assert "Class metadata" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "TPS saving" in out or "usage total" in out

    def test_fig5a(self, capsys):
        assert main(["fig5a", *ARGS]) == 0
        assert "shared-copy" in capsys.readouterr().out

    def test_fig5b(self, capsys):
        assert main(["fig5b", *ARGS]) == 0
        capsys.readouterr()

    def test_fig5c(self, capsys):
        assert main(["fig5c", "--scale", "0.1", "--ticks", "1"]) == 0
        capsys.readouterr()

    def test_fig8(self, capsys):
        assert main(["fig8", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "max acceptable VMs" in out

    def test_seed_changes_details(self, capsys):
        assert main(["fig3a", *ARGS, "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["fig3a", *ARGS, "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second  # deterministic per seed


class TestConsolidationBackend:
    """fig7/fig8 carry ``--backend`` into the footprint testbeds."""

    def test_fig7_backend_reaches_the_testbed(self, capsys, monkeypatch):
        seen = []
        accounting = testbed.owner_oriented_accounting

        def spy(dump, *args, backend=None, **kwargs):
            seen.append(backend)
            return accounting(dump, *args, backend=backend, **kwargs)

        monkeypatch.delenv(ENV_BACKEND, raising=False)
        monkeypatch.setattr(testbed, "owner_oriented_accounting", spy)
        # --jobs 1 keeps both footprint testbeds in-process, in the spy's
        # reach.
        argv = ["fig7", "--scale", "0.02", "--no-cache", "--jobs", "1"]

        assert main(argv + ["--backend", "dict"]) == 0
        via_dict = capsys.readouterr().out
        assert seen == ["dict", "dict"]

        seen.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == via_dict
        assert seen == [resolve_backend(None)] * 2

    def test_backend_enters_the_footprint_fingerprint(self):
        def key(backend):
            request = FootprintRequest(
                workload=build_workload(Benchmark.DAYTRADER),
                deployment=CacheDeployment.NONE,
                guest_memory_bytes=1 << 30,
                backend=backend,
            )
            return fingerprint_hex(*request.cache_parts())

        assert key("dict") != key("columnar-stdlib")
        # The CLI passes the resolved name, library callers the default
        # "columnar": one key for the one implementation.
        assert key("columnar") == key(resolve_backend("columnar"))
