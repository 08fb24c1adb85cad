"""The public API surface: exports resolve, are documented, and work."""

import inspect

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "9.0.0"

    def test_mem_exports_no_frame_object(self):
        """Since 4.0.0 a host frame is a row of HostPhysicalMemory's
        columns, so repro.mem exports no per-frame class."""
        import repro.mem

        exported = {
            name
            for name in repro.mem.__all__
            if inspect.isclass(getattr(repro.mem, name))
        }
        assert exported == {
            "Chunk", "HostPhysicalMemory", "PageTable", "Region",
        }

    def test_public_callables_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_key_entry_points_present(self):
        assert callable(repro.run)
        assert callable(repro.run_grid)
        assert callable(repro.run_powervm_experiment)
        assert callable(repro.run_daytrader_consolidation)
        assert callable(repro.run_specj_consolidation)
        assert callable(repro.owner_oriented_accounting)
        assert callable(repro.build_cache_for_image)

    def test_modules_documented(self):
        import repro.core
        import repro.guestos
        import repro.hypervisor
        import repro.jvm
        import repro.ksm
        import repro.mem
        import repro.perf
        import repro.sim
        import repro.workloads

        for module in (
            repro, repro.core, repro.guestos, repro.hypervisor, repro.jvm,
            repro.ksm, repro.mem, repro.perf, repro.sim, repro.workloads,
        ):
            assert module.__doc__


class TestMinimalFlow:
    def test_readme_snippet_works(self):
        """The README quickstart must actually run."""
        from repro import (
            CacheDeployment,
            MemoryCategory,
            ScenarioSpec,
            run,
        )

        result = run(
            ScenarioSpec(
                "daytrader4", CacheDeployment.SHARED_COPY, scale=0.02,
                measurement_ticks=1,
            )
        )
        row = result.java_breakdown.non_primary_rows()[0]
        assert row.shared_fraction(MemoryCategory.CLASS_METADATA) > 0.5
