"""The unified ScenarioSpec API and its deprecation shims.

One frozen value object — :class:`repro.config.ScenarioSpec` — now
describes every scenario run; ``run_scenario`` / ``run_scenario_request``
/ ``run_scenario_cached`` are deprecation shims over ``run`` /
``run_cached``.  The contract tested here: shims warn but produce
*identical* results, legacy-representable specs fingerprint exactly like
the historical :class:`ScenarioRequest` (so pre-existing cache entries
keep hitting), and only genuinely new configurations (huge pages on)
fingerprint under the new tag.
"""

import argparse
import dataclasses
import warnings

import pytest

from repro.config import (
    HugePageSettings,
    KsmSettings,
    ScenarioSpec,
    TieringSettings,
)
from repro.core.columnar.backend import ENV_BACKEND, resolve_backend
from repro.core.experiments.scenarios import (
    ScenarioRequest,
    run,
    run_cached,
    run_scenario,
    run_scenario_cached,
    run_scenario_request,
)
from repro.core.preload import CacheDeployment
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import fingerprint_hex

KWARGS = dict(scale=0.02, measurement_ticks=2, seed=20130421)


class TestFingerprintCompatibility:
    REQUESTS = [
        ScenarioRequest("daytrader4", **KWARGS),
        ScenarioRequest(
            "mixed3",
            deployment=CacheDeployment.SHARED_COPY,
            scan_policy="hybrid",
            **KWARGS,
        ),
        ScenarioRequest(
            "tuscany3", scan_engine="batch", tiering="combined", **KWARGS
        ),
        ScenarioRequest("daytrader4", backend="columnar-stdlib", **KWARGS),
    ]

    @pytest.mark.parametrize(
        "request_", REQUESTS, ids=[r.scenario for r in REQUESTS]
    )
    def test_legacy_requests_fingerprint_unchanged(self, request_):
        """to_spec() emits the exact historical cache parts."""
        legacy = fingerprint_hex(*request_.cache_parts())
        assert request_.to_spec().to_fingerprint() == legacy

    def test_hugepage_specs_fingerprint_under_new_tag(self):
        spec = ScenarioSpec(
            "daytrader4",
            hugepages=HugePageSettings(policy="always", block_pages=16),
            **KWARGS,
        )
        assert spec.cache_parts()[0] == "scenario-spec"
        baseline = ScenarioSpec("daytrader4", **KWARGS)
        assert baseline.cache_parts()[0] == "scenario-run"
        assert spec.to_fingerprint() != baseline.to_fingerprint()

    def test_jobs_never_reaches_the_fingerprint(self):
        spec = ScenarioSpec(
            "daytrader4",
            hugepages=HugePageSettings(policy="always"),
            **KWARGS,
        )
        assert spec.to_fingerprint() == dataclasses.replace(
            spec, jobs=7
        ).to_fingerprint()
        legacy = ScenarioSpec("daytrader4", **KWARGS)
        assert legacy.to_fingerprint() == dataclasses.replace(
            legacy, jobs=7
        ).to_fingerprint()


class TestShims:
    def test_run_scenario_warns_and_matches_run(self):
        with pytest.warns(DeprecationWarning):
            legacy = run_scenario("daytrader4", **KWARGS)
        modern = run(ScenarioSpec("daytrader4", **KWARGS))
        assert legacy.ksm_stats == modern.ksm_stats
        assert legacy.vm_breakdown.rows == modern.vm_breakdown.rows
        assert legacy.java_breakdown.rows == modern.java_breakdown.rows
        assert legacy.accounting == modern.accounting

    def test_run_scenario_request_warns_and_matches_run(self):
        request = ScenarioRequest("daytrader4", scan_policy="hybrid", **KWARGS)
        with pytest.warns(DeprecationWarning):
            legacy = run_scenario_request(request)
        modern = run(request.to_spec())
        assert legacy.ksm_stats == modern.ksm_stats
        assert legacy.accounting == modern.accounting

    def test_cached_shim_and_run_cached_share_entries(self, tmp_path):
        """A result cached through the legacy shim hits for the spec."""
        cache = ResultCache(root=tmp_path)
        request = ScenarioRequest("daytrader4", **KWARGS)
        with pytest.warns(DeprecationWarning):
            first = run_scenario_cached(request, cache=cache)
        key = cache.key(*request.to_spec().cache_parts())
        cached, hit = cache.get(key)
        assert hit
        assert cached.ksm_stats == first.ksm_stats
        second = run_cached(request.to_spec(), cache=cache)
        assert second.ksm_stats == first.ksm_stats


class TestFromCliArgs:
    def _namespace(self, **overrides):
        values = dict(
            scale=0.02,
            ticks=2,
            seed=7,
            scan_policy="hybrid",
            scan_engine="batch",
            tiering="compress",
            backend=None,
            faults=None,
            jobs=3,
            thp_policy="khugepaged",
            hugepages=64,
            deployment="shared-copy",
        )
        values.update(overrides)
        return argparse.Namespace(**values)

    def test_round_trip(self):
        spec = ScenarioSpec.from_cli_args(
            self._namespace(), scenario="mixed3"
        )
        assert spec.scenario == "mixed3"
        assert spec.deployment is CacheDeployment.SHARED_COPY
        assert spec.scale == 0.02
        assert spec.measurement_ticks == 2
        assert spec.seed == 7
        assert spec.ksm.scan_policy == "hybrid"
        assert spec.ksm.scan_engine == "batch"
        assert spec.tiering.mode == "compress"
        assert spec.hugepages == HugePageSettings(
            policy="khugepaged", block_pages=64
        )
        assert spec.backend == resolve_backend("columnar")
        assert spec.jobs == 3

    @pytest.mark.parametrize("thp_policy", ["never", "khugepaged"])
    def test_default_backend_has_one_fingerprint(
        self, monkeypatch, thp_policy
    ):
        """The CLI stores the resolved default backend, a programmatic
        spec the name "columnar"; both are one cache key."""
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        namespace = self._namespace(
            thp_policy=thp_policy, tiering=None, deployment=None
        )
        from_cli = ScenarioSpec.from_cli_args(namespace, scenario="mixed3")
        written = dataclasses.replace(from_cli, backend="columnar")
        assert from_cli.backend != written.backend
        assert from_cli.to_fingerprint() == written.to_fingerprint()

    def test_faults_parsed_from_spec_string(self):
        spec = ScenarioSpec.from_cli_args(
            self._namespace(faults="1337:0.25"), scenario="daytrader4"
        )
        assert spec.faults is not None
        assert spec.faults.seed == 1337

    def test_partial_namespace_falls_back_to_defaults(self):
        spec = ScenarioSpec.from_cli_args(
            argparse.Namespace(scale=0.5), scenario="daytrader4"
        )
        assert spec.scale == 0.5
        assert spec.ksm == KsmSettings()
        assert spec.tiering == TieringSettings()
        assert not spec.hugepages.enabled


class TestSettingsValidation:
    def test_policy_is_validated(self):
        with pytest.raises(ValueError):
            HugePageSettings(policy="sometimes")

    def test_block_pages_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HugePageSettings(policy="always", block_pages=48)
        with pytest.raises(ValueError):
            HugePageSettings(policy="always", block_pages=1)

    def test_collapse_fraction_bounds(self):
        with pytest.raises(ValueError):
            HugePageSettings(policy="khugepaged", collapse_hot_fraction=0.0)
        with pytest.raises(ValueError):
            HugePageSettings(policy="khugepaged", collapse_hot_fraction=1.5)
