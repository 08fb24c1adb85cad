"""Integration tests for the PowerVM experiment (scaled Fig. 6)."""

import gc
import weakref

import pytest

from repro.core.experiments import powervm
from repro.core.experiments.powervm import run_powervm_experiment


@pytest.fixture(scope="module")
def result():
    return run_powervm_experiment(scale=0.03)


class TestPowerVm:
    def test_sharing_saves_memory_in_both_cases(self, result):
        assert result.not_preloaded.saving_bytes > 0
        assert result.preloaded.saving_bytes > 0

    def test_preloading_increases_sharing(self, result):
        """Fig. 6's headline: preloading adds ≈181 MB of sharing on top of
        the 243 MB baseline — here, at scale, the ratio must hold."""
        ratio = (
            result.preloaded.saving_bytes
            / result.not_preloaded.saving_bytes
        )
        assert 1.3 < ratio < 3.0

    def test_usage_before_similar(self, result):
        """Preloading barely changes the pre-sharing footprint; the win is
        all in what TPS can then merge."""
        before_ratio = (
            result.preloaded.usage_before_bytes
            / result.not_preloaded.usage_before_bytes
        )
        assert 0.9 < before_ratio < 1.1

    def test_sharing_increase_positive(self, result):
        assert result.sharing_increase_bytes > 0

    def test_case_accessors(self, result):
        assert set(result.cases) == {"preloaded", "not-preloaded"}


def test_each_case_frees_the_previous_host(monkeypatch):
    """The two Fig. 6 cases run one after the other.  A finished case's
    host is cyclic garbage (each LPAR refers to its host), so it must be
    freed before the next host is built, or the peak holds both."""
    built = []
    real_host = powervm.PowerVmHost

    def tracked_host(*args, **kwargs):
        assert all(ref() is None for ref in built)
        host = real_host(*args, **kwargs)
        built.append(weakref.ref(host))
        return host

    monkeypatch.setattr(powervm, "PowerVmHost", tracked_host)
    # With the collector off, only the experiment's own collection can
    # free the first host.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run_powervm_experiment(scale=0.03)
    finally:
        if was_enabled:
            gc.enable()
    assert len(built) == 2
