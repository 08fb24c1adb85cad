"""Tests for the fault-injection plan and resilient dump collection."""

import pytest

from repro.core.accounting import (
    apply_degradation,
    owner_oriented_accounting,
)
from repro.core.breakdown import vm_breakdown
from repro.core.dump import (
    MAX_DUMP_ATTEMPTS,
    collect_system_dump,
)
from repro.core.validate import EXPECTED_CODES_BY_FAULT, validate_dump
from repro.errors import FaultSpecError
from repro.faults import (
    DEFAULT_FAULT_RATES,
    FaultKind,
    FaultPlan,
    FaultRates,
)
from repro.guestos.kernel import GuestKernel
from repro.guestos.pagecache import BackingFile
from repro.hypervisor.kvm import KvmHost
from repro.units import MiB

PAGE = 4096


def build_host(seed=9, guests=4):
    """A small multi-guest host, rebuilt identically per seed."""
    host = KvmHost(64 * MiB, seed=seed)
    kernels = {}
    for i in range(1, guests + 1):
        name = f"vm{i}"
        vm = host.create_guest(name, 4 * MiB)
        kernel = GuestKernel(vm, host.rng.derive("g", name))
        kernels[name] = kernel
        java = kernel.spawn("java")
        heap = java.mmap_anon(8 * PAGE, "java:heap")
        java.write_tokens(heap, list(range(1, 9)))
        code = java.mmap_file(
            BackingFile("jdk:lib", 2 * PAGE, PAGE), "java:code"
        )
        java.fault_file_pages(code)
        daemon = kernel.spawn("sshd")
        anon = daemon.mmap_anon(4 * PAGE, "sshd:heap")
        for page in range(4):
            daemon.write_token(anon, page, 100 + page)
        vm.allocate_overhead(PAGE)
    return host, kernels


class TestFaultRates:
    def test_defaults_cover_every_kind(self):
        for kind in FaultKind:
            rate = DEFAULT_FAULT_RATES.rate_of(kind)
            assert 0.0 <= rate <= 1.0

    def test_only_isolates_one_kind(self):
        rates = FaultRates.only(FaultKind.TORN_HOST_PTE)
        assert rates.rate_of(FaultKind.TORN_HOST_PTE) == 1.0
        for kind in FaultKind:
            if kind is not FaultKind.TORN_HOST_PTE:
                assert rates.rate_of(kind) == 0.0

    def test_uniform_rejects_out_of_range(self):
        with pytest.raises(FaultSpecError):
            FaultRates.uniform(1.5)
        with pytest.raises(FaultSpecError):
            FaultRates.uniform(-0.1)


class TestFaultPlanSpec:
    def test_seed_only(self):
        plan = FaultPlan.from_spec("1337")
        assert plan.seed == 1337
        assert plan.rates == DEFAULT_FAULT_RATES

    def test_seed_and_rate(self):
        plan = FaultPlan.from_spec("7:0.5")
        assert plan.seed == 7
        for kind in FaultKind:
            assert plan.rates.rate_of(kind) == 0.5

    @pytest.mark.parametrize(
        "spec", ["bogus", "", "7:", "7:x", "7:1.5", "7:-1", "1:2:3"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(spec)

    def test_decide_is_deterministic_per_vm(self):
        a = FaultPlan(99)
        b = FaultPlan(99)
        for name in ("vm1", "vm2", "vm3"):
            assert a.decide(name) == b.decide(name)

    def test_different_seeds_differ_somewhere(self):
        a = FaultPlan(1)
        b = FaultPlan(2)
        decisions_a = [a.decide(f"vm{i}") for i in range(1, 9)]
        decisions_b = [b.decide(f"vm{i}") for i in range(1, 9)]
        assert decisions_a != decisions_b


class TestResilientCollection:
    """The acceptance smoke test: fixed seed, default rates."""

    SMOKE_SEED = 1337  # quarantines vm4 (non-debug kernel) at defaults

    def test_smoke_completes_and_quarantines(self):
        host, kernels = build_host()
        plan = FaultPlan(self.SMOKE_SEED)
        dump = collect_system_dump(host, kernels, faults=plan)
        report = dump.collection
        assert report is not None
        assert report.fault_seed == self.SMOKE_SEED
        assert report.quarantined_vms  # at least one VM dropped
        # Quarantined guests are absent from the dump but recorded.
        for name in report.quarantined_vms:
            assert all(g.vm_name != name for g in dump.guests)
            assert report.record(name).reason

    def test_smoke_every_injected_fault_class_detected(self):
        host, kernels = build_host()
        dump = collect_system_dump(
            host, kernels, faults=FaultPlan(self.SMOKE_SEED)
        )
        validation = validate_dump(dump)
        codes = set(validation.codes())
        for kind in dump.collection.fault_kinds_injected():
            expected = EXPECTED_CODES_BY_FAULT.get(kind)
            if expected is None:  # collection-process faults
                continue
            if kind in (
                FaultKind.NON_DEBUG_KERNEL,
                FaultKind.TRANSIENT_DUMP_FAILURE,
            ):
                continue
            record_names = [
                g.vm_name
                for g in dump.collection.guests
                if any(f.kind is kind for f in g.faults)
            ]
            # Faults on quarantined guests leave no dump to validate.
            if all(
                name in dump.collection.quarantined_vms
                for name in record_names
            ):
                continue
            assert codes & set(expected), (
                f"{kind.value} injected but none of {expected} found"
            )

    def test_transient_failures_are_retried_with_backoff(self):
        host, kernels = build_host()
        plan = FaultPlan(
            7, rates=FaultRates.only(FaultKind.TRANSIENT_DUMP_FAILURE)
        )
        dump = collect_system_dump(host, kernels, faults=plan)
        report = dump.collection
        assert report.total_retries > 0
        for record in report.guests:
            assert 1 <= record.attempts <= MAX_DUMP_ATTEMPTS
            assert record.retries == record.attempts - 1
            assert len(record.backoff_ms) == record.retries
            if record.quarantined:
                assert "transient" in record.reason

    def test_non_debug_kernel_quarantines_without_raising(self):
        host, kernels = build_host()
        plan = FaultPlan(
            3, rates=FaultRates.only(FaultKind.NON_DEBUG_KERNEL)
        )
        dump = collect_system_dump(host, kernels, faults=plan)
        assert dump.collection.quarantined_vms == [
            "vm1", "vm2", "vm3", "vm4"
        ]
        assert not dump.guests
        # The host layer is still collected.
        assert dump.host.page_tables

    def test_same_seed_byte_identical_report(self):
        reports = []
        for _ in range(2):
            host, kernels = build_host()
            dump = collect_system_dump(
                host, kernels, faults=FaultPlan(self.SMOKE_SEED)
            )
            reports.append(dump.collection.to_json())
        assert reports[0] == reports[1]

    def test_no_plan_collects_strictly(self):
        host, kernels = build_host()
        dump = collect_system_dump(host, kernels)
        report = dump.collection
        assert report is not None
        assert report.fault_seed is None
        assert report.quarantined_vms == []
        assert report.total_retries == 0
        assert report.faults_injected() == []


class TestDegradedBounds:
    def breakdown_for(self, faults):
        host, kernels = build_host()
        dump = collect_system_dump(host, kernels, faults=faults)
        accounting = owner_oriented_accounting(dump)
        if faults is not None:
            validation = validate_dump(dump)
            apply_degradation(
                accounting, dump, validation, dump.collection
            )
        return vm_breakdown(accounting)

    @pytest.mark.parametrize("fault_seed", [7, 42, 1337, 20130421])
    def test_clean_total_within_degraded_bounds(self, fault_seed):
        clean = self.breakdown_for(None)
        degraded = self.breakdown_for(FaultPlan(fault_seed))
        low, high = degraded.total_usage_bounds()
        assert low <= clean.total_usage() <= high

    def test_clean_run_is_not_degraded(self):
        clean = self.breakdown_for(None)
        assert not clean.degraded
        assert clean.total_usage_bounds() == (
            clean.total_usage(), clean.total_usage()
        )

    def test_quarantined_vm_gets_bounded_row(self):
        degraded = self.breakdown_for(
            FaultPlan(3, rates=FaultRates.only(FaultKind.NON_DEBUG_KERNEL))
        )
        assert degraded.degraded
        for row in degraded.rows:
            assert row.total_usage() == 0
            low, high = row.usage_bounds()
            assert low == 0 and high == row.unattributable_bytes > 0


class TestFaultPlanSerialization:
    def test_rates_round_trip(self):
        rates = FaultRates.uniform(0.3)
        rebuilt = FaultRates.from_dict(rates.as_dict())
        assert rebuilt == rates

    def test_plan_round_trip_decides_identically(self):
        plan = FaultPlan(77, FaultRates.uniform(0.4))
        rebuilt = FaultPlan.from_dict(plan.as_dict())
        assert rebuilt.seed == plan.seed
        assert rebuilt.rates == plan.rates
        for name in ("vm1", "vm2", "vm3"):
            assert rebuilt.decide(name) == plan.decide(name)

    def test_plan_dict_is_json_safe(self):
        import json

        data = FaultPlan(7, FaultRates.uniform(0.2)).as_dict()
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.rates == FaultRates.uniform(0.2)

    def test_unknown_rate_key_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultRates.from_dict({"exploding_rack": 0.5})

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultRates.from_dict({"torn_host_pte": 1.5})

    def test_missing_seed_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_dict({"rates": {}})
