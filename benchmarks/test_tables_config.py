"""Tables I–IV — the measurement environment, regenerated as data.

These tables are configuration, not measurement; the bench prints them
in the paper's layout and asserts the encoded presets carry the paper's
exact values.
"""

from repro.config import (
    DAYTRADER_JVM,
    DAYTRADER_POWER_JVM,
    DAYTRADER_POWER_WORKLOAD,
    DAYTRADER_WORKLOAD,
    INTEL_GUEST_1G,
    INTEL_GUEST_SPECJ,
    INTEL_HOST,
    POWER_GUEST,
    POWER_HOST,
    SPECJ_JVM,
    SPECJ_WORKLOAD,
    TPCW_JVM,
    TPCW_WORKLOAD,
    TUSCANY_JVM,
    TUSCANY_WORKLOAD,
    KsmSettings,
)
from repro.core.categories import TABLE_IV_CATEGORIES
from repro.core.report import render_kv
from repro.units import GiB, MiB


def build_tables():
    table1 = [
        ("Intel machine", INTEL_HOST.name),
        ("Intel RAM", f"{INTEL_HOST.ram_bytes // GiB} GB"),
        ("Intel hypervisor", INTEL_HOST.hypervisor),
        ("POWER machine", POWER_HOST.name),
        ("POWER RAM", f"{POWER_HOST.ram_bytes // GiB} GB"),
        ("POWER hypervisor", POWER_HOST.hypervisor),
    ]
    table2 = [
        ("Intel guest memory", f"{INTEL_GUEST_1G.memory_bytes / GiB:.2f} GB"),
        ("SPECj guest memory",
         f"{INTEL_GUEST_SPECJ.memory_bytes / GiB:.2f} GB"),
        ("POWER guest memory", f"{POWER_GUEST.memory_bytes / GiB:.1f} GB"),
        ("KSM pages per scan", str(KsmSettings().pages_to_scan)),
        ("KSM sleep interval", f"{KsmSettings().sleep_millisecs} ms"),
    ]
    table3 = [
        ("DayTrader heap", f"{DAYTRADER_JVM.heap_bytes // MiB} MB"),
        ("SPECjEnterprise heap", f"{SPECJ_JVM.heap_bytes // MiB} MB"),
        ("TPC-W heap", f"{TPCW_JVM.heap_bytes // MiB} MB"),
        ("Tuscany heap", f"{TUSCANY_JVM.heap_bytes // MiB} MB"),
        ("DayTrader (POWER) heap",
         f"{DAYTRADER_POWER_JVM.heap_bytes // MiB} MB"),
        ("Shared class cache (WAS)",
         f"{DAYTRADER_JVM.shared_cache_bytes // MiB} MB"),
        ("Shared class cache (Tuscany)",
         f"{TUSCANY_JVM.shared_cache_bytes // MiB} MB"),
        ("DayTrader client threads",
         str(DAYTRADER_WORKLOAD.client_threads)),
        ("SPECjEnterprise injection rate",
         str(SPECJ_WORKLOAD.injection_rate)),
        ("TPC-W client threads", str(TPCW_WORKLOAD.client_threads)),
        ("Tuscany client threads", str(TUSCANY_WORKLOAD.client_threads)),
        ("DayTrader (POWER) client threads",
         str(DAYTRADER_POWER_WORKLOAD.client_threads)),
    ]
    table4 = [(c.display_name, c.value) for c in TABLE_IV_CATEGORIES]
    return table1, table2, table3, table4


def test_tables_config(benchmark):
    table1, table2, table3, table4 = benchmark(build_tables)
    print()
    print(render_kv("Table I: physical machines", table1))
    print(render_kv("Table II: guest VM configuration", table2))
    print(render_kv("Table III: Java applications and JVMs", table3))
    print(render_kv("Table IV: categories of Java memory", table4))

    values = dict(table3)
    assert values["DayTrader heap"] == "530 MB"
    assert values["SPECjEnterprise heap"] == "730 MB"
    assert values["TPC-W heap"] == "512 MB"
    assert values["Tuscany heap"] == "32 MB"
    assert values["DayTrader (POWER) heap"] == "1024 MB"
    assert values["Shared class cache (WAS)"] == "120 MB"
    assert values["Shared class cache (Tuscany)"] == "25 MB"
    assert values["DayTrader client threads"] == "12"
    assert values["SPECjEnterprise injection rate"] == "15"
    assert len(table4) == 7
