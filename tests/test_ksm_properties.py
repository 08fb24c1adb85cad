"""Property-based tests: KSM never corrupts memory, whatever the workload.

Hypothesis drives random write/scan interleavings over several address
spaces and checks the two safety invariants of page sharing:

* **read-your-writes**: the content visible through every mapping is the
  content last written through it (merging is transparent);
* **conservation**: frame refcounts equal live mappings, and physical
  usage never exceeds the logical (unmerged) page count.
"""

from hypothesis import given, settings, strategies as st

from repro.ksm.scanner import KsmConfig, KsmScanner
from repro.mem.address_space import PageTable
from repro.mem.physmem import HostPhysicalMemory
from repro.sim.clock import SimClock
from repro.units import MiB

PAGE = 4096
N_TABLES = 3
N_VPNS = 6
N_TOKENS = 4  # few tokens => plenty of merge opportunities


@st.composite
def workload(draw):
    """A random interleaving of writes and scan bursts."""
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("write"),
                    st.integers(0, N_TABLES - 1),
                    st.integers(0, N_VPNS - 1),
                    st.integers(0, N_TOKENS - 1),
                ),
                st.tuples(
                    st.just("scan"),
                    st.integers(1, 2 * N_TABLES * N_VPNS),
                    st.just(0),
                    st.just(0),
                ),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return steps


class TestKsmSafety:
    @given(steps=workload())
    @settings(max_examples=120, deadline=None)
    def test_reads_always_see_last_write(self, steps):
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        scanner = KsmScanner(pm, SimClock(), KsmConfig(pages_to_scan=16))
        tables = [PageTable(f"t{i}") for i in range(N_TABLES)]
        for table in tables:
            scanner.register(table)
        expected = {}
        for op, a, b, c in steps:
            if op == "write":
                table = tables[a]
                pm.write_token(table, b, c + 1)
                expected[(a, b)] = c + 1
            else:
                scanner.scan_pages(a)
            # Invariant 1: every mapping shows its own last write.
            for (ti, vpn), token in expected.items():
                assert pm.read_token(tables[ti], vpn) == token
            # Invariant 2: refcounts match mappings.
            mappings = sum(len(t) for t in tables)
            assert sum(pm.refs) == mappings
            # Invariant 3: merging only ever reduces frames.
            assert pm.frames_in_use <= mappings

    @given(steps=workload())
    @settings(max_examples=60, deadline=None)
    def test_convergence_reaches_minimal_frames(self, steps):
        """After writes stop and the scanner converges, distinct content
        values map 1:1 to frames (maximal merging)."""
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        scanner = KsmScanner(pm, SimClock(), KsmConfig(pages_to_scan=64))
        tables = [PageTable(f"t{i}") for i in range(N_TABLES)]
        for table in tables:
            scanner.register(table)
        expected = {}
        for op, a, b, c in steps:
            if op == "write":
                pm.write_token(tables[a], b, c + 1)
                expected[(a, b)] = c + 1
            else:
                scanner.scan_pages(a)
        scanner.run_until_converged(max_passes=10)
        distinct = len(set(expected.values()))
        if expected:
            assert pm.frames_in_use == distinct
