"""Property tests for the scan policies.

Two equivalences are checked against randomly generated workloads:

* ``ScanPolicy.FULL`` is *step-identical* to a naive reference scanner —
  one that re-sorts every worklist, keeps separate stable/unstable dicts
  and has none of the persistent-cursor or token-index machinery.  Both
  run the same op sequence over twin universes; stats, history, table
  contents and frame counts must agree after every step.

* ``INCREMENTAL`` and ``HYBRID`` reach the same ``pages_saved`` fixpoint
  as ``FULL`` once memory is quiescent.
"""

from hypothesis import given, settings, strategies as st

from repro.ksm.scanner import KsmConfig, KsmScanner
from repro.mem.address_space import PageTable
from repro.mem.physmem import STABLE, HostPhysicalMemory
from repro.sim.clock import SimClock
from repro.units import MiB

PAGE = 4096
N_TABLES = 3
N_VPNS = 5
N_TOKENS = 4


class ReferenceScanner:
    """A deliberately naive KSM model with the intended semantics.

    Rebuilds (and re-sorts) every table worklist from scratch, keeps the
    stable and unstable trees as two separate dicts, and walks tables
    round-robin — no caching, no shared index, no dirty logs.
    """

    def __init__(self, physmem, clock, config):
        self.physmem = physmem
        self.clock = clock
        self.config = config
        self._tables = []
        self._stable = {}
        self._unstable = {}
        self._last_tokens = {}
        self.merges = 0
        self.volatile_skips = 0
        self.stale_drops = 0
        self.full_scans = 0
        self.pages_scanned = 0
        self.history = []
        self._cursor = 0
        self._worklist = []
        self._started = False
        self._examined_this_pass = 0

    def register(self, table):
        if any(t is table for t in self._tables):
            raise ValueError("registered")
        if any(t.name == table.name for t in self._tables):
            raise ValueError("duplicate name")
        self._tables.append(table)
        self._last_tokens[table] = {}

    def unregister(self, table):
        for i, t in enumerate(self._tables):
            if t is table:
                del self._tables[i]
                self._last_tokens.pop(table, None)
                # Kernel semantics: the mm's rmap items leave the
                # unstable tree with it — nothing may later merge
                # against an unregistered table's page.
                for token in [
                    tok
                    for tok, (cand_table, _vpn) in self._unstable.items()
                    if cand_table is table
                ]:
                    del self._unstable[token]
                if i < self._cursor:
                    self._cursor -= 1
                elif i == self._cursor:
                    self._worklist = []
                    self._cursor -= 1
                return
        raise ValueError("not registered")

    def scan_pages(self, budget):
        if budget <= 0 or not self._tables:
            return 0
        examined = 0
        empty_rounds = 0
        while examined < budget:
            if not self._worklist:
                if not self._advance():
                    empty_rounds += 1
                    if empty_rounds > len(self._tables) + 1:
                        break
                    continue
                empty_rounds = 0
            vpn = self._worklist.pop()
            self._examine(self._tables[self._cursor], vpn)
            examined += 1
            self._examined_this_pass += 1
        self.pages_scanned += examined
        return examined

    def _advance(self):
        if not self._started:
            self._started = True
            self._cursor = 0
        else:
            self._cursor += 1
            if self._cursor >= len(self._tables):
                self._cursor = 0
                if self._examined_this_pass > 0:
                    self._examined_this_pass = 0
                    self.full_scans += 1
                    self._unstable.clear()
                    for table in self._tables:
                        last = self._last_tokens[table]
                        for vpn in [
                            v for v in last if not table.is_mapped(v)
                        ]:
                            del last[vpn]
                    self._record_history()
        if self._cursor >= len(self._tables):
            return False
        table = self._tables[self._cursor]
        self._worklist = sorted(
            (vpn for vpn, _ in table.entries()), reverse=True
        )
        return bool(self._worklist)

    def _examine(self, table, vpn):
        fid = table.translate(vpn)
        if fid is None:
            return
        physmem = self.physmem
        token = physmem.token_of(fid)
        if physmem.states[fid] == STABLE:
            return
        stable_fid = self._stable.get(token)
        if stable_fid is not None:
            if (
                physmem.states[stable_fid] != STABLE
                or physmem.token_of(stable_fid) != token
            ):
                del self._stable[token]
            elif stable_fid != fid:
                physmem.merge_into(table, vpn, stable_fid)
                self.merges += 1
                return
        last = self._last_tokens[table]
        previous = last.get(vpn)
        last[vpn] = token
        if previous != token:
            self.volatile_skips += 1
            return
        partner = self._unstable.get(token)
        if partner is None:
            self._unstable[token] = (table, vpn)
            return
        partner_table, partner_vpn = partner
        if partner_table is table and partner_vpn == vpn:
            return
        partner_fid = partner_table.translate(partner_vpn)
        if partner_fid is None:
            self.stale_drops += 1
            self._unstable[token] = (table, vpn)
            return
        if physmem.token_of(partner_fid) != token:
            self.stale_drops += 1
            self._unstable[token] = (table, vpn)
            return
        if partner_fid == fid:
            physmem.mark_ksm_stable(fid)
            self._stable[token] = fid
            del self._unstable[token]
            return
        physmem.mark_ksm_stable(partner_fid)
        self._stable[token] = partner_fid
        del self._unstable[token]
        physmem.merge_into(table, vpn, partner_fid)
        self.merges += 1

    def _record_history(self):
        shared = 0
        sharing = 0
        physmem = self.physmem
        for fid in self._stable.values():
            if physmem.states[fid] == STABLE:
                shared += 1
                sharing += physmem.refs[fid]
        self.history.append((self.clock.now_ms, shared, sharing))


@st.composite
def op_sequence(draw):
    """Random register/unregister/write/scan interleavings.

    Write-only mutation (no unmaps): unmap-then-remap sequences can
    legitimately differ between implementations in *when* stale history
    is pruned, which is invisible to all exported results but not to the
    step-by-step comparison below.
    """
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("write"),
                    st.integers(0, N_TABLES - 1),
                    st.integers(0, N_VPNS - 1),
                    st.integers(1, N_TOKENS),
                ),
                st.tuples(
                    st.just("scan"),
                    st.integers(1, 2 * N_TABLES * N_VPNS),
                    st.just(0),
                    st.just(0),
                ),
                st.tuples(
                    st.just("unregister"),
                    st.integers(0, N_TABLES - 1),
                    st.just(0),
                    st.just(0),
                ),
                st.tuples(
                    st.just("register"),
                    st.integers(0, N_TABLES - 1),
                    st.just(0),
                    st.just(0),
                ),
            ),
            min_size=1,
            max_size=50,
        )
    )
    return ops


def _build_universe(config):
    pm = HostPhysicalMemory(64 * MiB, PAGE)
    clock = SimClock()
    tables = [PageTable(f"t{i}") for i in range(N_TABLES)]
    return pm, clock, tables


class TestFullPolicyEquivalence:
    @given(ops=op_sequence())
    @settings(max_examples=80, deadline=None)
    def test_full_matches_reference_step_by_step(self, ops):
        pm_p, clock_p, tables_p = _build_universe(None)
        prod = KsmScanner(pm_p, clock_p, KsmConfig(scan_policy="full"))
        pm_r, clock_r, tables_r = _build_universe(None)
        ref = ReferenceScanner(pm_r, clock_r, None)
        registered = [False] * N_TABLES
        for i in range(N_TABLES):
            prod.register(tables_p[i])
            ref.register(tables_r[i])
            registered[i] = True
        for op, a, b, c in ops:
            if op == "write":
                pm_p.write_token(tables_p[a], b, c)
                pm_r.write_token(tables_r[a], b, c)
            elif op == "scan":
                n_p = prod.scan_pages(a)
                n_r = ref.scan_pages(a)
                assert n_p == n_r
            elif op == "unregister":
                if registered[a]:
                    prod.unregister(tables_p[a])
                    ref.unregister(tables_r[a])
                    registered[a] = False
            else:  # register
                if not registered[a]:
                    prod.register(tables_p[a])
                    ref.register(tables_r[a])
                    registered[a] = True
            # Every exported result must agree after every step.
            assert prod.stats.merges == ref.merges
            assert prod.stats.volatile_skips == ref.volatile_skips
            assert prod.stats.stale_drops == ref.stale_drops
            assert prod.stats.full_scans == ref.full_scans
            assert prod.stats.pages_scanned == ref.pages_scanned
            assert prod.history == ref.history
            assert pm_p.frames_in_use == pm_r.frames_in_use
            assert pm_p.cow_breaks == pm_r.cow_breaks
            for table_p, table_r in zip(tables_p, tables_r):
                read_p = {
                    vpn: pm_p.read_token(table_p, vpn)
                    for vpn, _ in table_p.entries()
                }
                read_r = {
                    vpn: pm_r.read_token(table_r, vpn)
                    for vpn, _ in table_r.entries()
                }
                assert read_p == read_r


class TestIncrementalFixpoint:
    @given(ops=op_sequence())
    @settings(max_examples=40, deadline=None)
    def test_policies_agree_on_quiescent_fixpoint(self, ops):
        saved = {}
        for policy in ("full", "incremental", "hybrid"):
            pm, clock, tables = _build_universe(None)
            scanner = KsmScanner(
                pm, clock, KsmConfig(scan_policy=policy)
            )
            registered = [False] * N_TABLES
            for i in range(N_TABLES):
                scanner.register(tables[i])
                registered[i] = True
            for op, a, b, c in ops:
                if op == "write":
                    pm.write_token(tables[a], b, c)
                elif op == "scan":
                    scanner.scan_pages(a)
                elif op == "unregister" and registered[a]:
                    scanner.unregister(tables[a])
                    registered[a] = False
                elif op == "register" and not registered[a]:
                    scanner.register(tables[a])
                    registered[a] = True
            # Quiesce: no more writes, converge fully.
            scanner.run_until_converged(max_passes=16, idle_passes=3)
            stats = scanner.snapshot_stats()
            # Only tokens in still-registered tables can stay merged;
            # compare the end state across policies.
            saved[policy] = stats.pages_saved
        assert saved["incremental"] == saved["full"]
        assert saved["hybrid"] == saved["full"]


class TestUnregisterPurgesUnstable:
    """Regression: a persistent unstable candidate must die with its
    table.  Before the fix, INCREMENTAL/HYBRID kept the candidate after
    ``unregister`` and a later identical page in a *registered* table
    merged against the unregistered mapping, ending one page above the
    FULL fixpoint."""

    def _converged_saved(self, policy):
        pm, clock, tables = _build_universe(None)
        scanner = KsmScanner(pm, clock, KsmConfig(scan_policy=policy))
        for table in tables:
            scanner.register(table)
        pm.write_token(tables[1], 0, 1)
        scanner.scan_pages(1)
        scanner.scan_pages(1)
        scanner.unregister(tables[1])
        pm.write_token(tables[0], 0, 1)
        scanner.run_until_converged(max_passes=16, idle_passes=3)
        return scanner.snapshot_stats().pages_saved

    def test_no_merge_against_unregistered_table(self):
        for policy in ("full", "incremental", "hybrid"):
            assert self._converged_saved(policy) == 0, policy

    def test_unstable_candidates_dropped_on_unregister(self):
        pm, clock, tables = _build_universe(None)
        scanner = KsmScanner(
            pm, clock, KsmConfig(scan_policy="incremental")
        )
        for table in tables:
            scanner.register(table)
        pm.write_token(tables[1], 0, 1)
        # Two sightings: the second passes the volatility filter and
        # plants an unstable candidate for tables[1].
        scanner.scan_pages(len(tables) * 4)
        scanner.scan_pages(len(tables) * 4)
        assert scanner.unstable_candidates >= 1
        scanner.unregister(tables[1])
        assert scanner.unstable_candidates == 0
