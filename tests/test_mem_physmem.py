"""Unit and property tests for the host frame table (COW, refcounts)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.address_space import PageTable
from repro.mem.physmem import FREE, STABLE, HostPhysicalMemory
from repro.units import MiB

PAGE = 4096


@pytest.fixture
def pm():
    return HostPhysicalMemory(16 * MiB, PAGE)


@pytest.fixture
def table():
    return PageTable("test")


class TestAlloc:
    def test_alloc_starts_with_one_ref(self, pm):
        fid = pm.alloc(5)
        assert pm.refs[fid] == 1
        assert pm.token_of(fid) == 5

    def test_fids_never_reused(self, pm):
        fid = pm.alloc(5)
        pm.dec_ref(fid)
        assert pm.alloc(5) != fid

    def test_free_removes_frame(self, pm):
        fid = pm.alloc(5)
        pm.dec_ref(fid)
        assert not pm.is_live(fid)
        with pytest.raises(KeyError, match="has been freed"):
            pm.token_of(fid)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HostPhysicalMemory(0, PAGE)
        with pytest.raises(ValueError):
            HostPhysicalMemory(MiB, 0)


class TestMapWrite:
    def test_map_token(self, pm, table):
        fid = pm.map_token(table, 10, 99)
        assert table.translate(10) == fid
        assert pm.read_token(table, 10) == 99

    def test_read_unmapped_is_none(self, pm, table):
        assert pm.read_token(table, 123) is None

    def test_write_unmapped_maps(self, pm, table):
        pm.write_token(table, 3, 7)
        assert pm.read_token(table, 3) == 7

    def test_exclusive_write_mutates_in_place(self, pm, table):
        fid = pm.map_token(table, 1, 5)
        fid2 = pm.write_token(table, 1, 6)
        assert fid2 == fid
        assert pm.read_token(table, 1) == 6
        assert pm.cow_breaks == 0

    def test_shared_write_breaks_cow(self, pm):
        a, b = PageTable("a"), PageTable("b")
        fid = pm.map_token(a, 1, 5)
        pm.share_mapping(b, 7, fid)
        assert pm.refs[fid] == 2
        new_fid = pm.write_token(b, 7, 9)
        assert new_fid != fid
        assert pm.read_token(a, 1) == 5  # untouched
        assert pm.read_token(b, 7) == 9
        assert pm.refs[fid] == 1
        assert pm.cow_breaks == 1

    def test_write_to_stable_frame_always_cows(self, pm, table):
        fid = pm.map_token(table, 1, 5)
        pm.mark_ksm_stable(fid)
        assert pm.states[fid] == STABLE
        new_fid = pm.write_token(table, 1, 6)
        assert new_fid != fid
        # The stable frame lost its only mapper and was freed.
        assert not pm.is_live(fid)

    def test_unmap_drops_reference(self, pm, table):
        fid = pm.map_token(table, 1, 5)
        pm.unmap(table, 1)
        assert not pm.is_live(fid)
        assert not table.is_mapped(1)


class TestMerge:
    def test_merge_into(self, pm):
        a, b = PageTable("a"), PageTable("b")
        fid_a = pm.map_token(a, 1, 5)
        fid_b = pm.map_token(b, 2, 5)
        old = pm.merge_into(a, 1, fid_b)
        assert old == fid_a
        assert not pm.is_live(fid_a)
        assert a.translate(1) == fid_b
        assert pm.refs[fid_b] == 2

    def test_merge_refuses_different_content(self, pm):
        a, b = PageTable("a"), PageTable("b")
        pm.map_token(a, 1, 5)
        fid_b = pm.map_token(b, 2, 6)
        with pytest.raises(ValueError):
            pm.merge_into(a, 1, fid_b)

    def test_merge_self_is_noop(self, pm, table):
        fid = pm.map_token(table, 1, 5)
        assert pm.merge_into(table, 1, fid) == fid
        assert pm.refs[fid] == 1

    def test_merge_unmapped_raises(self, pm, table):
        fid = pm.map_token(table, 1, 5)
        with pytest.raises(KeyError):
            pm.merge_into(table, 99, fid)


class TestStatistics:
    def test_bytes_in_use(self, pm, table):
        pm.map_token(table, 1, 5)
        pm.map_token(table, 2, 5)
        assert pm.bytes_in_use == 2 * PAGE
        assert pm.frames_in_use == 2

    def test_overcommit(self):
        pm = HostPhysicalMemory(2 * PAGE, PAGE)
        table = PageTable("t")
        for vpn in range(3):
            pm.map_token(table, vpn, vpn + 1)
        assert pm.overcommitted_bytes == PAGE
        assert pm.bytes_free == -PAGE


class TestGuards:
    """No operation touches a fid that is not a live frame."""

    def test_token_of_rejects_fids_outside_the_table(self, pm):
        fid = pm.alloc(5)
        for bad in (0, -1, fid + 1):
            with pytest.raises(KeyError, match="never allocated"):
                pm.token_of(bad)
        assert pm.token_of(fid) == 5

    @pytest.mark.parametrize(
        "operation",
        [
            "inc_ref",
            "dec_ref",
            "mark_ksm_stable",
            "share_mapping",
            "merge_into",
            "read_token",
        ],
    )
    def test_freed_fid_is_refused(self, pm, table, operation):
        live = pm.map_token(table, 1, 5)
        freed = pm.alloc(5)
        pm.dec_ref(freed)
        table.map(2, freed)  # a stale entry left behind by a bad caller
        calls = {
            "inc_ref": lambda: pm.inc_ref(freed),
            "dec_ref": lambda: pm.dec_ref(freed),
            "mark_ksm_stable": lambda: pm.mark_ksm_stable(freed),
            "share_mapping": lambda: pm.share_mapping(table, 3, freed),
            "merge_into": lambda: pm.merge_into(table, 1, freed),
            "read_token": lambda: pm.read_token(table, 2),
        }
        refs = list(pm.refs)
        states = bytes(pm.states)
        in_use, cow_breaks = pm.frames_in_use, pm.cow_breaks
        with pytest.raises(KeyError, match=f"frame {freed} has been freed"):
            calls[operation]()
        assert list(pm.refs) == refs
        assert bytes(pm.states) == states
        assert pm.frames_in_use == in_use
        assert pm.cow_breaks == cow_breaks
        assert table.translate(1) == live
        assert not table.is_mapped(3)

    def test_write_through_freed_entry_counts_no_cow_break(
        self, pm, table
    ):
        fid = pm.map_token(table, 1, 5)
        pm.dec_ref(fid)  # freed behind the table's back
        refs = list(pm.refs)
        with pytest.raises(KeyError, match=f"frame {fid} has been freed"):
            pm.write_token(table, 1, 6)
        assert pm.cow_breaks == 0
        assert list(pm.refs) == refs
        assert pm.frames_in_use == 0


@st.composite
def operations(draw):
    """A random sequence of map/write/unmap/share/stable operations."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["write", "write_tokens", "unmap", "share", "stable"]
                ),
                st.integers(0, 9),  # vpn
                st.integers(0, 5),  # token
                st.integers(0, 9),  # second vpn (for share)
            ),
            max_size=40,
        )
    )
    return ops


class TestInvariants:
    @given(ops=operations())
    @settings(max_examples=80)
    def test_refcounts_equal_mappings(self, ops):
        """Sum of frame refcounts always equals live page-table entries,
        and the in-use counter always agrees with the state column."""
        pm = HostPhysicalMemory(64 * MiB, PAGE)
        tables = [PageTable("a"), PageTable("b")]
        for op, vpn, token, vpn2 in ops:
            table = tables[vpn % 2]
            if op == "write":
                pm.write_token(table, vpn, token)
            elif op == "write_tokens":
                # A range with a repeated vpn: rows apply in order.
                rows = [vpn, vpn2, (vpn * 3 + vpn2) % 10, vpn]
                pm.write_tokens(
                    table, rows, [token, token + 1, token, token + 2]
                )
            elif op == "unmap":
                if table.is_mapped(vpn):
                    pm.unmap(table, vpn)
            elif op == "share":
                other = tables[(vpn + 1) % 2]
                fid = table.translate(vpn)
                if fid is not None and not other.is_mapped(vpn2):
                    pm.share_mapping(other, vpn2, fid)
            elif op == "stable":
                fid = table.translate(vpn)
                if fid is not None:
                    pm.mark_ksm_stable(fid)
            mappings = sum(len(t) for t in tables)
            assert sum(pm.refs) == mappings
            live = sum(1 for state in pm.states if state != FREE)
            assert pm.frames_in_use == live
            for fid, state in enumerate(pm.states):
                assert (pm.refs[fid] == 0) == (state == FREE)
            assert (
                pm.bytes_in_use == pm.frames_in_use * PAGE + pm.pool_bytes
            )
