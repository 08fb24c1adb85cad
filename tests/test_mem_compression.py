"""Unit tests for the compressed paging-to-RAM store (§VI)."""

import pytest

from repro.mem.address_space import PageTable
from repro.mem.compression import (
    CompressedRamStore,
    compressed_fraction,
)
from repro.mem.content import ZERO_TOKEN
from repro.mem.physmem import HostPhysicalMemory
from repro.units import MiB

PAGE = 4096


@pytest.fixture
def env():
    pm = HostPhysicalMemory(64 * MiB, PAGE)
    table = PageTable("t")
    store = CompressedRamStore(pm)
    return pm, table, store


class TestCompressedFraction:
    def test_zero_pages_compress_to_nothing(self):
        assert compressed_fraction(ZERO_TOKEN) < 0.01

    def test_data_pages_in_expected_band(self):
        for token in range(1, 200):
            fraction = compressed_fraction(token)
            assert 0.30 <= fraction <= 0.70

    def test_deterministic(self):
        assert compressed_fraction(42) == compressed_fraction(42)


class TestCompressRestore:
    def test_compress_releases_frame(self, env):
        pm, table, store = env
        pm.map_token(table, 0, 7)
        saved = store.compress_page(table, 0)
        assert saved > 0
        assert pm.frames_in_use == 0
        assert store.is_compressed(table, 0)
        assert not table.is_mapped(0)

    def test_access_restores_content(self, env):
        pm, table, store = env
        pm.map_token(table, 0, 7)
        store.compress_page(table, 0)
        store.access_page(table, 0)
        assert pm.read_token(table, 0) == 7
        assert not store.is_compressed(table, 0)
        assert store.stats.pages_restored == 1

    def test_access_costs_cpu(self, env):
        pm, table, store = env
        pm.map_token(table, 0, 7)
        before = store.stats.cpu_us
        store.compress_page(table, 0)
        store.access_page(table, 0)
        assert store.stats.cpu_us > before

    def test_double_compress_rejected(self, env):
        pm, table, store = env
        pm.map_token(table, 0, 7)
        store.compress_page(table, 0)
        with pytest.raises(ValueError):
            store.compress_page(table, 0)

    def test_compress_unmapped_rejected(self, env):
        _pm, table, store = env
        with pytest.raises(KeyError):
            store.compress_page(table, 0)

    def test_access_uncompressed_rejected(self, env):
        _pm, table, store = env
        with pytest.raises(KeyError):
            store.access_page(table, 0)

    def test_ksm_stable_pages_skipped(self, env):
        """Compressing a TPS-merged frame would lose memory, so the store
        refuses — the §VI trade-off between the techniques."""
        pm, table, store = env
        fid = pm.map_token(table, 0, 7)
        pm.mark_ksm_stable(fid)
        assert store.compress_page(table, 0) == 0
        assert not store.is_compressed(table, 0)
        assert table.is_mapped(0)

    def test_pool_accounting(self, env):
        pm, table, store = env
        for vpn in range(4):
            pm.map_token(table, vpn, vpn + 1)
            store.compress_page(table, vpn)
        assert store.pool_pages == 4
        assert 0 < store.pool_bytes < 4 * PAGE
        assert store.stats.bytes_saved == 4 * PAGE - store.pool_bytes

    def test_pool_bytes_charged_to_host(self, env):
        """Compressing must not make memory vanish: the pool's bytes stay
        on the host's books until the page is restored or dropped."""
        pm, table, store = env
        pm.map_token(table, 0, 7)
        before = pm.bytes_in_use
        store.compress_page(table, 0)
        assert pm.pool_bytes == store.pool_bytes
        assert pm.bytes_in_use == before - PAGE + store.pool_bytes
        store.access_page(table, 0)
        assert pm.pool_bytes == 0
        assert pm.bytes_in_use == before

    def test_drop_page_releases_pool_charge(self, env):
        pm, table, store = env
        pm.map_token(table, 0, 7)
        store.compress_page(table, 0)
        store.drop_page(table, 0)
        assert not store.is_compressed(table, 0)
        assert store.pool_pages == 0
        assert pm.pool_bytes == 0
        assert pm.bytes_in_use == 0

    def test_drop_uncompressed_rejected(self, env):
        _pm, table, store = env
        with pytest.raises(KeyError):
            store.drop_page(table, 0)

    def test_audit_matches_stats(self, env):
        pm, table, store = env
        for vpn in range(6):
            pm.map_token(table, vpn, vpn + 1)
            store.compress_page(table, vpn)
        store.access_page(table, 2)
        store.drop_page(table, 4)
        assert store.audit_pool_bytes() == store.pool_bytes
        assert store.audit_pool_bytes() == pm.pool_bytes


class TestSweep:
    def test_sweep_compresses_everything(self, env):
        pm, table, store = env
        for vpn in range(10):
            pm.map_token(table, vpn, vpn + 1)
        saved = store.sweep(table)
        assert saved > 0
        assert store.pool_pages == 10
        assert pm.frames_in_use == 0

    def test_sweep_limit(self, env):
        pm, table, store = env
        for vpn in range(10):
            pm.map_token(table, vpn, vpn + 1)
        store.sweep(table, limit=3)
        assert store.pool_pages == 3

    def test_zero_pages_save_almost_everything(self, env):
        pm, table, store = env
        for vpn in range(4):
            pm.map_token(table, vpn, ZERO_TOKEN)
        saved = store.sweep(table)
        assert saved > 4 * PAGE * 0.99

    def test_skipped_stable_pages_do_not_consume_limit(self, env):
        """Regression: a KSM-stable page the sweep refuses to compress
        must not burn the budget — the limit counts *compressed* pages."""
        pm, table, store = env
        for vpn in range(4):  # the stable prefix the old code choked on
            fid = pm.map_token(table, vpn, 7)
            pm.mark_ksm_stable(fid)
        for vpn in range(4, 10):
            pm.map_token(table, vpn, vpn + 1)
        store.sweep(table, limit=3)
        assert store.pool_pages == 3
        for vpn in range(4):
            assert not store.is_compressed(table, vpn)

    def test_sweep_of_only_stable_pages_is_a_noop(self, env):
        pm, table, store = env
        for vpn in range(5):
            fid = pm.map_token(table, vpn, 7)
            pm.mark_ksm_stable(fid)
        assert store.sweep(table, limit=2) == 0
        assert store.pool_pages == 0
