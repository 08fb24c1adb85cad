"""Unit tests for the simulation kernel (clock + rng)."""

from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import SimClock
from repro.sim.rng import RngFactory, mix64, stable_hash64

GOLDEN = 0x9E3779B97F4A7C15


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ms == 0

    def test_custom_start(self):
        assert SimClock(500).now_ms == 500

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1)

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(100) == 100
        assert clock.now_ms == 100

    def test_advance_minutes(self):
        clock = SimClock()
        clock.advance_minutes(1.5)
        assert clock.now_ms == 90_000

    def test_now_seconds(self):
        clock = SimClock(2500)
        assert clock.now_seconds == 2.5

    def test_cannot_go_backwards(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestStableHash64:
    def test_deterministic(self):
        assert stable_hash64("a", 1) == stable_hash64("a", 1)

    def test_sensitive_to_order(self):
        assert stable_hash64("a", "b") != stable_hash64("b", "a")

    def test_sensitive_to_type(self):
        assert stable_hash64(1) != stable_hash64("1")
        assert stable_hash64(True) != stable_hash64(1)

    def test_never_zero(self):
        # Zero is reserved for the all-zero page token.
        for value in range(200):
            assert stable_hash64("probe", value) != 0

    def test_no_concat_ambiguity(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert stable_hash64("ab", "c") != stable_hash64("a", "bc")

    def test_bytes_and_str_distinct(self):
        assert stable_hash64(b"x") != stable_hash64("x")

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash64(["list"])  # type: ignore[list-item]

    @given(st.lists(st.integers(min_value=0, max_value=2**31), max_size=6))
    def test_fits_in_64_bits(self, parts):
        value = stable_hash64(*parts)
        assert 0 < value < 2**64


class TestMix64:
    def test_known_answers(self):
        # Token values reach the compressed pool and the Bloom bits, so
        # they are pinned.  mix64(0, 1) is splitmix64's first output
        # from state 0.
        assert mix64(0, 1) == 0xE220A8397B1DCDAF
        assert mix64(0x0123456789ABCDEF, 7, 3) == 2566387275669340528
        assert mix64(12345, 1, 2, 3) == 8718053993774871552

    def test_never_zero(self):
        # The last value that would finalize to 0 yields 1 instead.
        inverse = pow(GOLDEN, -1, 1 << 64)
        for key in (0, 1, 12345, stable_hash64("heap", "vm1", 301)):
            zeroing = key * inverse % (1 << 64)
            assert mix64(key, zeroing) == 1
            assert all(mix64(key, value) != 0 for value in range(200))

    def test_injective_in_last_value(self):
        key = stable_hash64("stack", "vm1", 301)
        tokens = {mix64(key, 3, value) for value in range(1 << 16)}
        assert len(tokens) == 1 << 16

    def test_no_collision_across_streams(self):
        keys = [stable_hash64("heap", f"vm{i}", 300 + i) for i in range(4)]
        tokens = array("Q", (
            mix64(key, page, epoch)
            for key in keys
            for page in range(1 << 12)
            for epoch in range(1 << 6)
        ))
        assert len(tokens) == 1 << 20
        unique = np.unique(np.frombuffer(tokens, dtype=np.uint64))
        assert unique.size == 1 << 20

    @given(
        st.integers(min_value=1, max_value=2**64 - 1),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=4),
    )
    def test_fits_in_64_bits(self, key, values):
        assert 0 < mix64(key, *values) < 2**64


class TestRngFactory:
    def test_same_name_same_stream(self):
        factory = RngFactory(42)
        a = factory.stream("heap", 1)
        b = factory.stream("heap", 1)
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)
        ]

    def test_different_names_differ(self):
        factory = RngFactory(42)
        a = factory.stream("heap", 1)
        b = factory.stream("heap", 2)
        assert [a.random() for _ in range(5)] != [
            b.random() for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        a = RngFactory(1).stream("x")
        b = RngFactory(2).stream("x")
        assert a.random() != b.random()

    def test_derive_namespaces(self):
        factory = RngFactory(42)
        child = factory.derive("vm", "vm1")
        # The child's stream differs from the same name on the parent.
        assert (
            child.stream("malloc").random()
            != factory.stream("malloc").random()
        )

    def test_derive_deterministic(self):
        a = RngFactory(42).derive("vm", "vm1").stream("s").random()
        b = RngFactory(42).derive("vm", "vm1").stream("s").random()
        assert a == b

    def test_creation_order_irrelevant(self):
        factory = RngFactory(7)
        first = factory.stream("a").random()
        factory.stream("b")  # interleaved creation
        again = factory.stream("a").random()
        assert first == again
