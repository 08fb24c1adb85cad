"""Property-based tests for the Bloom-filter memory fingerprints."""

from hypothesis import given, settings, strategies as st

from repro.datacenter.fingerprint import MemoryFingerprint

token_sets = st.sets(
    st.integers(min_value=1, max_value=2**48), min_size=0, max_size=300
)


class TestBloomProperties:
    @given(tokens=token_sets)
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives(self, tokens):
        """A Bloom filter may lie about presence, never about absence."""
        fingerprint = MemoryFingerprint(bits=1 << 14)
        for token in tokens:
            fingerprint.add(token)
        assert all(fingerprint.might_contain(token) for token in tokens)

    @given(tokens=token_sets)
    @settings(max_examples=50, deadline=None)
    def test_cardinality_estimate_reasonable(self, tokens):
        fingerprint = MemoryFingerprint(bits=1 << 16)
        for token in tokens:
            fingerprint.add(token)
        estimate = fingerprint.estimated_cardinality()
        if not tokens:
            assert estimate == 0.0
        else:
            assert 0.5 * len(tokens) <= estimate <= 1.5 * len(tokens) + 5

    @given(a=token_sets, b=token_sets)
    @settings(max_examples=50, deadline=None)
    def test_union_is_commutative(self, a, b):
        fa = MemoryFingerprint(bits=1 << 14)
        fb = MemoryFingerprint(bits=1 << 14)
        for token in a:
            fa.add(token)
        for token in b:
            fb.add(token)
        ab = fa.union(fb)
        ba = fb.union(fa)
        assert ab._words == ba._words

    @given(a=token_sets, b=token_sets)
    @settings(max_examples=50, deadline=None)
    def test_intersection_estimate_bounded(self, a, b):
        """|A∩B| estimate never exceeds the smaller set by much, and the
        estimator is symmetric."""
        fa = MemoryFingerprint(bits=1 << 16)
        fb = MemoryFingerprint(bits=1 << 16)
        for token in a:
            fa.add(token)
        for token in b:
            fb.add(token)
        estimate = fa.estimate_shared_tokens(fb)
        assert estimate >= 0.0
        assert estimate <= min(len(a), len(b)) * 1.5 + 10
        assert abs(estimate - fb.estimate_shared_tokens(fa)) < 1e-6

    @given(tokens=token_sets)
    @settings(max_examples=30, deadline=None)
    def test_self_intersection_is_cardinality(self, tokens):
        fingerprint = MemoryFingerprint(bits=1 << 16)
        for token in tokens:
            fingerprint.add(token)
        shared = fingerprint.estimate_shared_tokens(fingerprint)
        estimate = fingerprint.estimated_cardinality()
        assert abs(shared - estimate) < 1e-6


class TestEstimatorProperties:
    """Properties the placement layer relies on (never negative/NaN)."""

    @given(a=token_sets, b=token_sets)
    @settings(max_examples=50, deadline=None)
    def test_union_cardinality_is_monotone(self, a, b):
        """|A ∪ B| estimate is at least max(|A|, |B|) estimates."""
        fa = MemoryFingerprint(bits=1 << 14)
        fb = MemoryFingerprint(bits=1 << 14)
        for token in a:
            fa.add(token)
        for token in b:
            fb.add(token)
        union = fa.union(fb).estimated_cardinality()
        assert union >= fa.estimated_cardinality()
        assert union >= fb.estimated_cardinality()

    @given(tokens=token_sets)
    @settings(max_examples=50, deadline=None)
    def test_cardinality_never_negative(self, tokens):
        fingerprint = MemoryFingerprint(bits=1 << 10)
        for token in tokens:
            fingerprint.add(token)
        assert fingerprint.estimated_cardinality() >= 0.0

    @given(a=token_sets, b=token_sets)
    @settings(max_examples=50, deadline=None)
    def test_shared_estimate_symmetric(self, a, b):
        fa = MemoryFingerprint(bits=1 << 14)
        fb = MemoryFingerprint(bits=1 << 14)
        for token in a:
            fa.add(token)
        for token in b:
            fb.add(token)
        assert fa.estimate_shared_tokens(fb) == fb.estimate_shared_tokens(fa)

    @given(a=token_sets, b=token_sets)
    @settings(max_examples=50, deadline=None)
    def test_shared_estimate_clamped_to_min_cardinality(self, a, b):
        """0 ≤ |A ∩ B| estimate ≤ min(|A|, |B|) estimates, never NaN."""
        fa = MemoryFingerprint(bits=1 << 12)
        fb = MemoryFingerprint(bits=1 << 12)
        for token in a:
            fa.add(token)
        for token in b:
            fb.add(token)
        shared = fa.estimate_shared_tokens(fb)
        assert shared == shared  # not NaN
        assert 0.0 <= shared
        assert shared <= min(
            fa.estimated_cardinality(), fb.estimated_cardinality()
        )
