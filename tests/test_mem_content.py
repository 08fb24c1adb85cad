"""Unit and property tests for page-content tokens (repro.mem.content)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.content import (
    Chunk,
    ZERO_TOKEN,
    page_tokens_for_chunks,
    token_memo_stats,
    zero_chunk,
)

PAGE = 4096


def chunks_strategy(max_chunks=8, max_size=3 * PAGE):
    return st.lists(
        st.builds(
            Chunk,
            content_id=st.integers(min_value=0, max_value=2**32),
            size=st.integers(min_value=1, max_value=max_size),
        ),
        min_size=0,
        max_size=max_chunks,
    )


class TestChunk:
    def test_zero_chunk(self):
        chunk = zero_chunk(100)
        assert chunk.is_zero
        assert chunk.size == 100

    def test_nonzero_chunk(self):
        assert not Chunk(5, 10).is_zero

    def test_empty_chunk_rejected(self):
        with pytest.raises(ValueError):
            Chunk(1, 0)

    def test_negative_content_rejected(self):
        with pytest.raises(ValueError):
            Chunk(-1, 8)


class TestPageTokens:
    def test_empty_sequence(self):
        assert page_tokens_for_chunks([], PAGE) == []

    def test_single_full_page(self):
        tokens = page_tokens_for_chunks([Chunk(7, PAGE)], PAGE)
        assert len(tokens) == 1
        assert tokens[0] != ZERO_TOKEN

    def test_zero_page_gets_zero_token(self):
        tokens = page_tokens_for_chunks([zero_chunk(PAGE)], PAGE)
        assert tokens == [ZERO_TOKEN]

    def test_partial_page_with_zero_rest_is_not_zero(self):
        tokens = page_tokens_for_chunks([Chunk(7, 100)], PAGE)
        assert tokens == [
            page_tokens_for_chunks([Chunk(7, 100)], PAGE)[0]
        ]
        assert tokens[0] != ZERO_TOKEN

    def test_identical_layout_identical_tokens(self):
        layout = [Chunk(1, 100), Chunk(2, PAGE), zero_chunk(50)]
        assert page_tokens_for_chunks(layout, PAGE) == page_tokens_for_chunks(
            list(layout), PAGE
        )

    def test_shifted_layout_differs(self):
        """The paper's alignment sensitivity: same data, new page offset,
        different page content."""
        layout = [Chunk(1, PAGE * 2)]
        aligned = page_tokens_for_chunks(layout, PAGE, base_offset=0)
        shifted = page_tokens_for_chunks(layout, PAGE, base_offset=64)
        assert set(aligned).isdisjoint(set(shifted))

    def test_reordered_chunks_differ(self):
        """The paper's load-order sensitivity."""
        a = page_tokens_for_chunks([Chunk(1, 600), Chunk(2, 600)], PAGE)
        b = page_tokens_for_chunks([Chunk(2, 600), Chunk(1, 600)], PAGE)
        assert a != b

    def test_interior_pages_of_large_chunk_identical_offsets(self):
        """A large chunk mapped at the same offset in two sequences yields
        the same page tokens for the pages it fully covers."""
        big = Chunk(9, PAGE * 3)
        a = page_tokens_for_chunks([big], PAGE)
        b = page_tokens_for_chunks([big, Chunk(1, 10)], PAGE)
        assert a[:3] == b[:3]

    def test_page_count(self):
        tokens = page_tokens_for_chunks([Chunk(1, PAGE + 1)], PAGE)
        assert len(tokens) == 2
        tokens = page_tokens_for_chunks(
            [Chunk(1, PAGE)], PAGE, base_offset=1
        )
        assert len(tokens) == 2

    def test_bad_base_offset_rejected(self):
        with pytest.raises(ValueError):
            page_tokens_for_chunks([Chunk(1, 10)], PAGE, base_offset=PAGE)
        with pytest.raises(ValueError):
            page_tokens_for_chunks([Chunk(1, 10)], PAGE, base_offset=-1)

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            page_tokens_for_chunks([Chunk(1, 10)], 0)

    def test_mixed_zero_and_data_page(self):
        """Zero bytes adjacent to data still contribute to page identity
        via the data's in-page position, not their own content."""
        a = page_tokens_for_chunks([zero_chunk(64), Chunk(1, 64)], PAGE)
        b = page_tokens_for_chunks([zero_chunk(128), Chunk(1, 64)], PAGE)
        assert a != b  # the datum sits at a different offset

    @given(chunks=chunks_strategy())
    @settings(max_examples=60)
    def test_token_count_matches_span(self, chunks):
        total = sum(chunk.size for chunk in chunks)
        tokens = page_tokens_for_chunks(chunks, PAGE)
        expected = -(-total // PAGE) if total else 0
        assert len(tokens) == expected

    @given(chunks=chunks_strategy(), offset=st.integers(0, PAGE - 1))
    @settings(max_examples=60)
    def test_deterministic(self, chunks, offset):
        assert page_tokens_for_chunks(
            chunks, PAGE, offset
        ) == page_tokens_for_chunks(list(chunks), PAGE, offset)

    @given(chunks=chunks_strategy())
    @settings(max_examples=60)
    def test_all_zero_chunks_give_zero_tokens(self, chunks):
        zeroed = [zero_chunk(chunk.size) for chunk in chunks]
        tokens = page_tokens_for_chunks(zeroed, PAGE)
        assert all(token == ZERO_TOKEN for token in tokens)


class TestFullPageChunks:
    def test_zero_content(self):
        assert page_tokens_for_chunks(
            [zero_chunk(PAGE), zero_chunk(PAGE)], PAGE
        ) == [ZERO_TOKEN, ZERO_TOKEN]

    def test_distinct_ids_distinct_tokens(self):
        tokens = page_tokens_for_chunks(
            [Chunk(1, PAGE), Chunk(2, PAGE), Chunk(3, PAGE)], PAGE
        )
        assert len(set(tokens)) == 3
        assert ZERO_TOKEN not in tokens

    def test_equal_ids_equal_tokens(self):
        assert page_tokens_for_chunks([Chunk(42, PAGE)], PAGE) == (
            page_tokens_for_chunks([Chunk(7, PAGE), Chunk(42, PAGE)], PAGE)[1:]
        )

    def test_page_size_enters_the_token(self):
        assert page_tokens_for_chunks([Chunk(6, PAGE)], PAGE) != (
            page_tokens_for_chunks([Chunk(6, 2 * PAGE)], 2 * PAGE)
        )


class TestLayoutPageCounter:
    def test_counts_every_layout_page_under_the_memo_keys(self):
        before = token_memo_stats()
        assert set(before) == {"hits", "misses", "entries", "max_entries"}
        page_tokens_for_chunks([Chunk(1, PAGE + 1)], PAGE, base_offset=5)
        after = token_memo_stats()
        assert after["misses"] - before["misses"] == 2
        assert after["hits"] == after["entries"] == after["max_entries"] == 0
