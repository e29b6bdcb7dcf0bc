"""Unit and property tests for the max-heap behind Pack_Disks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.heap import MaxHeap


class TestBasics:
    def test_empty(self):
        h = MaxHeap()
        assert len(h) == 0
        assert not h
        with pytest.raises(IndexError):
            h.pop()
        with pytest.raises(IndexError):
            h.peek()

    def test_push_pop_descending(self):
        h = MaxHeap()
        for k in (3.0, 1.0, 4.0, 1.5, 9.0):
            h.push(k, f"p{k}")
        keys = [h.pop()[0] for _ in range(len(h))]
        assert keys == [9.0, 4.0, 3.0, 1.5, 1.0]

    def test_bulk_construction_matches_pushes(self):
        entries = [(float(k), k) for k in (5, 2, 8, 1, 9, 3)]
        bulk = MaxHeap(entries)
        incremental = MaxHeap()
        for k, p in entries:
            incremental.push(k, p)
        assert bulk.as_sorted_list() == incremental.as_sorted_list()

    def test_peek_does_not_remove(self):
        h = MaxHeap([(1.0, "a"), (2.0, "b")])
        assert h.peek() == (2.0, "b")
        assert len(h) == 2

    def test_fifo_tie_breaking(self):
        h = MaxHeap()
        for name in ("first", "second", "third"):
            h.push(1.0, name)
        assert [h.pop()[1] for _ in range(3)] == ["first", "second", "third"]

    def test_fifo_ties_survive_mixed_operations(self):
        h = MaxHeap([(1.0, "a"), (2.0, "x")])
        h.pop()  # remove "x"
        h.push(1.0, "b")
        h.push(1.0, "c")
        assert [h.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_payloads_travel_with_keys(self):
        h = MaxHeap([(2.5, {"id": 1}), (7.5, {"id": 2})])
        key, payload = h.pop()
        assert key == 7.5
        assert payload == {"id": 2}


class TestProperties:
    @given(st.lists(st.floats(-1e9, 1e9), max_size=300))
    def test_pop_order_is_sorted_descending(self, keys):
        h = MaxHeap((k, i) for i, k in enumerate(keys))
        out = [h.pop()[0] for _ in range(len(keys))]
        assert out == sorted(keys, reverse=True)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["push", "pop"]), st.floats(-100, 100)),
            max_size=200,
        )
    )
    def test_invariant_under_mixed_operations(self, ops):
        h = MaxHeap()
        for op, key in ops:
            if op == "push" or not h:
                h.push(key, None)
            else:
                h.pop()
            h.check_invariant()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_heapify_invariant(self, keys):
        h = MaxHeap((k, None) for k in keys)
        h.check_invariant()

    @given(st.lists(st.floats(0, 100), max_size=100))
    def test_as_sorted_list_is_nondestructive(self, keys):
        h = MaxHeap((k, None) for k in keys)
        before = len(h)
        h.as_sorted_list()
        assert len(h) == before


class TestSameOrderAsReferenceSort:
    """Pops follow (key descending, insertion order), bit for bit."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "push", "pop"]),
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e300]),
            ),
            max_size=300,
        ),
        st.lists(st.sampled_from([0.0, -0.0, 3.0, 3.0, -2.0]), max_size=20),
    )
    def test_interleaved_ties_and_signed_zeros(self, ops, initial):
        h = MaxHeap((k, ("init", i)) for i, k in enumerate(initial))
        live = [(k, i, ("init", i)) for i, k in enumerate(initial)]
        seq = len(initial)
        for n, (op, key) in enumerate(ops):
            if op == "push" or not live:
                h.push(key, ("op", n))
                live.append((key, seq, ("op", n)))
                seq += 1
                continue
            # Reference: the largest key (-0.0 == 0.0), oldest first.
            want = min(live, key=lambda e: (-e[0], e[1]))
            live.remove(want)
            key_out, payload = h.pop()
            assert payload == want[2]
            assert key_out.hex() == want[0].hex()
        assert [p for _, p in h.as_sorted_list()] == [
            e[2] for e in sorted(live, key=lambda e: (-e[0], e[1]))
        ]
        h.check_invariant()
