"""The grid builder's packed-key sort gives exactly the stable lexsort order."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeList, GridStore, VertexIntervals
from repro.graph.grid import _stable_order
from repro.storage import Device, SimulatedDisk


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 400),
    P=st.integers(1, 20),
    num_vertices=st.sampled_from([1, 7, 300, 1 << 20, 1 << 31]),
    seed=st.integers(0, 10_000),
)
def test_packed_order_equals_lexsort(n, P, num_vertices, seed):
    rng = np.random.default_rng(seed)
    # Few distinct values so that ties, and so stability, matter.
    src = rng.integers(0, min(num_vertices, 5 + seed % 50), n).astype(np.uint32)
    dst = rng.integers(0, min(num_vertices, 5 + seed % 30), n).astype(np.uint32)
    j = rng.integers(0, P, n).astype(np.uint8)
    i = rng.integers(0, P, n).astype(np.uint8)
    interval_bits = (P - 1).bit_length()
    vertex_bits = (num_vertices - 1).bit_length()

    sorted_keys = [(j, interval_bits), (src, vertex_bits), (dst, vertex_bits)]
    expected = np.lexsort((dst, src, j))
    assert np.array_equal(_stable_order(sorted_keys, n), expected)

    lumos_keys = [(j, interval_bits), (i, interval_bits)]
    expected = np.argsort(j.astype(np.int64) * P + i, kind="stable")
    assert np.array_equal(_stable_order(lumos_keys, n), expected)


@pytest.fixture
def lexsort_calls(monkeypatch):
    """Records the number of keys of every ``np.lexsort`` call."""
    calls = []
    lexsort = np.lexsort

    def spy(keys):
        calls.append(len(keys))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    return calls


def test_keys_wider_than_63_bits_fall_back_to_lexsort(lexsort_calls):
    a = np.array([3, 1, 3, 1], dtype=np.uint32)
    b = np.array([0, 5, 0, 2], dtype=np.uint32)
    assert _stable_order([(a, 2), (b, 3)], 4).tolist() == [3, 1, 0, 2]
    assert lexsort_calls == []
    # 31 + 31 + 2 index bits > 63: too wide to pack.
    assert _stable_order([(a, 31), (b, 31)], 4).tolist() == [3, 1, 0, 2]
    assert lexsort_calls == [2]


def test_build_over_2_to_31_ids_falls_back_and_keeps_order(tmp_path, lexsort_calls):
    # 3 interval bits + 31 + 31 vertex bits > 63, so the build takes the
    # lexsort path; a per-vertex table over 2**31 ids would be 2 GiB.
    n = 1 << 31
    src = np.array([n - 1, 5, n - 1, 5, 1 << 30, 7, 0, 5], dtype=np.uint32)
    dst = np.array([0, n - 1, 0, 3, 1 << 30, 7, n - 2, 3], dtype=np.uint32)
    wgt = np.arange(8, dtype=np.float32)
    edges = EdgeList(n, src, dst, wgt)
    intervals = VertexIntervals(np.linspace(0, n, 9).astype(np.int64))

    tracemalloc.start()
    store = GridStore.build(
        edges, intervals, Device(tmp_path / "dev", SimulatedDisk()),
        indexed=False, sort_within_blocks=True,
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert lexsort_calls == [3]
    assert peak < (1 << 20)

    j = intervals.interval_of(dst).astype(np.int64)
    i = intervals.interval_of(src).astype(np.int64)
    order = np.lexsort((dst, src, j * 8 + i))
    blocks = [store.load_block(i, j) for i, j in store.iter_blocks_dst_major()]
    assert np.concatenate([b.src for b in blocks]).tolist() == src[order].tolist()
    assert np.concatenate([b.dst for b in blocks]).tolist() == dst[order].tolist()
    assert np.concatenate([b.wgt for b in blocks]).tolist() == wgt[order].tolist()
    store.validate()


def test_interval_of_sparse_ids_allocates_no_table():
    n = 1 << 31
    intervals = VertexIntervals(np.array([0, 10, 1 << 30, n], dtype=np.int64))
    ids = np.array([0, 9, 10, n - 1, 1 << 30], dtype=np.uint32)
    tracemalloc.start()
    got = intervals.interval_of(ids)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert got.dtype == np.uint8
    assert got.tolist() == [0, 0, 1, 2, 2]
    assert peak < (1 << 16)


def test_interval_of_table_and_search_agree():
    intervals = VertexIntervals(np.array([0, 3, 3, 10, 300], dtype=np.int64))
    dense = np.arange(300, dtype=np.int64)  # table: 300 B <= 2400 B of ids
    expected = np.searchsorted(intervals.boundaries, dense, side="right") - 1
    assert intervals.interval_of(dense).tolist() == expected.tolist()
    for v in (0, 2, 3, 9, 10, 299):  # one id: binary search
        assert intervals.interval_of(np.array([v])).tolist() == [expected[v]]
