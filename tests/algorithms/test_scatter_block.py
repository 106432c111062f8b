"""The gate-first scatter kernel is bit-identical to gather-then-neutralize.

:func:`repro.algorithms.base.scatter_block` drops edges whose source is
outside the gate *before* gathering. The formulation it replaced
gathered every edge, replaced inactive contributions with the combine
identity, and reduced the whole block. Both must leave ``acc`` and
``touched`` bitwise equal, for ADD and MIN, for every gate, and on both
sides of the ADD dispatch threshold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import (
    SPARSE_ADD_RATIO,
    Combine,
    VertexProgram,
    scatter_block,
    scatter_combine,
)
from repro.graph.grid import EdgeBlock


class _Push(VertexProgram):
    """Contribution ``value[src] + weight`` under the given combine."""

    name = "push"
    needs_weights = True

    def __init__(self, combine: Combine) -> None:
        self.combine = combine

    def gather(self, state, src_ids, weights):
        return state["value"][src_ids] + weights


def _reference(program, snapshot, block, acc, touched, gate):
    """The replaced formulation: gather all edges, neutralize inactive ones."""
    contrib = program.gather(snapshot, block.src, block.wgt)
    edge_mask = np.ones(block.count, dtype=bool) if gate is None else gate[block.src]
    contrib = np.where(edge_mask, contrib, program.combine.identity)
    scatter_combine(program.combine, acc, block.dst, contrib)
    touched[block.dst[edge_mask]] = True


def _assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def scatter_cases(draw):
    n = draw(st.integers(1, 200))
    m = draw(st.integers(0, 60))
    src = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), np.int64)
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), np.int64)
    wgt = np.array(draw(st.lists(finite, min_size=m, max_size=m)), np.float64)
    value = np.array(draw(st.lists(finite, min_size=n, max_size=n)), np.float64)
    gate_kind = draw(st.sampled_from(["ungated", "all", "none", "some"]))
    if gate_kind == "ungated":
        gate = None
    elif gate_kind == "some":
        gate = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
    else:
        gate = np.full(n, gate_kind == "all")
    combine = draw(st.sampled_from([Combine.ADD, Combine.MIN]))
    # Accumulators as they occur: the identity folded with earlier
    # contributions. Adding +0.0 maps a drawn -0.0 to +0.0, which no
    # round-to-nearest sum starting from +0.0 can produce.
    acc = np.array(draw(st.lists(finite, min_size=n, max_size=n)), np.float64) + 0.0
    if combine is Combine.MIN:
        acc[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)] = np.inf
    return combine, EdgeBlock(0, 0, src, dst, wgt), {"value": value}, acc, gate


@settings(max_examples=400, deadline=None)
@given(case=scatter_cases())
def test_gate_first_kernel_matches_neutralized_reference(case):
    combine, block, snapshot, acc0, gate = case
    program = _Push(combine)
    expected_acc, expected_touched = acc0.copy(), np.zeros(acc0.size, bool)
    _reference(program, snapshot, block, expected_acc, expected_touched, gate)
    acc, touched = acc0.copy(), np.zeros(acc0.size, bool)
    scatter_block(program, snapshot, block, acc, touched, gate)
    _assert_bitwise_equal(acc, expected_acc)
    _assert_bitwise_equal(touched, expected_touched)


def test_add_dispatch_follows_the_uncompacted_block_count():
    # Three edges into an accumulator of 24: 3 * 8 == 24 is not below 24,
    # so the full block takes the bincount path. The gate keeps two
    # edges; 2 * 8 < 24 would pick np.add.at, which rounds differently:
    # add.at computes (1 + 2**-53) + 2**-53 == 1 (each add ties to even),
    # bincount computes 1 + (2**-53 + 2**-53) == 1 + 2**-52.
    n = 3 * SPARSE_ADD_RATIO
    tiny = 2.0**-53
    program = _Push(Combine.ADD)
    snapshot = {"value": np.array([tiny, tiny, 5.0] + [0.0] * (n - 3))}
    block = EdgeBlock(0, 0, np.array([0, 1, 2]), np.array([0, 0, 0]), np.zeros(3))
    gate = np.zeros(n, bool)
    gate[[0, 1]] = True
    acc0 = np.zeros(n)
    acc0[0] = 1.0

    expected, expected_touched = acc0.copy(), np.zeros(n, bool)
    _reference(program, snapshot, block, expected, expected_touched, gate)
    acc, touched = acc0.copy(), np.zeros(n, bool)
    scatter_block(program, snapshot, block, acc, touched, gate)
    assert expected[0] == 1.0 + 2.0**-52
    _assert_bitwise_equal(acc, expected)
    _assert_bitwise_equal(touched, expected_touched)

    # Dispatching on the compacted size would change the bits.
    compacted = acc0.copy()
    scatter_combine(Combine.ADD, compacted, block.dst[:2], np.array([tiny, tiny]))
    assert compacted[0] == 1.0 and compacted[0] != acc[0]
