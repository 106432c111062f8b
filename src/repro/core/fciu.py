"""Full Cross-Iteration Update — Algorithm 3 of the paper.

Executed when the scheduler picks the full I/O model. One FCIU round
covers **two** consecutive BSP iterations:

Phase 1 (iteration ``t``)
    Stream the whole grid destination-major (outer ``j``, inner ``i``).
    Every block contributes to iteration ``t``'s accumulator from the
    previous-iteration snapshot. Additionally, blocks ``(i, j)`` with
    ``i < j`` contribute to iteration ``t+1``'s accumulator from the
    *current* state — their source intervals were applied earlier in
    this very sweep, so their iteration-``t`` values are final (the BSP
    dependency the paper exploits). The diagonal block ``(j, j)`` is
    held in memory until interval ``j`` is applied, then cross-pushed
    the same way. *Secondary* blocks (``i > j``) cannot cross-push; they
    are offered to the priority buffer for phase 2.

Phase 2 (iteration ``t+1``)
    Only the secondary (lower-triangle) blocks are re-read — from the
    buffer when resident, else from disk — gated to the vertices
    activated in phase 1; every interval is then applied using the
    accumulated phase-1 cross contributions plus these reads.

When cross-iteration update is disabled (ablation GraphSD-b1) or only
one iteration remains in the budget, the round degrades to a single
plain full-I/O iteration.

Plan-then-consume execution
---------------------------
Both phases run as a *block plan* (one load thunk per destination
column) consumed through the engine's
:class:`~repro.storage.prefetch.BlockPrefetcher`: with pipelining
enabled, column ``j+1`` loads on a background thread while column ``j``
gathers and applies, inside a clock
:class:`~repro.utils.timers.OverlapRegion`. Two invariants keep
pipelined execution bit-identical to serial:

* the single worker executes columns strictly in sweep order, so the
  disk-operation stream (charges, page-cache state, injected faults) is
  exactly the serial one;
* buffer admissions for column ``j`` are hoisted to the start of its
  consume step (they depend only on residency and priorities fixed
  before the column's gathers), and the worker's residency check for
  column ``j+1`` waits on a gate set right after those admissions — the
  buffer evolves exactly as in serial execution.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # engine.py imports this module; import only for types
    from repro.core.engine import GraphSDEngine

from repro.graph.grid import EdgeBlock
from repro.storage.prefetch import BlockPrefetcher
from repro.utils.bitset import VertexSubset
from repro.utils.timers import COMPUTE

#: A deferred column load: returns ``(i, block, from_cache)`` triples.
_ColumnTask = Callable[[], List[Tuple[int, EdgeBlock, bool]]]


def _load_column_buffered(
    engine: "GraphSDEngine", j: int, i_lo: int
) -> List[Tuple[int, EdgeBlock, bool]]:
    """Load blocks ``(i_lo.., j)``, serving from the buffer when possible.

    Uncached blocks are fetched in contiguous runs (one sequential read
    per run per column file). Returns ``(i, block, from_cache)`` triples
    in ascending ``i``.
    """
    store = engine.store
    P = store.P
    cached = {}
    if engine.buffer_enabled:
        for i in range(i_lo, P):
            if store.block_edge_count(i, j) == 0:
                continue
            block = engine.buffer.get((i, j))
            if block is not None:
                cached[i] = block
                engine.disk.stats.buffer_hit_bytes += engine.buffer.size_of((i, j))

    out: List[Tuple[int, EdgeBlock, bool]] = []
    run_start = None
    loaded = {}

    def flush(run_end: int) -> None:
        nonlocal run_start
        if run_start is not None:
            for blk in store.load_block_range(j, run_start, run_end):
                loaded[blk.i] = blk
            run_start = None

    for i in range(i_lo, P):
        if i in cached:
            flush(i)
        elif run_start is None:
            run_start = i
    flush(P)

    for i in range(i_lo, P):
        if i in cached:
            out.append((i, cached[i], True))
        elif i in loaded:
            out.append((i, loaded[i], False))
    return out


def _count_active_edges(
    engine: "GraphSDEngine", block: EdgeBlock, mask: np.ndarray
) -> int:
    """Number of edges whose source is in ``mask`` (the buffer priority)."""
    count = int(np.count_nonzero(mask[block.src]))
    engine.clock.charge(COMPUTE, engine.machine.vertex_compute_time(block.count))
    return count


def _column_tasks(
    engine: "GraphSDEngine",
    prefetcher: "BlockPrefetcher",
    i_lo_of: Callable[[int], int],
    gates: Optional[List[threading.Event]] = None,
) -> List[_ColumnTask]:
    """One load thunk per destination column, gated when requested.

    ``gates[j]`` (when given) must be set before the worker may start
    column ``j + 1`` — FCIU phase 1 sets it once column ``j``'s buffer
    admissions are complete, so the worker's residency checks always see
    the same buffer state as a serial sweep.
    """
    P = engine.store.P

    def make_task(j: int) -> _ColumnTask:
        def task() -> List[Tuple[int, EdgeBlock, bool]]:
            if gates is not None and j > 0:
                prefetcher.wait_gate(gates[j - 1])
            return _load_column_buffered(engine, j, i_lo_of(j))

        return task

    return [make_task(j) for j in range(P)]


def run_fciu_round(engine: "GraphSDEngine") -> VertexSubset:
    """Execute one FCIU round on a :class:`~repro.core.engine.GraphSDEngine`."""
    program = engine.program
    store = engine.store
    P = store.P
    n = engine.ctx.num_vertices
    frontier = engine.frontier
    do_cross = engine.config.enable_cross_iteration and engine.iterations_remaining >= 2

    # ---- Phase 1: iteration t -------------------------------------------
    token = engine.begin_iteration()
    prev = program.copy_state(engine.state)
    acc, touched = engine.take_carried_accumulator()
    acc_next, touched_next = engine.acc_next, engine.touched_next
    gate = None if program.all_active else frontier.mask

    activated_mask = np.zeros(n, dtype=bool)
    edges1 = 0
    blocks1 = 0
    prefetcher = engine.make_prefetcher()
    admit = engine.buffer_enabled
    gates = [threading.Event() for _ in range(P)] if admit else None
    tasks = _column_tasks(engine, prefetcher, lambda j: 0, gates=gates)
    phase1_span = engine.tracer.span(
        "fciu.phase1", cat="phase", cross=do_cross, columns=P
    )
    with phase1_span, engine.overlap_region() as region:
        if region is not None:
            tasks[0] = region.measure_fill(tasks[0])
        stream = prefetcher.run(tasks)
        try:
            for j in range(P):
                column = next(stream)
                if admit:
                    # Admissions first: residency and priorities at this
                    # point are exactly what a serial sweep would see
                    # (nothing between column start and each put touches
                    # the buffer), and opening the gate here lets the
                    # worker check column j+1's residency safely.
                    for i, block, from_cache in column:
                        # Admission is budgeted in *encoded* (on-disk)
                        # bytes: what buffering saves is the block's
                        # re-read, so a compact store's buffer fits more
                        # secondary blocks per byte of budget.
                        stored_bytes = store.block_nbytes(i, j)
                        if (
                            i > j
                            and not from_cache
                            and stored_bytes <= engine.buffer.capacity_bytes
                        ):
                            priority = _count_active_edges(
                                engine,
                                block,
                                frontier.mask if gate is not None else np.ones(n, bool),
                            )
                            engine.buffer.put((i, j), block, priority, nbytes=stored_bytes)
                    gates[j].set()
                    engine.tracer.metrics.set_gauge(
                        "buffer.occupancy_bytes", engine.buffer.used_bytes
                    )

                diag_block = None
                for i, block, _from_cache in column:
                    engine._crash_point("mid-scatter")
                    engine.scatter_block(prev, block, acc, touched, gate_mask=gate)
                    edges1 += block.count
                    blocks1 += 1
                    if do_cross and i < j:
                        # Sources in interval i are final for iteration t:
                        # push their t+1 contributions now (Algorithm 3,
                        # lines 7-11).
                        engine.scatter_block(
                            engine.state, block, acc_next, touched_next, gate_mask=activated_mask
                        )
                    if i == j:
                        diag_block = block  # held in memory (Algorithm 3, line 13)

                engine.apply_interval(j, acc, touched, activated_mask)

                if do_cross and diag_block is not None and diag_block.count:
                    # Interval j just finished updating; its diagonal block
                    # can now cross-push (Algorithm 3, lines 13-16).
                    engine.scatter_block(
                        engine.state, diag_block, acc_next, touched_next, gate_mask=activated_mask
                    )

                if engine.buffer_enabled:
                    # Interval j's activations are now known; re-rank the
                    # cached secondary blocks whose sources live in interval
                    # j (§4.3: "the priority ... automatically updated after
                    # the processing of this secondary sub-block").
                    for jj in range(j):
                        resident = engine.buffer._blocks.get((j, jj))
                        if resident is not None:
                            engine.buffer.update_priority(
                                (j, jj), _count_active_edges(engine, resident, activated_mask)
                            )
        finally:
            stream.close()

    engine._store_state()
    activated1 = int(np.count_nonzero(activated_mask))
    if do_cross:
        upper_diag_bytes = sum(
            store.block_nbytes(i, j) for j in range(P) for i in range(j + 1)
        )
        engine.charge_future_value_overhead(upper_diag_bytes)
    engine.end_iteration(
        token,
        "fciu" if do_cross else "full",
        frontier.count,
        edges1,
        activated1,
        cross_pushed=activated1 if do_cross else 0,
        subblocks_processed=blocks1,
    )

    if not do_cross:
        return VertexSubset(n, activated_mask)
    if activated1 == 0 and not touched_next.any():
        # Nothing was activated and nothing was pre-pushed: iteration
        # t+1 would be a no-op, so the round ends converged.
        return VertexSubset(n, activated_mask)

    # ---- Phase 2: iteration t+1 (secondary sub-blocks only) ---------------
    token = engine.begin_iteration()
    prev2 = program.copy_state(engine.state)
    gate2 = None if program.all_active else activated_mask
    acc2, touched2 = engine.take_carried_accumulator()

    new_activated = np.zeros(n, dtype=bool)
    edges2 = 0
    blocks2 = 0
    prefetcher2 = engine.make_prefetcher()
    # No gating: phase 2 never mutates the buffer, so lookahead residency
    # checks are race-free.
    tasks2 = _column_tasks(engine, prefetcher2, lambda j: j + 1)
    phase2_span = engine.tracer.span("fciu.phase2", cat="phase", columns=P)
    with phase2_span, engine.overlap_region() as region2:
        if region2 is not None:
            tasks2[0] = region2.measure_fill(tasks2[0])
        stream2 = prefetcher2.run(tasks2)
        try:
            for j in range(P):
                for i, block, _from_cache in next(stream2):
                    engine._crash_point("mid-scatter")
                    engine.scatter_block(prev2, block, acc2, touched2, gate_mask=gate2)
                    edges2 += block.count
                    blocks2 += 1
                engine.apply_interval(j, acc2, touched2, new_activated)
        finally:
            stream2.close()

    engine._store_state()
    engine.end_iteration(
        token,
        "fciu2",
        activated1,
        edges2,
        int(np.count_nonzero(new_activated)),
        subblocks_processed=blocks2,
    )
    return VertexSubset(n, new_activated)
