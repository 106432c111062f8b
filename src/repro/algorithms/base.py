"""Vertex-program abstraction shared by every engine in the repository.

The paper's programming model (§4.2) exposes two user hooks:
``UserFunction`` — applied to edges to produce the current iteration's
updates — and ``CrossIterUpdate`` — the same computation used to update
*next*-iteration values in advance. In BSP terms both are the same
edge-wise *gather* followed by a vertex-wise *apply*; they differ only in
which snapshot of vertex state they read (previous-iteration values vs
the freshly applied current values) and which accumulator they feed.

We therefore factor programs into three vectorized pieces:

``gather(state, src_ids, weights) -> per-edge contributions``
    computed from the supplied state snapshot (engines pass the
    previous-iteration snapshot for in-iteration updates and the live
    state for cross-iteration updates);
``combine``
    a commutative, associative reduction over contributions per
    destination (``ADD`` or ``MIN`` — sufficient for the paper's four
    algorithms and most vertex-centric workloads);
``apply(state, lo, hi, acc, touched) -> activated``
    folds an interval's accumulated contributions into the live state
    and reports which vertices changed enough to join the next frontier.

Monotone ``MIN`` programs (CC, SSSP, BFS) and delta-accumulating ``ADD``
programs (PR-Delta) are safe under cross-iteration re-ordering: extra or
early relaxations never violate the fixpoint. Full PageRank is exact
under FCIU's ordering because sources are always final for the iteration
whose accumulator they feed (see §4.2 and `repro.core.fciu`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.utils.bitset import VertexSubset
from repro.utils.validation import require

if TYPE_CHECKING:  # the graph layer sits above this module
    from repro.graph.grid import EdgeBlock

State = Dict[str, np.ndarray]


class Combine(enum.Enum):
    """Edge-contribution reduction operator."""

    ADD = "add"
    MIN = "min"

    @property
    def identity(self) -> float:
        return 0.0 if self is Combine.ADD else np.inf


#: ADD blocks with fewer than ``acc.size / SPARSE_ADD_RATIO`` edges take
#: the ``np.add.at`` path: bincount allocates and scans a full
#: accumulator-length array per call, which dominates when a block
#: touches a handful of destinations (late SCIU iterations, tiny
#: frontiers). Dense blocks keep bincount's single C pass.
SPARSE_ADD_RATIO = 8


def scatter_combine(
    combine: Combine,
    acc: np.ndarray,
    dst_local: np.ndarray,
    contributions: np.ndarray,
    dispatch_count: Optional[int] = None,
) -> None:
    """Reduce per-edge ``contributions`` into ``acc`` at ``dst_local``.

    ``ADD`` uses :func:`numpy.bincount` (a single C pass) for dense
    blocks and the ufunc ``at`` reduction below the density threshold;
    ``MIN`` always uses ``at``. All paths tolerate repeated
    destinations. The two ADD paths round differently, so the choice is
    made on ``dispatch_count`` (default: the number of contributions):
    :func:`scatter_block` passes the block's *uncompacted* edge count,
    which keeps the path — and the bits — independent of how many
    edges the gate dropped. The dispatch depends only on sizes, so
    identical block streams reduce identically regardless of execution
    mode.
    """
    if dst_local.size == 0:
        return
    if combine is Combine.ADD:
        count = dst_local.size if dispatch_count is None else dispatch_count
        if count * SPARSE_ADD_RATIO < acc.shape[0]:
            np.add.at(acc, dst_local, contributions)
        else:
            acc += np.bincount(dst_local, weights=contributions, minlength=acc.shape[0])
    else:
        np.minimum.at(acc, dst_local, contributions)


def scatter_block(
    program: VertexProgram,
    snapshot: State,
    block: EdgeBlock,
    acc: np.ndarray,
    touched: np.ndarray,
    gate: Optional[np.ndarray] = None,
) -> None:
    """Gather ``block`` from ``snapshot`` and reduce it into ``acc``.

    ``gate`` (a per-vertex bool mask) selects the edges whose source is
    active. They are compacted *before* the gather, so inactive edges
    cost neither gather nor reduction work. Each destination that gets
    at least one contribution is marked in ``touched``.

    The result is bit-identical to gathering every edge and replacing
    inactive contributions with the combine identity. The dropped
    contributions would be ``inf`` under MIN, and ``min(x, inf) == x``.
    Under ADD they would be ``+0.0``, and ``x + 0.0 == x`` for every
    accumulator value that can occur: accumulators start at ``+0.0`` and
    round-to-nearest addition never turns them into ``-0.0``. The ADD
    path is chosen by ``block.count``, never by the compacted size.
    """
    src, dst, wgt = block.src, block.dst, block.wgt
    if gate is not None:
        keep = gate[src]
        if not keep.all():
            if not keep.any():
                return
            src, dst = src[keep], dst[keep]
            wgt = None if wgt is None else wgt[keep]
    contrib = program.gather(snapshot, src, wgt)
    scatter_combine(program.combine, acc, dst, contrib, dispatch_count=block.count)
    touched[dst] = True


@dataclass
class GraphContext:
    """Static graph facts a program may need at initialization.

    ``out_degrees`` is required by degree-normalizing programs
    (PageRank); engines that lack it can derive it from the grid store
    with one charged scan.
    """

    num_vertices: int
    num_edges: int
    out_degrees: Optional[np.ndarray] = None
    params: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_edges(cls, edges) -> "GraphContext":
        """Build a context from an in-memory edge list (no charged I/O).

        Callers that still hold the raw :class:`~repro.graph.edgelist.EdgeList`
        should pass ``ctx=GraphContext.from_edges(edges)`` to the engine so
        it skips the fallback charged degree scan in ``build_context``.
        """
        degrees = np.bincount(edges.src, minlength=edges.num_vertices).astype(np.int64)
        return cls(
            num_vertices=edges.num_vertices,
            num_edges=edges.num_edges,
            out_degrees=degrees,
        )

    def require_out_degrees(self) -> np.ndarray:
        require(self.out_degrees is not None, "this program requires out_degrees in the context")
        return self.out_degrees


class VertexProgram:
    """Base class for vertex programs. Subclasses override the hooks below.

    Class attributes:

    ``name``
        registry key and display name.
    ``combine``
        the contribution reduction (:class:`Combine`).
    ``needs_weights``
        whether the program reads edge weights (SSSP does).
    ``all_active``
        ``True`` for programs where every vertex participates every
        iteration (plain PageRank); such programs are scheduled with the
        full I/O model unconditionally.
    ``max_iterations``
        hard iteration cap (``None`` = run to an empty frontier).
    ``monotonic``
        ``True`` when the program is a monotone fixpoint computation —
        extra, early, or re-ordered relaxations never move the final
        state past its fixpoint (MIN relaxations like SSSP/CC, and
        delta-accumulating ADD programs whose contributions only refine
        the result). Only monotonic programs are admitted to the
        asynchronous execution mode (:mod:`repro.core.async_engine`);
        power-iteration PageRank is the canonical non-monotonic case.
        Every concrete program must declare this explicitly (asserted by
        the registry test suite).
    """

    name: str = "abstract"
    combine: Combine = Combine.MIN
    needs_weights: bool = False
    all_active: bool = False
    max_iterations: Optional[int] = None
    monotonic: bool = False
    #: state arrays whose entries must be neutralized (set to the given
    #: value) for *inactive* vertices before a full-scan gather. Needed
    #: by delta-accumulating programs (PR-Delta), where an inactive
    #: vertex's delta has already been propagated. Pairs of
    #: ``(array_name, neutral_value)``.
    gated_arrays: tuple = ()

    # -- lifecycle hooks ---------------------------------------------------

    def init_state(self, ctx: GraphContext) -> State:
        """Allocate and initialize the per-vertex state arrays."""
        raise NotImplementedError

    def initial_frontier(self, ctx: GraphContext) -> VertexSubset:
        """The vertices active in the first iteration."""
        raise NotImplementedError

    def gather(self, state: State, src_ids: np.ndarray, weights: Optional[np.ndarray]) -> np.ndarray:
        """Per-edge contribution computed from ``state`` at the sources."""
        raise NotImplementedError

    def apply(
        self,
        state: State,
        lo: int,
        hi: int,
        acc: np.ndarray,
        touched: np.ndarray,
    ) -> np.ndarray:
        """Fold interval ``[lo, hi)``'s accumulator into ``state`` in place.

        ``acc`` and ``touched`` have length ``hi - lo``; ``touched`` marks
        destinations that received at least one contribution. Returns a
        boolean array (length ``hi - lo``) of vertices activated for the
        next iteration.
        """
        raise NotImplementedError

    # -- derived helpers -----------------------------------------------

    def state_value_bytes(self, state: State) -> int:
        """Bytes of state per vertex — ``N`` in the paper's Table 2."""
        return int(sum(a.dtype.itemsize for a in state.values()))

    def copy_state(self, state: State) -> State:
        """Snapshot the state (engines snapshot at each iteration boundary)."""
        return {k: v.copy() for k, v in state.items()}

    def acc_array(self, length: int) -> np.ndarray:
        """A fresh accumulator filled with the combine identity."""
        return np.full(length, self.combine.identity, dtype=np.float64)

    def result(self, state: State) -> np.ndarray:
        """The program's primary output array (default: ``state['value']``)."""
        return state["value"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VertexProgram {self.name}>"
