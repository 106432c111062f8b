"""Single-Source Widest Path (bottleneck shortest path).

``width(v) = max over paths p from source to v of min(weight(e) for e in p)``

— the classic max-min "bottleneck" objective (network capacity planning,
routing). It is the third distinct monotone semiring after SSSP
(min-plus) and CC (min), and exercises the engine machinery beyond the
paper's four workloads: the update is expressed on *negated* widths so
the shared MIN combiner implements MAX, demonstrating how any
monotone-decreasing relaxation maps onto the framework.

State: ``value[v] = -width(v)`` (0 for unreached vertices, ``-inf`` at
the source). Contribution along edge ``(u, v)``:
``-min(width(u), w_uv) = max(value[u], -w_uv)``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Combine, GraphContext, State, VertexProgram
from repro.utils.bitset import VertexSubset
from repro.utils.validation import require


class SSWP(VertexProgram):
    name = "sswp"
    combine = Combine.MIN
    needs_weights = True
    all_active = False
    monotonic = True  # MIN relaxation: unique bitwise fixpoint under any order

    def __init__(self, source: int = 0) -> None:
        require(source >= 0, f"source must be >= 0, got {source}")
        self.source = int(source)

    def init_state(self, ctx: GraphContext) -> State:
        require(self.source < ctx.num_vertices, "SSWP source vertex out of range")
        value = np.zeros(ctx.num_vertices, dtype=np.float64)  # width 0 = unreached
        value[self.source] = -np.inf  # infinite width at the source
        return {"value": value}

    def initial_frontier(self, ctx: GraphContext) -> VertexSubset:
        return VertexSubset.from_indices(ctx.num_vertices, [self.source])

    def gather(self, state: State, src_ids: np.ndarray, weights) -> np.ndarray:
        require(weights is not None, "SSWP requires a weighted graph")
        if weights.size:
            require(float(weights.min()) >= 0.0, "SSWP requires non-negative edge weights")
        return np.maximum(state["value"][src_ids], -weights.astype(np.float64))

    def apply(self, state, lo, hi, acc, touched) -> np.ndarray:
        current = state["value"][lo:hi]
        new = np.minimum(current, acc)
        activated = new < current
        state["value"][lo:hi] = new
        return activated

    def widths(self, state: State) -> np.ndarray:
        """Positive widths; the source reports ``inf``, unreached 0."""
        return -state["value"]
