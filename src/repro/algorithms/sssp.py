"""Single-Source Shortest Paths (Bellman-Ford style relaxation).

The frontier holds vertices whose tentative distance improved in the
previous iteration; each iteration relaxes their out-edges. Iteration
``t`` of the synchronous schedule computes exact shortest paths using at
most ``t`` hops, and the algorithm converges in at most
``num_vertices - 1`` iterations. Requires non-negative edge weights
(checked on every gather).

This is the paper's most I/O-diverse workload: the frontier starts tiny
(one vertex), swells through the graph's bulk, then collapses — exactly
the trajectory that exercises the state-aware scheduler's switching
between on-demand and full I/O (their Fig. 10 runs CC, but SSSP shows
the same crossover pattern).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Combine, GraphContext, State, VertexProgram
from repro.utils.bitset import VertexSubset
from repro.utils.validation import require


class SSSP(VertexProgram):
    name = "sssp"
    combine = Combine.MIN
    needs_weights = True
    all_active = False
    monotonic = True  # MIN relaxation: unique bitwise fixpoint under any order

    def __init__(self, source: int = 0) -> None:
        require(source >= 0, f"source must be >= 0, got {source}")
        self.source = int(source)

    def init_state(self, ctx: GraphContext) -> State:
        require(self.source < ctx.num_vertices, "SSSP source vertex out of range")
        dist = np.full(ctx.num_vertices, np.inf, dtype=np.float64)
        dist[self.source] = 0.0
        return {"value": dist}

    def initial_frontier(self, ctx: GraphContext) -> VertexSubset:
        return VertexSubset.from_indices(ctx.num_vertices, [self.source])

    def gather(self, state: State, src_ids: np.ndarray, weights) -> np.ndarray:
        require(weights is not None, "SSSP requires a weighted graph")
        if weights.size:
            require(float(weights.min()) >= 0.0, "SSSP requires non-negative edge weights")
        return state["value"][src_ids] + weights

    def apply(self, state, lo, hi, acc, touched) -> np.ndarray:
        current = state["value"][lo:hi]
        new = np.minimum(current, acc)
        activated = new < current
        state["value"][lo:hi] = new
        return activated
