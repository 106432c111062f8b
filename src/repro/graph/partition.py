"""Vertex intervals and the 2-D grid assignment (§3.2).

The vertex set is split into ``P`` disjoint, contiguous *intervals*;
sub-block ``(i, j)`` then holds the edges whose source lies in interval
``i`` and destination in interval ``j``. Two interval constructions are
provided:

* ``balanced_vertices`` — equal id ranges (what GridGraph-style systems
  use by default);
* ``balanced_edges`` — boundaries chosen so each interval owns roughly
  ``|E| / P`` out-edges, which evens out sub-block sizes on skewed
  (power-law) graphs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.degree import out_degrees
from repro.graph.edgelist import EdgeList
from repro.utils.validation import require


class VertexIntervals:
    """``P`` contiguous half-open vertex id ranges covering [0, num_vertices).

    ``boundaries`` has length ``P + 1`` with ``boundaries[0] == 0`` and
    ``boundaries[P] == num_vertices``; interval ``i`` is
    ``[boundaries[i], boundaries[i+1])``.
    """

    def __init__(self, boundaries: np.ndarray) -> None:
        b = np.ascontiguousarray(boundaries, dtype=np.int64)
        require(b.ndim == 1 and b.shape[0] >= 2, "need at least one interval")
        require(b[0] == 0, "boundaries must start at 0")
        require(bool(np.all(np.diff(b) >= 0)), "boundaries must be non-decreasing")
        self.boundaries = b

    @property
    def P(self) -> int:
        """Number of intervals (`P` in the paper's notation)."""
        return self.boundaries.shape[0] - 1

    @property
    def num_vertices(self) -> int:
        return int(self.boundaries[-1])

    def bounds(self, i: int) -> Tuple[int, int]:
        """``(lo, hi)`` of interval ``i``."""
        require(0 <= i < self.P, f"interval index {i} out of range")
        return int(self.boundaries[i]), int(self.boundaries[i + 1])

    def size(self, i: int) -> int:
        lo, hi = self.bounds(i)
        return hi - lo

    def sizes(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def interval_of(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Vectorized interval lookup for an array of vertex ids.

        Returns the narrowest unsigned dtype that holds ``P - 1``. When a
        per-vertex lookup table is no larger than ``vertex_ids`` itself,
        each id is one table load; sparse id spaces (few ids over a huge
        universe) binary-search the boundaries instead, so the lookup
        never allocates more than its input.
        """
        ids = np.asarray(vertex_ids)
        if ids.size:
            require(
                int(ids.min()) >= 0 and int(ids.max()) < self.num_vertices,
                "vertex id out of range",
            )
        dtype = np.min_scalar_type(max(self.P - 1, 0))
        if self.num_vertices * dtype.itemsize <= ids.nbytes:
            table = np.repeat(np.arange(self.P, dtype=dtype), self.sizes())
            return table[ids]
        return (np.searchsorted(self.boundaries, ids, side="right") - 1).astype(dtype)

    def as_ranges(self) -> List[Tuple[int, int]]:
        return [self.bounds(i) for i in range(self.P)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexIntervals):
            return NotImplemented
        return bool(np.array_equal(self.boundaries, other.boundaries))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VertexIntervals(P={self.P}, |V|={self.num_vertices})"


def make_intervals(
    edges: EdgeList,
    P: int,
    mode: str = "balanced_edges",
) -> VertexIntervals:
    """Construct ``P`` intervals over ``edges.num_vertices`` ids.

    ``balanced_edges`` places boundaries at the out-degree distribution's
    ``k/P`` quantiles so every interval carries a similar edge load;
    ``balanced_vertices`` splits the id space evenly.
    """
    require(P >= 1, f"P must be >= 1, got {P}")
    n = edges.num_vertices
    require(mode in ("balanced_vertices", "balanced_edges"), f"unknown mode {mode!r}")

    if mode == "balanced_vertices" or edges.num_edges == 0:
        boundaries = np.linspace(0, n, P + 1).round().astype(np.int64)
        boundaries[0], boundaries[-1] = 0, n
        return VertexIntervals(boundaries)

    cumulative = np.cumsum(out_degrees(edges))
    total = cumulative[-1]
    targets = total * np.arange(1, P, dtype=np.float64) / P
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    boundaries = np.concatenate(([0], np.minimum(cuts, n), [n])).astype(np.int64)
    # Enforce monotonicity in degenerate cases (e.g. one huge-degree vertex).
    boundaries = np.maximum.accumulate(boundaries)
    return VertexIntervals(boundaries)
