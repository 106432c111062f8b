"""Vertex programs: the paper's four evaluation algorithms plus BFS.

All programs are written against the vectorized gather/combine/apply API
of :mod:`repro.algorithms.base` and run unchanged on every engine in the
repository (GraphSD, the ablation variants, and all baselines).
"""

from repro.algorithms.base import (
    Combine,
    GraphContext,
    State,
    VertexProgram,
    scatter_block,
    scatter_combine,
)
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.pagerank import PageRank
from repro.algorithms.pagerank_delta import PageRankDelta
from repro.algorithms.ppr import PersonalizedPageRank
from repro.algorithms.sssp import SSSP
from repro.algorithms.sswp import SSWP
from repro.algorithms.registry import (
    AlgorithmSpec,
    available_programs,
    get_spec,
    make_program,
    registered_program_classes,
)

__all__ = [
    "Combine",
    "GraphContext",
    "State",
    "VertexProgram",
    "scatter_block",
    "scatter_combine",
    "BFS",
    "ConnectedComponents",
    "PageRank",
    "PageRankDelta",
    "PersonalizedPageRank",
    "SSSP",
    "SSWP",
    "AlgorithmSpec",
    "available_programs",
    "get_spec",
    "make_program",
    "registered_program_classes",
]
