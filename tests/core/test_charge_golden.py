"""Charged simulated time, I/O counters and values, pinned to recorded figures.

The gather/scatter kernels may change how much *wall* work they do (for
example by skipping edges whose source is inactive), but never what is
charged: compute is charged per full block and every block is still
read and checksummed in full. This test pins, for small R-MAT runs of
SSSP, CC and PR-Delta on each engine shape, the per-component simulated
times, every I/O counter, and the SHA-256 of the result values to the
figures in ``golden_charges.json``.

``prefetch_hits`` is excluded: whether the consumer finds a prefetched
block ready depends on thread timing, not on the program.

To re-record after a *declared* change of the cost model::

    PYTHONPATH=src python -m tests.core.test_charge_golden > tests/core/golden_charges.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.algorithms.base import GraphContext
from repro.cluster import ClusterConfig, ClusterEngine
from repro.core import AsyncGraphSDEngine, GraphSDConfig, GraphSDEngine
from repro.datasets.rmat import rmat_edges
from repro.datasets.synthetic import with_uniform_weights
from tests.conftest import build_store

GOLDEN = Path(__file__).with_name("golden_charges.json")
ALGOS = ("sssp", "cc", "pagerank_delta")
ENGINES = ("serial", "pipelined", "async", "cluster4")
#: Counters that depend on thread timing rather than on the program.
TIMING_COUNTERS = ("prefetch_hits",)


def _edges(algo: str):
    edges = with_uniform_weights(rmat_edges(scale=9, edge_factor=8, seed=7), seed=8)
    return edges.symmetrized() if algo == "cc" else edges


def _program(algo: str):
    return make_program(algo, iterations=15) if algo == "pagerank_delta" else make_program(algo)


def measure(engine: str, algo: str, tmp_path: Path) -> dict:
    """Run ``algo`` on ``engine`` and return its charge fingerprint."""
    edges = _edges(algo)
    store = build_store(edges, tmp_path, P=4, name="g")
    ctx = GraphContext.from_edges(edges)
    if engine == "cluster4":
        result = ClusterEngine(
            store.device.root, "g", tmp_path / "ws", ClusterConfig(workers=4), ctx=ctx
        ).run(_program(algo))
    elif engine == "async":
        result = AsyncGraphSDEngine(store, ctx=ctx).run(_program(algo))
    else:
        config = GraphSDConfig(pipeline=engine == "pipelined")
        result = GraphSDEngine(store, config=config, ctx=ctx).run(_program(algo))
    io = result.io.to_dict()
    for name in TIMING_COUNTERS:
        io.pop(name)
    values = np.ascontiguousarray(result.values, dtype=np.float64)
    return {
        "components": dict(sorted(result.breakdown.components.items())),
        "io": io,
        "values_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("algo", ALGOS)
def test_charges_match_recorded_figures(tmp_path, engine, algo):
    expected = json.loads(GOLDEN.read_text())[f"{engine}/{algo}"]
    assert measure(engine, algo, tmp_path) == expected


if __name__ == "__main__":
    figures = {}
    with tempfile.TemporaryDirectory() as tmp:
        for engine in ENGINES:
            for algo in ALGOS:
                case = Path(tmp) / f"{engine}-{algo}"
                figures[f"{engine}/{algo}"] = measure(engine, algo, case)
    json.dump(figures, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
