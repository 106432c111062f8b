"""SSSP and SSWP reject a negative weight wherever it is first gathered.

The weight check runs on every gather, not only on the first non-empty
one: a negative edge whose source becomes active only in a later
iteration must still fail the run instead of yielding a silently wrong
distance (``0 -> 1 -> 2`` with weights ``1, -5`` would give ``-4``).
"""

import numpy as np
import pytest

from repro.algorithms import SSSP, SSWP
from repro.baselines import BSPReference
from repro.cluster import ClusterConfig, ClusterEngine
from repro.core import GraphSDEngine
from repro.graph import EdgeList
from tests.conftest import build_store

PROGRAMS = {"sssp": SSSP, "sswp": SSWP}


def _late_negative_edge() -> EdgeList:
    """Edges 0->1 (weight 1) and 1->2 (weight -5): the bad edge is gathered second."""
    return EdgeList(
        3,
        np.array([0, 1]),
        np.array([1, 2]),
        np.array([1.0, -5.0], dtype=np.float32),
    )


@pytest.mark.parametrize("algo", sorted(PROGRAMS))
def test_bsp_reference_rejects_late_negative_weight(algo):
    with pytest.raises(ValueError, match="non-negative edge weights"):
        BSPReference(_late_negative_edge()).run(PROGRAMS[algo](0))


@pytest.mark.parametrize("algo", sorted(PROGRAMS))
def test_graphsd_engine_rejects_late_negative_weight(tmp_path, algo):
    store = build_store(_late_negative_edge(), tmp_path, P=1)
    with pytest.raises(ValueError, match="non-negative edge weights"):
        GraphSDEngine(store).run(PROGRAMS[algo](0))


@pytest.mark.parametrize("algo", sorted(PROGRAMS))
def test_cluster_engine_rejects_late_negative_weight(tmp_path, algo):
    store = build_store(_late_negative_edge(), tmp_path, P=1, name="neg")
    engine = ClusterEngine(
        store.device.root, "neg", tmp_path / "ws", ClusterConfig(workers=1)
    )
    with pytest.raises(ValueError, match="non-negative edge weights"):
        engine.run(PROGRAMS[algo](0))
