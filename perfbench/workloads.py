"""The benchmark's workloads and the one code path that runs them.

Every workload drives the system only through its public layers:
``repro.datasets`` makes the input, ``repro.graph.preprocess_graphsd``
builds the on-disk grid, and ``GraphSDEngine`` or ``ClusterEngine`` runs
the program. ``Harness.run`` is deliberately not used: its run cache
would hand back a memoized result for a repeated cell.

Each engine run opens the preprocessed grid on a fresh ``Device`` (a
new simulated disk and clock starting at zero), so repeated runs of one
graph are the same cold run and their simulated figures repeat exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.algorithms import make_program  # noqa: E402
from repro.baselines import BSPReference  # noqa: E402
from repro.cluster import ClusterConfig, ClusterEngine, INTERCONNECT_PROFILES  # noqa: E402
from repro.core import GraphSDConfig, GraphSDEngine, RunResult  # noqa: E402
from repro.datasets import dataset_spec, with_uniform_weights  # noqa: E402
from repro.graph import EdgeList, GridStore, PreprocessResult, preprocess_graphsd  # noqa: E402
from repro.storage import DEFAULT_MACHINE, Device, SimulatedDisk  # noqa: E402

#: Grid shape and on-disk layout shared by every workload.
PARTITIONS = 8
ENCODING = "compact3"
GRID_PREFIX = "graphsd"
#: Weight seeds follow the dataset registry's convention.
WEIGHT_SEED_OFFSET = 7_000_000
INTERCONNECT = "eth10"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an input proxy, a program and an engine.

    Why each workload was chosen is recorded in ``BENCHMARK.json`` and
    ``README.md``.
    """

    name: str
    dataset: str
    algorithm: str
    params: Dict[str, Any]
    weighted: bool
    #: Single-node runs only: overlap I/O and compute with prefetch depth 2.
    pipeline: bool = False
    #: 0 runs ``GraphSDEngine``; N > 0 runs ``ClusterEngine`` with N workers.
    workers: int = 0
    #: Correctness rule against the BSP oracle: bitwise or ``np.allclose``.
    exact: bool = True

    def make_program(self):
        return make_program(self.algorithm, **self.params)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="prd-stream",
            dataset="kron30",
            algorithm="pagerank_delta",
            params={"iterations": 20},
            weighted=False,
            pipeline=True,
            exact=False,
        ),
        Workload(
            name="sssp-frontier",
            dataset="uk2007",
            algorithm="sssp",
            params={"source": 0},
            weighted=True,
        ),
        Workload(
            name="sssp-cluster",
            dataset="uk2007",
            algorithm="sssp",
            params={"source": 0},
            weighted=True,
            workers=4,
        ),
    )
}


def make_edges(
    workload: Workload, seed: Optional[int] = None, scale: Optional[int] = None
) -> EdgeList:
    """Generate the workload's input graph from ``seed``.

    ``seed=None`` is the registry seed, which reproduces
    ``load_dataset(name, use_cache=False)`` exactly; any other seed
    regenerates the same proxy construction on an unseen graph.
    ``scale`` shrinks the proxy (tests use tiny graphs).
    """
    spec = dataset_spec(workload.dataset)
    if seed is None:
        seed = spec.seed
    changes: Dict[str, Any] = {"seed": seed}
    if scale is not None:
        changes["scale"] = scale
    edges = dataclasses.replace(spec, **changes).generate()
    if workload.weighted:
        edges = with_uniform_weights(edges, seed=seed + WEIGHT_SEED_OFFSET)
    return edges


def preprocess(edges: EdgeList, root: Path) -> PreprocessResult:
    """Preprocess ``edges`` into a fresh grid under ``root``."""
    device = Device(root, SimulatedDisk(DEFAULT_MACHINE.disk))
    return preprocess_graphsd(
        edges, device, P=PARTITIONS, prefix=GRID_PREFIX, machine=DEFAULT_MACHINE,
        encoding=ENCODING,
    )


def graph_digest(edges: EdgeList) -> str:
    """SHA-256 of the edge arrays: two seeds give two graphs."""
    h = hashlib.sha256()
    for arr in (edges.src, edges.dst, edges.weights):
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_engine(
    workload: Workload,
    prep: PreprocessResult,
    scratch: Path,
    tracer: Any = None,
    trace_path: Optional[str] = None,
) -> Tuple[RunResult, float]:
    """One cold engine run; returns the result and its wall seconds.

    The wall time covers engine construction plus ``run()``. Opening the
    grid on a fresh device happens before the clock starts.
    """
    root = prep.store.device.root
    program = workload.make_program()
    if workload.workers:
        config = ClusterConfig(
            workers=workload.workers,
            interconnect=INTERCONNECT_PROFILES[INTERCONNECT],
            machine=DEFAULT_MACHINE,
        )
        shutil.rmtree(scratch, ignore_errors=True)
        start = time.perf_counter()
        engine = ClusterEngine(root, GRID_PREFIX, scratch, config, ctx=prep.context)
        if tracer is not None:
            engine.attach_tracer(tracer, path=trace_path)
        result = engine.run(program)
        wall = time.perf_counter() - start
        shutil.rmtree(scratch, ignore_errors=True)
        return result, wall
    store = GridStore.open(Device(root, SimulatedDisk(DEFAULT_MACHINE.disk)), GRID_PREFIX)
    config = GraphSDConfig(pipeline=workload.pipeline, prefetch_depth=2)
    start = time.perf_counter()
    engine = GraphSDEngine(store, DEFAULT_MACHINE, config=config, ctx=prep.context)
    if tracer is not None:
        engine.attach_tracer(tracer, path=trace_path)
    result = engine.run(program)
    return result, time.perf_counter() - start


def reference_values(workload: Workload, edges: EdgeList) -> np.ndarray:
    """The in-memory BSP oracle's values (run outside any timed region)."""
    return BSPReference(edges).run(workload.make_program()).values


def check_values(
    workload: Workload, values: np.ndarray, expected: np.ndarray
) -> Optional[str]:
    """``None`` when ``values`` pass the workload's rule, else the reason."""
    if values.shape != expected.shape:
        return f"values shape {values.shape} != oracle {expected.shape}"
    if workload.exact:
        if values.dtype != expected.dtype or values.tobytes() != expected.tobytes():
            return "values are not bitwise equal to the BSP oracle"
        return None
    if not np.allclose(expected, values):
        return "values are not close to the BSP oracle"
    return None


def signature(result: RunResult) -> Dict[str, Any]:
    """Everything about a run that must repeat exactly at one seed."""
    io = result.io.to_dict()
    # The one counter that depends on thread timing, not the simulation.
    io.pop("prefetch_hits", None)
    return {
        "values_sha256": result.values_sha256(),
        "iterations": result.iterations,
        "models": list(result.model_history),
        "sim_s": result.sim_seconds,
        "io": io,
        "recovery": dict(result.recovery),
    }
