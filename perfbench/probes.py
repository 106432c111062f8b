"""Per-layer measurement from outside the program.

:class:`LayerProbe` wraps public entry points of each layer (grid
loads, array-file metadata, the scheduler's decision, the SCIU and FCIU
rounds, the sub-block buffer, the cluster worker phases) for the
duration of one traced run, counting calls and wall seconds. Nothing
under ``src/`` is changed: the wrappers are installed on the classes and
modules at run time and removed afterwards.

:func:`run_metrics` turns one traced run — its ``RunResult`` and the
probe — into most of the ``per_layer`` metrics declared in
``BENCHMARK.json``; :func:`barrier_wait_sim_s` reads the rest from the
run's merged cluster trace.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import ClusterWorker
from repro.core import engine as engine_module
from repro.core.buffer import SubBlockBuffer
from repro.core.result import RunResult
from repro.core.scheduler import StateAwareScheduler
from repro.graph import GridStore
from repro.obs.critpath import analyze_file
from repro.storage.blockfile import ArrayFile

#: (probe key, owner, attribute). Attributes sharing a key are one layer
#: entry: a call nested inside another of the same key (``load_column``
#: calls ``load_block_range``) is counted once, at the outermost call.
TARGETS: List[Tuple[str, Any, str]] = [
    ("grid.load_block", GridStore, "load_block"),
    ("grid.load_block", GridStore, "load_block_range"),
    ("grid.load_block", GridStore, "load_column"),
    ("grid.load_active_edges", GridStore, "load_active_edges"),
    # Every ``item_count`` goes through ``nbytes``: one stat per call.
    ("storage.arrayfile_meta", ArrayFile, "nbytes"),
    ("scheduler.select", StateAwareScheduler, "select"),
    # The engine module imports both round functions by name.
    ("sciu", engine_module, "run_sciu_round"),
    ("fciu", engine_module, "run_fciu_round"),
    ("buffer.get", SubBlockBuffer, "get"),
    ("cluster.compute", ClusterWorker, "compute"),
    ("cluster.broadcast", ClusterWorker, "broadcast"),
    ("cluster.absorb", ClusterWorker, "absorb"),
    ("cluster.checkpoint", ClusterWorker, "checkpoint"),
]


def _outcome(key: str, out: Any) -> Optional[str]:
    """The tag a call's return value is counted under, if any."""
    if key == "buffer.get":
        return "hit" if out is not None else None
    if key == "scheduler.select":
        return out.chosen.value  # "full" or "on_demand"
    return None


class LayerProbe:
    """Counts calls, outcomes and wall seconds of the :data:`TARGETS`.

    Use as a context manager around exactly one engine run. Calls may
    arrive from the prefetch worker thread, so counters are updated
    under a lock.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        #: ``"<key>.<tag>"`` -> calls whose result was tagged (see _outcome).
        self.outcomes: Dict[str, int] = defaultdict(int)
        self.wall: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            active = self._local.__dict__.setdefault("active", set())
            if key in active:
                return fn(*args, **kwargs)
            active.add(key)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                active.discard(key)
                with self._lock:
                    self.calls[key] += 1
                    self.wall[key] += elapsed
            tag = _outcome(key, out)
            if tag is not None:
                with self._lock:
                    self.outcomes[f"{key}.{tag}"] += 1
            return out

        return wrapper

    def __enter__(self) -> "LayerProbe":
        for key, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped: Any = property(self._wrap(key, original.fget))
            else:
                wrapped = self._wrap(key, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def counts(self) -> Dict[str, int]:
        """Call and outcome counts: these must repeat exactly at one seed."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.outcomes)
        return dict(sorted(out.items()))


def _io(result: RunResult, name: str) -> float:
    return result.io.to_dict().get(name, 0)


def _models(result: RunResult, *names: str) -> int:
    return sum(1 for m in result.model_history if m in names)


def run_metrics(result: RunResult, probe: LayerProbe, cluster: bool) -> Dict[str, float]:
    """Per-layer figures of one traced run (counts, sim seconds, probe walls)."""
    bd = result.breakdown
    records = result.per_iteration
    calls, wall = probe.calls, probe.wall
    gets = calls["buffer.get"]
    recovery = result.recovery
    return {
        "grid.load_block_calls": calls["grid.load_block"],
        "grid.load_block_wall_s": wall["grid.load_block"],
        "grid.load_active_edges_calls": calls["grid.load_active_edges"],
        "grid.load_active_edges_wall_s": wall["grid.load_active_edges"],
        "storage.read_seq_bytes": _io(result, "bytes_read_seq"),
        "storage.read_ran_bytes": _io(result, "bytes_read_ran"),
        "storage.write_bytes": result.io.bytes_written,
        "storage.read_requests": result.io.read_requests,
        "storage.write_requests": result.io.write_requests,
        "storage.io_sim_s": bd.io,
        "storage.retries": result.io.retries,
        "storage.arrayfile_meta_calls": calls["storage.arrayfile_meta"],
        "scheduler.full_rounds": probe.outcomes["scheduler.select.full"],
        "scheduler.ondemand_rounds": probe.outcomes["scheduler.select.on_demand"],
        "scheduler.sim_s": bd.scheduling,
        "scheduler.select_calls": calls["scheduler.select"],
        "scheduler.select_wall_s": wall["scheduler.select"],
        "sciu.rounds": _models(result, "sciu"),
        "sciu.wall_s": wall["sciu"],
        "sciu.cross_pushed": sum(r.cross_pushed for r in records),
        "fciu.rounds": _models(result, "fciu", "fciu2"),
        "fciu.wall_s": wall["fciu"],
        "buffer.hit_bytes": _io(result, "buffer_hit_bytes"),
        "buffer.get_calls": gets,
        "buffer.get_hit_ratio": probe.outcomes["buffer.get.hit"] / gets if gets else 0.0,
        "core.iterations": result.iterations,
        "core.edges_processed": sum(r.edges_processed for r in records),
        "core.subblocks_processed": result.subblocks_processed,
        "core.compute_sim_s": bd.compute,
        "prefetch.issued": _io(result, "prefetch_issued"),
        "prefetch.wasted": _io(result, "prefetch_wasted"),
        # A cluster run folds barrier waits into the same breakdown
        # field; only a single-node run's saving comes from prefetching.
        "prefetch.overlap_saved_sim_s": 0.0 if cluster else bd.overlap_saved,
        "gather.runs_issued": _io(result, "gather_runs_issued"),
        "gather.lane_busy_sim_s": _io(result, "gather_lane_busy_seconds"),
        "gather.queue_peak": _io(result, "gather_queue_peak"),
        "cluster.supersteps": result.iterations if cluster else 0,
        "cluster.messages_sent": recovery.get("messages_sent", 0),
        "cluster.bytes_sent": recovery.get("bytes_sent", 0),
        "cluster.net_retries": recovery.get("net_retries", 0),
        "cluster.net_sim_s": bd.components.get("network", 0.0),
        "cluster.compute_wall_s": wall["cluster.compute"],
        "cluster.broadcast_wall_s": wall["cluster.broadcast"],
        "cluster.absorb_wall_s": wall["cluster.absorb"],
        "cluster.checkpoint_wall_s": wall["cluster.checkpoint"],
    }


def barrier_wait_sim_s(trace_path: str) -> float:
    """Total per-worker barrier wait of a merged cluster trace.

    Every barrier window is attributed by ``repro.obs.critpath``; a
    worker's wait is the time it idled behind that window's slowest
    worker.
    """
    report = analyze_file(trace_path)
    return sum(sum(row.waits.values()) for row in report.rows)


def median_walls(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Merge several traced runs: wall figures by median, the rest as-is."""
    merged = dict(runs[0])
    for name in merged:
        if name.endswith("wall_s"):
            merged[name] = statistics.median(r[name] for r in runs)
    return merged
