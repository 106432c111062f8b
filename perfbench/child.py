"""One workload process: cold set-up, then the measured runs.

``run.py`` starts this script once per set-up, each time as a fresh
interpreter with a fresh workspace directory. It reports on standard
output one JSON line per stage, so the parent can time set-up from
outside the process:

* ``imported``  — the system's modules are imported;
* ``generated`` — the input graph exists (``repro.datasets``);
* ``ready``     — the grid is preprocessed (``repro.graph``): engine ready;
* ``graph``     — a digest of the input, for the set-up determinism check;
* ``result``    — the measured runs.

With ``--trace 0`` the runs are untraced and repeated for at least
``--seconds``, between two rounds of a calibration kernel that
``run.py`` scales the wall times by; with ``--check`` their values are
then checked against the BSP oracle. With ``--trace 1`` untraced and traced runs alternate
(the traced one with the system's tracer and the benchmark's layer
probes attached), followed by one run under ``tracemalloc``, and every
run is checked. The oracle always runs after the timed runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

# ``workloads`` puts the system's ``src/`` on the path; import it first.
from workloads import (
    WORKLOADS,
    Workload,
    check_values,
    graph_digest,
    make_edges,
    preprocess,
    reference_values,
    run_engine,
    signature,
)

from probes import LayerProbe, barrier_wait_sim_s, median_walls, run_metrics
from repro.obs import Tracer

#: Fewest untraced/traced run pairs, whatever ``--seconds``.
MIN_PAIRS = 2
#: Calibration kernels timed before and again after the untraced runs.
CALIBRATIONS = 3


def emit(stage: str, **fields: Any) -> None:
    print(json.dumps({"stage": stage, **fields}), flush=True)


class RunLog:
    """Every attempted run at one seed, and why any of them failed.

    The first successful run's signature (values digest, iterations,
    simulated time, I/O counters) and probe counts are the reference: a
    later run that differs is failed as nondeterministic rather than
    averaged in. Values are checked against the oracle in :meth:`check`,
    after the timed runs.
    """

    def __init__(self) -> None:
        self.reasons: List[List[str]] = []
        self._shas: List[Optional[str]] = []
        self._values: Dict[str, Any] = {}
        #: The reference signature: the first successful run's.
        self.first: Optional[Dict[str, Any]] = None
        self._first_probe: Optional[Dict[str, int]] = None

    def add(self, result: Any, probe_counts: Optional[Dict[str, int]] = None) -> None:
        sig = signature(result)
        reasons: List[str] = []
        if self.first is None:
            self.first = sig
        elif sig != self.first:
            diff = sorted(k for k in sig if sig[k] != self.first[k])
            reasons.append(f"nondeterministic: {', '.join(diff)} differ between runs")
        if probe_counts is not None:
            if self._first_probe is None:
                self._first_probe = probe_counts
            elif probe_counts != self._first_probe:
                reasons.append("nondeterministic: layer probe counts differ between runs")
        self.reasons.append(reasons)
        self._shas.append(sig["values_sha256"])
        self._values.setdefault(sig["values_sha256"], result.values)

    def add_error(self) -> None:
        traceback.print_exc(file=sys.stderr)
        exc = sys.exc_info()[1]
        self.reasons.append([f"raised {type(exc).__name__}: {exc}"])
        self._shas.append(None)

    def check(self, workload: Workload, expected: Any) -> None:
        for sha, reasons in zip(self._shas, self.reasons):
            if sha is not None:
                reason = check_values(workload, self._values[sha], expected)
                if reason is not None:
                    reasons.append(reason)

    def summary(self) -> Dict[str, Any]:
        failures = [r for reasons in self.reasons for r in reasons]
        return {
            "attempted": len(self.reasons),
            "failed": sum(1 for reasons in self.reasons if reasons),
            "failures": sorted(set(failures)),
        }


def calibrate() -> float:
    """Wall seconds of a fixed CPU and memory kernel: the machine's speed now.

    The mix mirrors the engines' own work (sorts, counts and gathers over
    NumPy arrays, and a Python dictionary loop) and keeps its arrays to a
    few MB, so it does not move the process's peak RSS.
    """
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 16, 1 << 16)
    order = rng.permutation(keys.size)
    start = time.perf_counter()
    for _ in range(32):
        np.sort(keys)
        np.bincount(keys)
        keys[order].cumsum()
    counts: Dict[int, int] = {}
    for _ in range(3):
        for k in keys.tolist():
            counts[k & 1023] = counts.get(k & 1023, 0) + 1
    return time.perf_counter() - start


def measure_untraced(
    workload: Workload, edges: Optional[Any], prep: Any, seconds: float, workdir: Path
) -> Dict[str, Any]:
    """Repeat the untraced run for ``seconds`` (at least once).

    ``edges=None`` skips the oracle: ``run.py`` checks one child's runs
    against it and requires the other children's runs to match those
    exactly.
    """
    log = RunLog()
    walls: List[float] = []
    figures: Dict[str, float] = {}
    calibration = [calibrate() for _ in range(CALIBRATIONS)]
    start = time.perf_counter()
    while not log.reasons or time.perf_counter() - start < seconds:
        try:
            result, wall = run_engine(workload, prep, workdir / "scratch")
        except Exception:  # a failed run is counted, not fatal
            log.add_error()
            continue
        log.add(result)
        walls.append(wall)
        if not figures:
            # The high-water mark of set-up plus one cold run: later
            # runs would make it depend on how many fit in the window.
            figures = {
                "sim_s": result.sim_seconds,
                "io_bytes": result.io_traffic,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    calibration += [calibrate() for _ in range(CALIBRATIONS)]
    if edges is not None:
        log.check(workload, reference_values(workload, edges))
    out = log.summary()
    out.update(walls=walls, figures=figures, signature=log.first, calibration=calibration)
    return out


def measure_traced(
    workload: Workload, edges: Any, prep: Any, seconds: float, workdir: Path
) -> Dict[str, Any]:
    """Alternate untraced and traced runs, then one ``tracemalloc`` run."""
    log = RunLog()
    cluster = workload.workers > 0
    scratch = workdir / "scratch"
    trace_path = workdir / "trace.jsonl"
    untraced: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    first_trace: Dict[str, float] = {}
    pairs = 0
    start = time.perf_counter()
    while pairs < MIN_PAIRS or time.perf_counter() - start < seconds:
        pairs += 1
        try:
            result, wall = run_engine(workload, prep, scratch)
            log.add(result)
            untraced.append(wall)
        except Exception:
            log.add_error()
        try:
            with LayerProbe() as probe:
                result, wall = run_engine(
                    workload, prep, scratch, tracer=Tracer(), trace_path=str(trace_path)
                )
            log.add(result, probe.counts())
            traced.append(wall)
            layers.append(run_metrics(result, probe, cluster))
            if not first_trace:
                first_trace = {
                    "obs.trace_bytes": trace_path.stat().st_size,
                    "cluster.barrier_wait_sim_s": (
                        barrier_wait_sim_s(str(trace_path)) if cluster else 0.0
                    ),
                }
            trace_path.unlink()
        except Exception:
            log.add_error()
    peak_alloc_mb = 0.0
    tracemalloc.start()
    try:
        result, _ = run_engine(workload, prep, scratch)
        peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
        log.add(result)
    except Exception:
        log.add_error()
    finally:
        tracemalloc.stop()
    log.check(workload, reference_values(workload, edges))
    out = log.summary()
    if traced and untraced:
        metrics = median_walls(layers)
        metrics.update(first_trace)
        base = statistics.median(untraced)
        metrics["obs.trace_overhead"] = statistics.median(traced) / base
        metrics["core.edges_per_wall_s"] = metrics["core.edges_processed"] / base
        metrics["core.engine_peak_alloc_mb"] = peak_alloc_mb
        out["metrics"] = metrics
    return out


def main(argv: Optional[List[str]] = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--check", action="store_true", help="check values against the oracle")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--scale", type=int, default=None)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    emit("imported")
    edges = make_edges(workload, args.seed, args.scale)
    emit("generated")
    prep = preprocess(edges, args.workdir / "grid")
    emit(
        "ready",
        preprocess_sim_s=prep.sim_seconds,
        grid_bytes=prep.store.total_edge_bytes,
        idx_bytes=prep.store.index_total_bytes,
    )
    emit("graph", digest=graph_digest(edges))
    if args.trace:
        out = measure_traced(workload, edges, prep, args.seconds, args.workdir)
    else:
        oracle_input = edges if args.check else None
        out = measure_untraced(workload, oracle_input, prep, args.seconds, args.workdir)
    emit("result", **out)


if __name__ == "__main__":
    main()
