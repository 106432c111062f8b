"""The repository benchmark: one workload, timed end to end or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sssp-frontier --seed 7 --seconds 10 --trace 0

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` reports its ``per_layer`` metrics from a
separate traced run. Every number comes from fresh child processes
(``child.py``), each with a fresh workspace under ``.perfbench-work/``:

* ``setup_s`` is the median of SETUPS cold set-ups (interpreter start,
  imports, dataset generation, preprocessing), each in its own child and
  timed from process start to the child's "ready" line;
* each of those children then repeats the untraced run for an equal
  share of ``--seconds``, so the wall-time samples spread over the whole
  benchmark run rather than one stretch of it; ``run_wall_s`` is the
  median of all of them;
* the last child checks its values against the BSP oracle, and every
  other child's runs must match its runs exactly (values digest,
  simulated time, I/O counters) and be built from an identical grid.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every run was correct and deterministic, 1 otherwise, and 2 when
the benchmark could not run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Whole-run budget; a child still running then is killed.
TIMEOUT_S = 170.0
#: Wall seconds of ``child.calibrate`` on the nominal machine. Wall
#: metrics are reported in seconds of that machine (see ``speed``).
NOMINAL_CALIBRATION_S = 0.1

Stages = Dict[str, Tuple[float, Dict[str, Any]]]


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing system, crashed child)."""


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_child(
    args: argparse.Namespace, seconds: float, check: bool, workdir: Path, deadline: float
) -> Stages:
    """Run one fresh workload process; returns ``stage -> (seconds, fields)``.

    Seconds are measured by this process from just before the child is
    started to the moment its stage line arrives.
    """
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload,
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if check:
        cmd.append("--check")
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    stages: Stages = {}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - start), proc.kill)
    killer.start()
    try:
        for line in proc.stdout:
            elapsed = time.perf_counter() - start
            if line.startswith('{"stage"'):
                fields = json.loads(line)
                stages[fields.pop("stage")] = (elapsed, fields)
    finally:
        killer.cancel()
        code = proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or "result" not in stages:
        raise BenchError(
            f"workload process for {args.workload} exited with code {code} "
            f"after stages {sorted(stages)}"
        )
    return stages


def setup_identity(stages: Stages) -> Tuple[Any, ...]:
    """What two cold set-ups at one seed must agree on exactly."""
    ready = stages["ready"][1]
    return (
        stages["graph"][1]["digest"],
        ready["preprocess_sim_s"],
        ready["grid_bytes"],
        ready["idx_bytes"],
    )


def summarize_traced(stages: Stages) -> Dict[str, Any]:
    """The per-layer result of the one traced child (metrics unitless)."""
    result = stages["result"][1]
    ready = stages["ready"][1]
    t_import, t_gen, t_ready = (stages[k][0] for k in ("imported", "generated", "ready"))
    metrics: Dict[str, float] = dict(result.get("metrics", {}))
    metrics.update(
        {
            "setup.import_s": t_import,
            "datasets.gen_wall_s": t_gen - t_import,
            "graph.preprocess_wall_s": t_ready - t_gen,
            "graph.grid_bytes": ready["grid_bytes"],
            "graph.idx_bytes": ready["idx_bytes"],
        }
    )
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": metrics,
    }


def speed(result: Dict[str, Any]) -> float:
    """How many nominal-machine seconds one wall second of this child was.

    The shared machine's speed drifts by tens of percent over minutes.
    Each child times a fixed calibration kernel right after its set-up
    and again after its runs; scaling the child's wall times by
    ``NOMINAL_CALIBRATION_S / median(calibration)`` cancels most of that
    drift while a change to the system moves the figures in full.
    """
    return NOMINAL_CALIBRATION_S / statistics.median(result["calibration"])


def summarize_untraced(children: List[Stages]) -> Dict[str, Any]:
    """The end-to-end result of the untraced children, the checked one last."""
    checked = children[-1]
    reference = (setup_identity(checked), checked["result"][1]["signature"])
    attempted = failed = 0
    failures: List[str] = []
    walls: List[float] = []
    setups: List[float] = []
    raw_walls: List[float] = []
    for child in children:
        result = child["result"][1]
        attempted += result["attempted"]
        failures += result["failures"]
        walls += [w * speed(result) for w in result["walls"]]
        setups.append(child["ready"][0] * speed(result))
        raw_walls += result["walls"]
        if (setup_identity(child), result["signature"]) != reference:
            failed += result["attempted"]
            failures.append("nondeterministic: fresh processes at one seed disagree")
        else:
            failed += result["failed"]
    figures = checked["result"][1]["figures"]
    metrics: Dict[str, float] = {}
    if walls and figures:
        metrics.update(
            figures,
            setup_s=statistics.median(setups),
            run_wall_s=statistics.median(walls),
            preprocess_sim_s=checked["ready"][1]["preprocess_sim_s"],
            # The highest of the processes: with the prefetch thread
            # running, about one prd-stream process in three peaks ~30 MB
            # lower, with identical results.
            peak_rss_mb=max(
                c["result"][1]["figures"]["peak_rss_mb"]
                for c in children
                if c["result"][1]["figures"]
            ),
        )
        print(
            "unscaled: setup_s {:.4f} run_wall_s {:.4f} calibration_s {:.4f}".format(
                statistics.median(child["ready"][0] for child in children),
                statistics.median(raw_walls),
                statistics.median(
                    x for child in children for x in child["result"][1]["calibration"]
                ),
            ),
            file=sys.stderr,
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(failures)),
        "metrics": metrics,
    }


def with_units(spec: Dict[str, Any], trace: int, metrics: Dict[str, float]) -> Dict[str, Any]:
    """Attach the declared unit to every declared metric, in declared order."""
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and metrics:
        raise BenchError(f"declared metrics not measured: {', '.join(missing)}")
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in metrics
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument(
        "--seed", type=int, default=None,
        help="input graph seed (default: the dataset registry's seed)",
    )
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=None, help="shrink the input proxy (tests)")
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + TIMEOUT_S
    work = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        if args.trace:
            out = summarize_traced(run_child(args, args.seconds, True, work / "0", deadline))
        else:
            share = args.seconds / SETUPS
            out = summarize_untraced(
                [
                    run_child(args, share, k == SETUPS - 1, work / str(k), deadline)
                    for k in range(SETUPS)
                ]
            )
        for reason in out["failures"]:
            print(f"FAILED: {reason}", file=sys.stderr)
        out["metrics"] = with_units(spec, args.trace, out["metrics"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    for name, m in out["metrics"].items():
        print(f"{name:34s} {m['value']:>18.6f} {m['unit']}")
    correct = out["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": out["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
