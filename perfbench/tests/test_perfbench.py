"""Tests of the benchmark's own code, on tiny seeded R-MAT proxies.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
from repro.datasets import dataset_spec  # noqa: E402
import run  # noqa: E402
from probes import TARGETS, LayerProbe  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    graph_digest,
    make_edges,
    preprocess,
    run_engine,
)

#: Tiny inputs: 2**9 vertices instead of the proxies' 2**16-2**17.
SCALE = 9
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = run.load_spec()
WALL = ("wall_s", "trace_overhead", "edges_per_wall_s", "peak_alloc_mb", "trace_bytes")


def _counts(metrics):
    """The metrics that must repeat exactly (everything not wall-clock)."""
    return {k: v for k, v in metrics.items() if not k.endswith(WALL)}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def setup(request, tmp_path_factory):
    workload = WORKLOADS[request.param]
    edges = make_edges(workload, seed=1, scale=SCALE)
    workdir = tmp_path_factory.mktemp(request.param)
    return workload, edges, preprocess(edges, workdir / "grid"), workdir


def test_names_follow_the_contract():
    names = [w["name"] for w in SPEC["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[section]]
        for m in SPEC[section]:
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", str(SCALE)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(out["metrics"][m["name"]]["value"], (int, float))


def test_counts_repeat_exactly(setup):
    workload, edges, prep, workdir = setup
    first = child.measure_traced(workload, edges, prep, 0, workdir)
    second = child.measure_traced(workload, edges, prep, 0, workdir)
    assert first["failed"] == second["failed"] == 0, first["failures"]
    assert _counts(first["metrics"]) == _counts(second["metrics"])


def test_layers_are_loaded_where_expected(setup):
    workload, edges, prep, workdir = setup
    m = child.measure_traced(workload, edges, prep, 0, workdir)["metrics"]
    assert (m["prefetch.issued"] > 0) == workload.pipeline
    assert (m["cluster.messages_sent"] > 0) == (workload.workers > 0)
    assert m["grid.load_block_calls"] > 0


def test_seed_changes_the_graph():
    workload = WORKLOADS["sssp-frontier"]
    digests = {graph_digest(make_edges(workload, seed=s, scale=SCALE)) for s in (1, 2, 1)}
    assert len(digests) == 2
    registry = make_edges(workload, seed=dataset_spec(workload.dataset).seed, scale=SCALE)
    assert graph_digest(make_edges(workload, scale=SCALE)) == graph_digest(registry)


def test_wrong_values_raise_the_error_rate(setup):
    workload, _edges, prep, workdir = setup
    result, _ = run_engine(workload, prep, workdir / "scratch")
    log = child.RunLog()
    log.add(result)
    wrong = dataclasses.replace(result, values=result.values + np.float64(0.5))
    log.add(wrong)
    log.check(workload, result.values)
    summary = log.summary()
    assert summary["attempted"] == 2 and summary["failed"] == 1
    assert any("oracle" in r for r in summary["failures"])
    assert any("nondeterministic" in r for r in summary["failures"])


def test_untraced_measurement_passes_and_reports(setup):
    workload, edges, prep, workdir = setup
    out = child.measure_untraced(workload, edges, prep, 0, workdir)
    assert out["failed"] == 0 and out["attempted"] == len(out["walls"]) == 1
    assert sorted(out["figures"]) == ["io_bytes", "peak_rss_mb", "sim_s"]
    assert len(out["calibration"]) == 2 * child.CALIBRATIONS
    assert out["signature"]["sim_s"] == out["figures"]["sim_s"]


def test_children_that_disagree_fail_all_their_runs():
    def child_stages(digest, sim_s):
        ready = {"preprocess_sim_s": 0.5, "grid_bytes": 10, "idx_bytes": 2}
        result = {
            "attempted": 2, "failed": 0, "failures": [], "walls": [1.0, 1.2],
            "figures": {"sim_s": sim_s, "io_bytes": 7, "peak_rss_mb": 50.0},
            "signature": {"values_sha256": "a", "sim_s": sim_s},
            "calibration": [run.NOMINAL_CALIBRATION_S] * 6,
        }
        return {"ready": (3.0, ready), "graph": (3.1, {"digest": digest}), "result": (9.0, result)}

    same = [child_stages("g", 0.7) for _ in range(3)]
    assert run.summarize_untraced(same)["failed"] == 0
    for odd in (child_stages("g", 0.70001), child_stages("h", 0.7)):
        out = run.summarize_untraced([odd] + same[1:])
        assert out["attempted"] == 6 and out["failed"] == 2
        assert out["metrics"]["run_wall_s"] == 1.1 and out["metrics"]["setup_s"] == 3.0


def test_wall_times_scale_with_the_calibration_kernel():
    result = {"calibration": [0.2, 0.25, 0.2, 0.3, 0.2, 0.4]}
    assert run.speed(result) == run.NOMINAL_CALIBRATION_S / 0.225
    assert child.calibrate() > 0


def test_probe_restores_every_entry_point():
    before = [owner.__dict__[attr] for _key, owner, attr in TARGETS]
    with LayerProbe():
        assert [owner.__dict__[attr] for _key, owner, attr in TARGETS] != before
    assert [owner.__dict__[attr] for _key, owner, attr in TARGETS] == before
