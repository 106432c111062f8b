"""Golden digests of the on-disk grid: every file, every encoding, byte for byte.

The grid builder may be rewritten for speed, but its output is a file
format: the ``.edges``, ``.idx``, CRC sidecars and meta of each build
below are pinned by SHA-256 in ``golden_grid_digests.json``. A change
that moves any of them changes the on-disk format and must say so.

To print the digests of the current code (after a deliberate format
change)::

    PYTHONPATH=src python -m tests.graph.test_grid_golden
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro.datasets import rmat_edges, with_uniform_weights
from repro.graph import (
    EdgeList,
    GridStore,
    VertexIntervals,
    make_intervals,
    preprocess_husgraph,
    preprocess_lumos,
)
from repro.storage import Device, HDD_PROFILE, SimulatedDisk

GOLDEN_PATH = Path(__file__).with_name("golden_grid_digests.json")


def _rmat(weighted: bool) -> EdgeList:
    # Self-loop-free R-MAT at a small scale; it has duplicate edges too.
    edges = rmat_edges(scale=9, edge_factor=8, seed=2024)
    return with_uniform_weights(edges, seed=77) if weighted else edges


def _duplicates() -> EdgeList:
    # Few vertices, many edges: most (src, dst) pairs repeat, each copy
    # with its own weight, so the order among equal edges is visible.
    rng = np.random.default_rng(5)
    src = rng.integers(0, 24, 900)
    dst = rng.integers(0, 24, 900)
    return EdgeList(24, src, dst, rng.random(900).astype(np.float32))


def _empty_blocks() -> EdgeList:
    # Edges only inside the diagonal blocks and from interval 0 to 3,
    # so most of the 4 x 4 grid is empty.
    rng = np.random.default_rng(9)
    n, m = 400, 1500
    iv = rng.integers(0, 4, m)
    src = iv * 100 + rng.integers(0, 100, m)
    dst = np.where(iv == 0, rng.integers(0, 2, m) * 300, iv * 100) + rng.integers(0, 100, m)
    return EdgeList(n, src, dst, rng.random(m).astype(np.float32))


def _even(edges: EdgeList, P: int) -> VertexIntervals:
    return make_intervals(edges, P, mode="balanced_vertices")


def _build(
    edges: EdgeList,
    P: int = 4,
    encoding: str = "raw",
    indexed: bool = True,
    sort_within_blocks: bool = True,
    intervals: Callable[[EdgeList, int], VertexIntervals] = make_intervals,
) -> Callable[[Device], GridStore]:
    def build(device: Device) -> GridStore:
        return GridStore.build(
            edges, intervals(edges, P), device, prefix="g", indexed=indexed,
            sort_within_blocks=sort_within_blocks, encoding=encoding,
        )

    return build


def _cases() -> Dict[str, Callable[[Device], object]]:
    cases: Dict[str, Callable[[Device], object]] = {}
    for weighted in (False, True):
        w = "weighted" if weighted else "unweighted"
        edges = _rmat(weighted)
        for encoding in ("raw", "compact", "compact3"):
            cases[f"rmat-{w}-{encoding}"] = _build(edges, encoding=encoding)
        cases[f"rmat-{w}-sorted-unindexed"] = _build(edges, indexed=False)
        cases[f"rmat-{w}-lumos"] = lambda d, e=edges: preprocess_lumos(e, d, P=4)
        cases[f"rmat-{w}-husgraph"] = lambda d, e=edges: preprocess_husgraph(e, d, P=4)
    dup = _duplicates()
    for encoding in ("raw", "compact", "compact3"):
        cases[f"duplicates-{encoding}"] = _build(dup, P=3, encoding=encoding)
    cases["duplicates-lumos"] = _build(dup, P=3, indexed=False, sort_within_blocks=False)
    empty = _empty_blocks()
    for encoding in ("raw", "compact", "compact3"):
        cases[f"empty-blocks-{encoding}"] = _build(empty, encoding=encoding, intervals=_even)
    cases["empty-blocks-lumos"] = _build(
        empty, indexed=False, sort_within_blocks=False, intervals=_even
    )
    for encoding in ("raw", "compact", "compact3"):
        cases[f"p1-{encoding}"] = _build(dup, P=1, encoding=encoding)
    cases["p1-lumos"] = _build(dup, P=1, indexed=False, sort_within_blocks=False)
    return cases


CASES = _cases()


def digest_case(name: str, root: Path) -> dict:
    """Build case ``name`` under ``root``; SHA-256 of every file plus sizes."""
    device = Device(root, SimulatedDisk(HDD_PROFILE), checksums=True)
    built = CASES[name](device)
    stores = built.stores if hasattr(built, "stores") else [built]
    files = {
        fname: hashlib.sha256((root / fname).read_bytes()).hexdigest()
        for fname in device.file_names()
    }
    return {
        "files": files,
        "grid_bytes": [s.total_edge_bytes for s in stores],
        "idx_bytes": [s.index_total_bytes for s in stores],
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_files_match_golden_digests(name, tmp_path):
    expected = _golden()[name]
    got = digest_case(name, tmp_path / "dev")
    assert got["grid_bytes"] == expected["grid_bytes"]
    assert got["idx_bytes"] == expected["idx_bytes"]
    assert sorted(got["files"]) == sorted(expected["files"])
    changed = [f for f in expected["files"] if got["files"][f] != expected["files"][f]]
    assert not changed, f"{name}: files differ from the golden build: {changed}"


def test_golden_cases_cover_crc_sidecars_and_empty_blocks(tmp_path):
    # The pinned builds exercise what they claim: CRC sidecars exist,
    # and the empty-blocks input really leaves most blocks empty.
    got = digest_case("empty-blocks-compact3", tmp_path / "dev")
    assert {"g.edges.crc", "g.idx.crc", "g.meta.json"} <= set(got["files"])
    store = GridStore.open(Device(tmp_path / "dev"), "g")
    assert int((store.block_counts == 0).sum()) >= 8


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = {name: digest_case(name, Path(tmp) / name) for name in sorted(CASES)}
    print(json.dumps(out, indent=1, sort_keys=True))
