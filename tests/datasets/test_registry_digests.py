"""Pinned edge digests of every Table 3 proxy at its registry seed.

The generator may be rewritten for speed, but the graphs it makes are
inputs every recorded figure depends on: a change that moves any digest
below changes the datasets and must say so.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import load_dataset

EDGE_DIGESTS = {
    "twitter2010": "43a4eae51a1ebba43e03decfbc73760af1a7571742579afd96ba5ed91f689a85",
    "sk2005": "2bbb9d105a439ffc1c7c8c57cda4fdb7097aeac928d423b3984e6a21b74f743f",
    "uk2007": "5ca9527b4f7ea615063d7dad56678f0e102904080e463b2434198c32fafe801f",
    "ukunion": "61e1ca48bb2f80784037202990423d8ae7ee0dbd1b8620e05ba86e613cf9e937",
    "kron30": "d40dbf46255183bd41c35025f3c949655ae58fe1cd1ae1663db43082189eebbc",
}
#: uk2007 with the registry's weights (the SSSP input).
WEIGHTED_UK2007_DIGEST = "af0a4f09cba0d5b262d4bfb79d0c4a95c3a26f0247953582bf76a070be387f37"


def edge_digest(edges) -> str:
    h = hashlib.sha256()
    for arr in (edges.src, edges.dst, edges.weights):
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(EDGE_DIGESTS))
def test_registry_edges_match_pinned_digest(name):
    assert edge_digest(load_dataset(name)) == EDGE_DIGESTS[name]


def test_weighted_uk2007_matches_pinned_digest():
    assert edge_digest(load_dataset("uk2007", weighted=True)) == WEIGHTED_UK2007_DIGEST
