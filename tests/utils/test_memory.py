import numpy as np

from repro.utils.memory import release_free_heap


def test_release_free_heap_is_safe_to_call_repeatedly():
    scratch = np.ones(1 << 20)
    del scratch
    assert isinstance(release_free_heap(), bool)
    assert isinstance(release_free_heap(), bool)
