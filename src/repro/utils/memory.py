"""Returning freed heap memory to the operating system.

glibc keeps freed heap memory mapped unless the free chunk at the top of
the heap exceeds its trim threshold, and that threshold rises with the
largest mmapped block the process has freed (up to 64 MiB). After a
phase that allocates and drops large NumPy temporaries, how much of it
stays resident therefore hinges on incidental heap layout: a few bytes
more in a path string can leave an extra 32 MiB mapped. Calling
:func:`release_free_heap` at the end of such a phase hands every free
page back, so the footprint that follows is the phase's live data.

On a C library without ``malloc_trim`` the call does nothing.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional


def _find_malloc_trim() -> Optional[Callable[[int], int]]:
    try:
        libc = ctypes.CDLL(None)  # the C library the interpreter runs on
    except (OSError, TypeError):
        return None
    func = getattr(libc, "malloc_trim", None)
    if func is None:
        return None
    func.argtypes = [ctypes.c_size_t]
    func.restype = ctypes.c_int
    trim: Callable[[int], int] = func
    return trim


_MALLOC_TRIM = _find_malloc_trim()


def release_free_heap() -> bool:
    """Return the heap's free pages to the OS; True if any were returned."""
    if _MALLOC_TRIM is None:
        return False
    return bool(_MALLOC_TRIM(0))
