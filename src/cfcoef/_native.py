"""The compiled form of the constrained walk, ``_walk.c``, built on first use.

:func:`walker` returns its entry point ``cf_walk_rows``, loaded with
:mod:`ctypes`, or None.  The first call in a process compiles ``_walk.c``
with the system C compiler into this package's ``__pycache__`` directory,
under a name that hashes the source, the compiler and its flags, unless
that file is there already; it is written under a temporary name and then
renamed, so processes that build it at once do not clash.  Any failure (no
compiler, a directory that cannot be written, a library that does not load)
gives None, and the callers run the Python walk.  Nothing here runs at
import.
"""

from __future__ import annotations

from pathlib import Path

_COMPILER = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("_walk.c")
_CACHE = Path(__file__).with_name("__pycache__")

_UNLOADED = object()
_walker = _UNLOADED


def walker():
    """The compiled chunk walk, or None if it cannot be had."""
    global _walker
    if _walker is _UNLOADED:
        _walker = _load(_COMPILER, _CACHE)
    return _walker


def _load(compiler: str, cache: Path):
    """``cf_walk_rows`` compiled by ``compiler`` into ``cache``, or None."""
    import ctypes
    import hashlib
    import os
    import platform
    import subprocess
    import tempfile

    try:
        key = hashlib.sha256(_SOURCE.read_bytes())
        key.update(repr((compiler, _FLAGS, platform.machine())).encode())
        lib = cache / f"_walk.{key.hexdigest()[:16]}.so"
        if not lib.exists():
            cache.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_walk.", suffix=".tmp", dir=cache)
            os.close(fd)
            try:
                subprocess.run([compiler, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                               check=True, capture_output=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        walk = ctypes.CDLL(str(lib)).cf_walk_rows
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    ptr = ctypes.c_void_p
    walk.argtypes = (ctypes.c_int64, ctypes.c_int64, ptr, ptr, ptr, ptr, ctypes.c_int,
                     ptr, ptr, ptr, ptr, ptr)
    walk.restype = None
    return walk
