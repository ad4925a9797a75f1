"""The compiled forms of the constrained walk and of the chunk draw, built on first use.

:func:`walker` returns the :mod:`ctypes` library of ``_walk.c``, whose two
entry points ``cf_walk_rows`` and ``cf_opening_climb`` share one build and
one load, and :func:`drawer` that of ``_draw.c`` (``cf_draw_rows``), which
links numpy's normal kernel from the installed
``numpy/random/lib/libnpyrandom.a``; each is None where it cannot be had.
The first call in a process compiles the source with the system C compiler
into this package's ``__pycache__`` directory, under a name that hashes the
source, the compiler and its flags, numpy's version and the link inputs,
unless that file is there already; it is written under a temporary name
and then renamed, so processes that build it at once do not clash.  A new
build unlinks the other libraries of its source's stem (a process that has
one loaded keeps its mapping), so two interpreters with different numpy
versions that share one checkout rebuild in turn.  Any failure (no
compiler, no archive, a link error, a directory that cannot be written, a
library or symbol that does not load) gives None for that library alone,
and the callers run the Python forms.  Nothing here runs at import.
"""

from __future__ import annotations

from pathlib import Path

_COMPILER = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")
_CACHE = Path(__file__).with_name("__pycache__")

# (source stem, {symbol: (result type, argument types)}, types as ctypes names)
_WALK = ("_walk", {
    "cf_walk_rows": (None, ("c_int64",) * 2 + ("c_void_p",) * 4 + ("c_int",) + ("c_void_p",) * 5),
    "cf_opening_climb": ("c_int64", ("c_int64",) + ("c_void_p",) * 4),
})
_DRAW = ("_draw", {"cf_draw_rows": (None, ("c_int64", "c_int64", "c_void_p", "c_void_p"))})

_UNLOADED = object()
_walker = _UNLOADED
_drawer = _UNLOADED


def walker():
    """The compiled walk's library, or None if it cannot be had."""
    global _walker
    if _walker is _UNLOADED:
        _walker = _load(_COMPILER, _CACHE, *_WALK)
    return _walker


def drawer():
    """The compiled chunk draw's library, or None if it cannot be had."""
    global _drawer
    if _drawer is _UNLOADED:
        _drawer = _load(_COMPILER, _CACHE, *_DRAW, link=(str(_npyrandom()),))
    return _drawer


def _npyrandom() -> Path:
    """The installed numpy's static library of its random distributions."""
    import numpy as np

    return Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"


def _load(compiler: str, cache: Path, stem: str, symbols: dict, link: tuple = ()):
    """``stem``.c linked with ``link``, compiled by ``compiler`` into ``cache``,
    with each of ``symbols`` typed, or None."""
    import ctypes
    import hashlib
    import os
    import platform
    import subprocess
    import tempfile

    import numpy as np

    source = Path(__file__).with_name(f"{stem}.c")
    try:
        key = hashlib.sha256(source.read_bytes())
        key.update(repr((compiler, _FLAGS, platform.machine(), np.__version__, link)).encode())
        lib = cache / f"{stem}.{key.hexdigest()[:16]}.so"
        if not lib.exists():
            cache.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f"{stem}.", suffix=".tmp", dir=cache)
            os.close(fd)
            try:
                subprocess.run([compiler, *_FLAGS, "-o", tmp, str(source), *link, "-lm"],
                               check=True, capture_output=True)
                os.replace(tmp, lib)
                # the stem's libraries of other sources or numpy versions
                for old in cache.glob(f"{stem}.{'?' * 16}.so"):
                    if old != lib:
                        try:
                            old.unlink()
                        except OSError:
                            pass
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        dll = ctypes.CDLL(str(lib))
        for symbol, (restype, argtypes) in symbols.items():
            # the CDLL keeps this function object as its attribute ``symbol``
            fn = getattr(dll, symbol)
            fn.restype = getattr(ctypes, restype) if restype else None
            fn.argtypes = tuple(getattr(ctypes, name) for name in argtypes)
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    return dll
