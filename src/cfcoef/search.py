"""Depth-first sphere search for the shortest coefficient vector.

:func:`baseline_search` is the classic Schnorr-Euchner enumeration over an
explicit upper-triangular factor, kept as a reference implementation.  The
production path works from the implicit factorization carried by a
:class:`~cfcoef.core.ScaledChannel` (never materializing the matrix) and
enumerates only candidates with ``a[0] >= a[1] >= ... >= a[n-1] >= 0``,
which is sufficient because the canonical ordering of ``t`` guarantees a
solution of that shape exists.  One walk of that constrained tree serves
two callers: :func:`modified_search` shrinks its radius to find the
optimum, and :func:`count_visited_nodes` holds it at ``q[0]`` to count the
tested candidates, the complexity meter used by the benchmark harness.

At large ``n`` the walk's cost is mostly one O(n) scan: its opening climb
from level 0 through untouched levels at radius ``q[0]``, which reads only
``t``, ``f`` and ``q``.  From :data:`_VECTOR_SCAN_MIN_N` levels on that scan
runs as one numpy pass (:func:`_opening_scan`) with the same float values,
so node counts and incumbents do not change.

The walk has a second form, in C: ``_walk.c``, built and loaded by
:mod:`cfcoef._native`, walks many rows of a trial chunk in one call
(:func:`_walk_rows`, used by the benchmark harness) and gives the same
floats, node counts and vectors.  It hands a row whose coefficients reach
``2**53`` back to :func:`_constrained_walk`, which stays the reference and
the fallback, and which every single-channel call runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .core import (
    ChannelInstance,
    NumericDegeneracyError,
    ScaledChannel,
    _channel_rows,
    _e1_optimal,
    _invert,
    _quadratic_form,
    _rate,
    _real_array,
    _unit_form,
)

__all__ = [
    "SearchResult",
    "SolveResult",
    "baseline_search",
    "modified_search",
    "solve",
    "count_visited_nodes",
]


# Smallest n whose opening scan runs as _opening_scan, not _opening_climb.
# Whole-walk CPU medians on Gaussian channels, summed over 10-40 dB (12
# channels per point, best of 5 interleaved batches of 30 calls per form,
# three runs, BENCH_24.json): numpy/per-level reads 1.04 at n = 128, 0.98-1.00
# at 144 and 0.84-0.85 at 192.  The numpy pass still wins at 10-20 dB from 128,
# where the scan mostly ends the walk, and the tier-1 rows that reach it sit
# just above 128, so the cut-over stays there.
_VECTOR_SCAN_MIN_N = 128


def _round_nearest(x: float) -> int:
    """Nearest integer, with exact .5 ties resolved toward zero."""
    r = math.floor(x + 0.5)
    if r - x == 0.5 and r > 0:
        r -= 1
    return r


def _sgn(x) -> int:
    return 1 if x >= 0 else -1


def _clipped_round(d: np.ndarray) -> np.ndarray:
    """Elementwise ``max(_round_nearest(x), 1)`` as floats."""
    r = np.floor(d + 0.5)
    r -= (r - d == 0.5) & (r > 0)
    return np.maximum(r, 1.0, out=r)


def _opening_climb(t: list, f: list, q: list) -> tuple:
    """The walk's opening climb through levels ``1..n-1``, on lists.

    At radius ``q[0]``, an untouched level ``j`` and all above it hold
    ``a = 0``, ``p = d = sig = 0``, so the walk's first steps there are
    fixed: test ``a[j] = 1`` (value ``q[j]``); if that passes, descend to
    the center ``t[j-1]*t[j]/f[j]`` rounded and clipped at 1 (value
    ``q[j] + q[j-1]*(a[j-1] - d[j-1])**2``); if that fails, test ``a[j] = 2``
    (value ``4*q[j]``).  The walk's ``p[j] = 0.0 + t[j]*1`` and
    ``(a[j] - 0.0)**2`` are exact, so it forms the same floats.  Returns
    ``(j, nodes)``: the first level where the descent or the ``a[j] = 2``
    test passes (``n`` if none does), and the tests before ``a[j] = 1`` there.
    """
    q0 = q[0]
    nodes = 1  # the failing a[0] = 1 test
    for j in range(1, len(q)):
        qj = q[j]
        if qj < q0:
            dj = t[j - 1] * t[j] / f[j]
            aj = _round_nearest(dj)
            if aj <= 1:
                aj = 1
            if qj + q[j - 1] * (aj - dj) ** 2 < q0 or 4.0 * qj < q0:
                return j, nodes
            nodes += 3
        else:
            nodes += 1
    return len(q), nodes


def _opening_scan(t: np.ndarray, f: np.ndarray, q: np.ndarray) -> tuple:
    """:func:`_opening_climb` on arrays, in one numpy pass.

    Only the live levels, those with ``q[j] < q[0]``, are evaluated: each
    of the two tests' values is at least ``q[j]`` in floats too, so no
    other level can pass, and each live level below ``j`` costs two tests
    more than a dead one.  Each value is the float the climb computes:
    ``r`` is :func:`_round_nearest` clipped at 1 (``ceil(d - 0.5)`` would
    differ from ``2**52`` on), and ``np.float_power`` rounds the square
    like Python's ``** 2``, where ``np.power`` and ``d * d`` do not always.
    """
    q0 = q[0]
    live = np.flatnonzero(q[1:] < q0) + 1
    d = t[live - 1] * t[live] / f[live]
    r = _clipped_round(d)
    lead = np.minimum(q[live] + q[live - 1] * np.float_power(r - d, 2), 4.0 * q[live])
    hits = np.flatnonzero(lead < q0)
    if not hits.size:
        return q.size, q.size + 2 * live.size
    j = int(live[hits[0]])
    return j, j + 2 * int(hits[0])


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one enumeration.

    ``a`` is in the coordinates the search ran in (canonical ones for
    :func:`modified_search`).  ``objective`` is ``a' G a = ||R a||^2`` as
    accumulated by the search recurrences.  ``nodes_visited`` counts the
    radius-test evaluations performed.  ``incumbents`` records the
    successive squared-radius values, starting from the initial one.
    """

    a: np.ndarray
    objective: float
    nodes_visited: int
    incumbents: tuple = ()


@dataclass(frozen=True)
class SolveResult:
    """End-to-end result in original channel coordinates."""

    a: np.ndarray
    rate: float
    objective: float
    nodes_visited: int
    used_shortcut: bool


def _constrained_walk(t: np.ndarray, f: np.ndarray, q: np.ndarray, shrink: bool) -> tuple:
    """Walk the constrained tree of one canonical row ``t``, ``f``, ``q``
    (the fields of a :class:`~cfcoef.core.ScaledChannel`) from the first
    unit vector, radius ``q[0]``.

    The walk maintains, per level ``k``:

    * ``p[k] = p[k+1] + t[k]*a[k]``, the running inner product of the
      assigned suffix (``p[n] = 0``),
    * ``d[k] = t[k]*p[k+1]/f[k+1]``, the conditional real-valued center,
    * ``sig[k]``, the squared residual contributed by levels above ``k``,

    so each node costs O(1).  Candidates at level ``k`` are visited in the
    zig-zag order around ``d[k]``, clipped from below at ``a[k+1]`` (with
    ``a[n] = 0``); the ``flag`` marker records that the clip was hit, after
    which enumeration proceeds upward only.  At a passing leaf, with
    ``shrink`` the vector becomes the incumbent and the radius drops to its
    objective; without it the radius stays.  Either way the walk
    moves on to the next level-0 candidate, which is never closer to the
    center, so after a shrink its test fails.

    Opening scan: for ``n >= 2`` the first test, ``a[0] = 1`` against
    ``q[0]``, always fails, and the walk climbs through untouched levels to
    :func:`_opening_climb`'s hand-over level ``j``.  No leaf passes on the
    way, and a level below ``j`` is reached again only by a descent, which
    rewrites it, so the climb runs without state (as :func:`_opening_scan`
    from ``_VECTOR_SCAN_MIN_N`` levels on) and the walk starts at ``j`` with
    ``a[j] = 1``, or ends if ``j = n``.

    Returns ``(best, incumbents, nodes)``: the last incumbent's ``a[:n]``
    (None while it is the first unit vector), the successive squared radii
    from ``q[0]``, and the radius tests.
    """
    n = t.size
    if n >= _VECTOR_SCAN_MIN_N:
        k, nodes = _opening_scan(t, f, q)
        if k == n:
            return None, [float(q[0])], nodes
    t, f, q = t.tolist(), f.tolist(), q.tolist()
    if n < _VECTOR_SCAN_MIN_N:
        k, nodes = _opening_climb(t, f, q)
        if k == n:
            return None, [q[0]], nodes

    p = [0.0] * (n + 1)
    d = [0.0] * n
    sig = [0.0] * n
    a = [0] * (n + 1)  # a[n] is the fixed sentinel lower bound for level n-1
    a[k] = 1
    s = [1] * n
    flag = [1] * n
    beta2 = q[0]
    delta = q[k]
    best = None
    incumbents = [beta2]

    while True:
        nodes += 1
        alpha = sig[k] + delta
        if alpha < beta2:
            if k > 0:
                p[k] = p[k + 1] + t[k] * a[k]
                k -= 1
                sig[k] = alpha
                dk = t[k] * p[k + 1] / f[k + 1]
                d[k] = dk
                ak = _round_nearest(dk)
                if ak <= a[k + 1]:
                    ak = a[k + 1]
                    flag[k] = 1
                    s[k] = 1
                else:
                    flag[k] = 0
                    s[k] = 1 if dk >= ak else -1
                a[k] = ak
                delta = q[k] * (ak - dk) ** 2
                continue
            if shrink:
                beta2 = alpha
                best = a[:n]
                incumbents.append(alpha)
        elif k < n - 1:
            k += 1
        else:
            break
        ak = a[k] + s[k]
        a[k] = ak
        if ak == a[k + 1]:
            flag[k] = 1
            s[k] = -s[k] - _sgn(s[k])
        elif flag[k]:
            s[k] = 1
        else:
            s[k] = -s[k] - _sgn(s[k])
        delta = q[k] * (ak - d[k]) ** 2

    return best, incumbents, nodes


def _walk_rows(t: np.ndarray, f: np.ndarray, q: np.ndarray, rows, shrink: bool) -> tuple:
    """:func:`_constrained_walk` on rows ``rows`` of a chunk's ``(m, n)`` ``t``,
    ``(m, n+1)`` ``f`` and ``(m, n)`` ``q``, as arrays aligned with ``rows``.

    Returns ``(best, moved, nodes, last, wide)``: ``best[r]`` is walk ``r``'s
    best vector as an int64 row, ``moved[r]`` is False where that is the
    first unit vector, ``nodes[r]`` counts its radius tests and ``last[r]``
    is its last incumbent, which only the tests comparing the two walk forms
    read.
    ``wide`` maps each ``r`` whose best does not fit in int64 to the message
    of :func:`_coefficients`' ``NumericDegeneracyError``; its ``best[r]`` is
    zero.

    The rows run in one call of the compiled walk (:mod:`cfcoef._native`)
    where it loads; the rows it hands back, and every row where it does not
    load, run :func:`_constrained_walk`.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    m, n = t.shape
    # the C walk reads each listed row's t, f and q through raw pointers
    if f.shape != (m, n + 1) or q.shape != (m, n) or not ((rows >= 0) & (rows < m)).all():
        raise ValueError(f"rows {rows} of t, f, q with shapes {t.shape}, {f.shape}, {q.shape}")
    count = rows.size
    best = np.zeros((count, n), dtype=np.int64)
    moved, status = np.empty(count, dtype=np.int8), np.ones(count, dtype=np.int8)
    nodes, last = np.empty(count, dtype=np.int64), np.empty(count)
    walk = _native.walker()
    if walk is not None:
        t, f, q = (np.ascontiguousarray(x, dtype=np.float64) for x in (t, f, q))
        walk(n, count, rows.ctypes.data, t.ctypes.data, f.ctypes.data, q.ctypes.data,
             int(shrink), best.ctypes.data, moved.ctypes.data, nodes.ctypes.data,
             last.ctypes.data, status.ctypes.data)
    wide = {}
    for r in np.flatnonzero(status).tolist():
        i = rows[r]
        found, incumbents, nodes[r] = _constrained_walk(t[i], f[i], q[i], shrink)
        last[r], moved[r] = incumbents[-1], found is not None
        try:
            best[r] = _coefficients(found, n)
        except NumericDegeneracyError as exc:
            best[r] = 0
            wide[r] = str(exc)
    return best, moved.view(bool), nodes, last, wide


def modified_search(sc: ScaledChannel) -> SearchResult:
    """Find the optimal canonical coefficient vector by constrained enumeration.

    The incumbent starts as the first unit vector, with radius ``q[0]``, and
    becomes every complete vector the walk finds strictly inside the radius,
    which shrinks to its objective; the last incumbent is optimal.
    """
    best, incumbents, nodes = _constrained_walk(sc.t, sc.f, sc.q, shrink=True)
    return SearchResult(
        a=_coefficients(best, sc.n),
        objective=float(incumbents[-1]),
        nodes_visited=nodes,
        incumbents=tuple(incumbents),
    )


def _coefficients(best, n: int) -> np.ndarray:
    """A walk's ``best`` as an int64 vector; None is the first unit vector.

    ``NumericDegeneracyError`` if an entry does not fit in int64, as on
    channels whose entries span many orders of magnitude.
    """
    if best is None:
        a = np.zeros(n, dtype=np.int64)
        a[0] = 1
        return a
    try:
        return np.array(best, dtype=np.int64)
    except OverflowError:
        raise NumericDegeneracyError(
            f"coefficient entry {max(best, key=abs)} does not fit in int64; "
            "inputs are numerically degenerate"
        ) from None


def _solve_row(h, P, hnorm2, t, order, sign, f, q, shortcut: bool) -> SolveResult:
    """:func:`solve` on one channel row ``h`` with ``hnorm2 = np.dot(h, h)``
    and its canonical row ``t, order, sign, f, q``: the first unit vector if
    ``shortcut`` (the caller's unit-vector test passed and may be used),
    else the walk.  The answer is mapped back and rated by :func:`_answer`,
    or in O(1) with the same floats where it is the first unit vector.
    """
    if shortcut:
        best, objective, nodes = None, float(q[0]), 0
    else:
        best, incumbents, nodes = _constrained_walk(t, f, q, shrink=True)
        objective = float(incumbents[-1])
    if best is None:
        # the first unit vector maps back to sign[0] at order[0]; its rate
        # needs no dot products (see core._unit_form)
        a = np.zeros(t.size, dtype=np.int64)
        a[order[0]] = sign[0]
        rate = _rate(_unit_form(float(h[order[0]]), P, hnorm2))
    else:
        a, rate = _answer(h, P, hnorm2, order, sign, _coefficients(best, t.size))
    return SolveResult(a, rate, objective, nodes, bool(shortcut))


def _answer(h, P, hnorm2, order, sign, a) -> tuple:
    """Canonical vector ``a`` of channel row ``h`` as ``(a, rate)``: ``a``
    mapped back through ``order`` and ``sign`` to original coordinates, and
    the float :func:`~cfcoef.core.computation_rate` gives for it."""
    a = _invert(order, sign, a)
    return a, _rate(_quadratic_form(h, P, hnorm2, a.astype(np.float64)))


def count_visited_nodes(sc: ScaledChannel) -> int:
    """Nodes the fixed-radius walk generates and tests, leaves included.

    Every radius test after the seeded start evaluates exactly one freshly
    generated candidate, so this equals the test count minus one.  It is
    the per-instance complexity meter used by the node-ratio benchmark mode
    and is the quantity bounded by ``2 * n * sqrt(1 + P * ||h||^2)`` on
    Gaussian channels.
    """
    _, _, tests = _constrained_walk(sc.t, sc.f, sc.q, shrink=False)
    return tests - 1


def baseline_search(R) -> SearchResult:
    """Unconstrained Schnorr-Euchner enumeration over an explicit factor.

    Starts with an infinite radius, visits candidates at each level in
    zig-zag order around the conditional center, and records every strict
    improvement.  Reference implementation: O(n) work per node because the
    centers are recomputed from the matrix rows.

    Raises
    ------
    ValueError
        If ``R`` holds a non-real entry, is not square upper-triangular, or
        has a zero diagonal entry.
    """
    R = _real_array(R, "R").astype(np.float64, copy=False)
    if R.ndim != 2 or R.shape[0] != R.shape[1] or R.shape[0] == 0:
        raise ValueError("R must be a square matrix")
    if np.any(np.tril(R, k=-1) != 0.0):
        raise ValueError("R must be upper triangular")
    diag = np.diag(R)
    if np.any(diag == 0.0):
        raise ValueError("R is singular")
    n = R.shape[0]
    rows = R.tolist()
    diag2 = (diag * diag).tolist()

    a = [0] * n
    d = [0.0] * n
    s = [0] * n
    sig = [0.0] * n
    k = n - 1
    s[k] = 1  # sgn(d - round(d)) with d = 0
    beta2 = math.inf
    best = None
    incumbents = []
    nodes = 0

    while True:
        nodes += 1
        alpha = sig[k] + diag2[k] * (a[k] - d[k]) ** 2
        if alpha < beta2:
            if k > 0:
                rowk = rows[k - 1]
                acc = 0.0
                for j in range(k, n):
                    acc += rowk[j] * a[j]
                k -= 1
                sig[k] = alpha
                dk = -acc / rowk[k]
                d[k] = dk
                a[k] = _round_nearest(dk)
                s[k] = 1 if dk >= a[k] else -1
                continue
            if any(a):
                best = list(a)
                beta2 = alpha
                incumbents.append(alpha)
                if n == 1:
                    break
                k += 1
            # after the zero vector, enumeration resumes at level 0
        elif k < n - 1:
            k += 1
        else:
            break
        a[k] += s[k]
        s[k] = -s[k] - _sgn(s[k])

    return SearchResult(
        a=np.array(best, dtype=np.int64),
        objective=float(beta2),
        nodes_visited=nodes,
        incumbents=tuple(incumbents),
    )


def solve(ch: ChannelInstance, use_shortcut: bool = True) -> SolveResult:
    """Full pipeline: scale, sort into canonical form, search, map back, compute the rate.

    The rows are built as :func:`~cfcoef.bench.run_trials` builds a chunk's,
    and ``rate`` is the :func:`~cfcoef.core.computation_rate` float of ``a``.
    When ``use_shortcut`` is true (the default) the O(n) unit-vector test,
    run on this row as ``run_trials`` runs it once per chunk, skips the search
    when it holds; pass False to force the search, e.g. for full-tree counts.

    Raises
    ------
    ValueError
        If ``P * ||h||**2`` is not finite, or the tail sums overflow (see
        :meth:`~cfcoef.core.ScaledChannel.from_channel`).
    NumericDegeneracyError
        If the rate of ``a`` cannot be evaluated in floats, or an entry of
        ``a`` does not fit in int64.
    """
    _, hnorm2, t, order, sign, f, q = _channel_rows(ch.h[None], ch.P)
    return _solve_row(ch.h, ch.P, hnorm2.item(), t[0], order[0], sign[0], f[0], q[0],
                      use_shortcut and _e1_optimal(t[0], f[0]))
