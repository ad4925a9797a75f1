"""Depth-first sphere search for the shortest coefficient vector.

Two searches are provided.  :func:`baseline_search` is the classic
Schnorr-Euchner enumeration over an explicit upper-triangular factor,
kept as a reference implementation.  :func:`modified_search` is the
production path: it works from the implicit factorization carried by a
:class:`~cfcoef.core.ScaledChannel` (never materializing the matrix),
starts from the first unit vector with radius ``q[0]``, and enumerates
only candidates with ``a[0] >= a[1] >= ... >= a[n-1] >= 0``, which is
sufficient because the canonical ordering of ``t`` guarantees a solution
of that shape exists.

Two counters walk the same constrained tree with the radius held fixed
at its initial value: :func:`count_tree_nodes` returns the exact number
of feasible partial assignments, and :func:`count_visited_nodes` returns
the number of candidates generated and tested (failing leaves included),
which is the complexity meter used by the benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelInstance,
    ScaledChannel,
    computation_rate,
    e1_is_optimal,
    restore,
)

__all__ = [
    "SearchResult",
    "SolveResult",
    "baseline_search",
    "modified_search",
    "solve",
    "count_tree_nodes",
    "count_visited_nodes",
]


def _round_nearest(x: float) -> int:
    """Nearest integer, with exact .5 ties resolved toward zero."""
    r = math.floor(x + 0.5)
    if r - x == 0.5 and r > 0:
        r -= 1
    return r


def _sgn(x) -> int:
    return 1 if x >= 0 else -1


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
    used_shortcut: bool = False
    incumbents: tuple = ()


@dataclass(frozen=True)
class SolveResult:
    """End-to-end result in original channel coordinates."""

    a: np.ndarray
    rate: float
    objective: float
    nodes_visited: int
    used_shortcut: bool


def modified_search(sc: ScaledChannel) -> SearchResult:
    """Find the optimal canonical coefficient vector by constrained enumeration.

    The search maintains, per level ``k``:

    * ``p[k] = p[k+1] + t[k]*a[k]``, the running inner product of the
      assigned suffix (``p[n] = 0``),
    * ``d[k] = t[k]*p[k+1]/f[k+1]``, the conditional real-valued center,
    * ``sig[k]``, the squared residual contributed by levels above ``k``,

    so each node costs O(1).  Candidates at level ``k`` are visited in the
    zig-zag order around ``d[k]``, clipped from below at ``a[k+1]`` (with
    ``a[n] = 0``); the ``flag`` marker records that the clip was hit, after
    which enumeration proceeds upward only.  The radius starts at ``q[0]``,
    the objective of the first unit vector, and shrinks at every incumbent.

    Untouched-level look-ahead: a level above ``top``, the highest level
    entered so far, is untouched, and every level above it still holds
    ``a = 0``, ``p = d = sig = 0``.  When the walk climbs into one, its first
    steps there are fixed: test ``a[j] = 1`` (value ``q[j]``); if that
    passes, descend once to the center ``t[j-1]*t[j]/f[j]`` rounded and
    clipped at 1 (value ``q[j] + q[j-1]*(a[j-1] - d[j-1])**2``), and, if
    that fails, test ``a[j] = 2`` (value ``4*q[j]``).  No incumbent can
    arise on those steps, so the radius is fixed while they run.  The
    look-ahead evaluates the same tests with the same float values but
    writes no state, counting 1 node for a level whose first test fails and
    3 for a level where all three fail, and climbs on.  At the first level
    where the descent or the ``a[j] = 2`` test passes it hands that level
    to the walk as a fresh entry, ``a[j] = 1``; if it passes level ``n-1``
    the search is over.  Node counts, incumbents and the result equal the
    plain walk's: the walk could only reach a skipped level again by
    descending into it from above, and that descent rewrites every value
    of the level before it is read.
    """
    n = sc.n
    t = sc.t.tolist()
    f = sc.f.tolist()
    q = sc.q.tolist()

    p = [0.0] * (n + 1)
    d = [0.0] * n
    sig = [0.0] * n
    a = [0] * (n + 1)  # a[n] is the fixed sentinel lower bound for level n-1
    a[0] = 1
    s = [1] * n
    flag = [1] * n
    k = 0
    top = 0  # highest level entered so far; all levels above it are untouched
    beta2 = q[0]
    delta = q[0]
    best = None  # incumbent stays the first unit vector until improved
    incumbents = [beta2]
    nodes = 0

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
            else:
                beta2 = alpha
                best = a[:n]
                incumbents.append(alpha)
        elif k < n - 1:
            k += 1
            if k > top:
                # untouched: look ahead (see the docstring).  The walk's
                # p[k] = 0.0 + t[k]*1 is t[k], and its q[k]*(a[k] - 0.0)**2
                # is qk for a[k] = 1 and 4.0*qk for a[k] = 2, so each test
                # compares the same float the walk would.
                while k < n:
                    qk = q[k]
                    if qk < beta2:
                        dk = t[k - 1] * t[k] / f[k]
                        ak = _round_nearest(dk)
                        if ak <= 1:
                            ak = 1
                        if qk + q[k - 1] * (ak - dk) ** 2 < beta2 or 4.0 * qk < beta2:
                            break
                        nodes += 3
                    else:
                        nodes += 1
                    k += 1
                else:
                    break
                top = k
                a[k] = 1
                delta = qk
                continue
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
        else:
            break

    if best is None:
        avec = np.zeros(n, dtype=np.int64)
        avec[0] = 1
    else:
        avec = np.array(best, dtype=np.int64)
    return SearchResult(
        a=avec,
        objective=float(beta2),
        nodes_visited=nodes,
        used_shortcut=False,
        incumbents=tuple(incumbents),
    )


def _fixed_radius_walk(sc: ScaledChannel) -> tuple:
    """Exhaustive constrained walk with the radius held at its initial value.

    Returns ``(feasible, evaluations)`` where ``feasible`` is the number of
    partial assignments that passed the radius test and ``evaluations`` is
    the total number of radius tests performed.
    """
    n = sc.n
    t = sc.t.tolist()
    f = sc.f.tolist()
    q = sc.q.tolist()

    p = [0.0] * (n + 1)
    d = [0.0] * n
    sig = [0.0] * n
    a = [0] * (n + 1)
    a[0] = 1
    s = [1] * n
    flag = [1] * n
    k = 0
    beta2 = q[0]
    delta = q[0]
    feasible = 0
    evals = 0

    while True:
        evals += 1
        alpha = sig[k] + delta
        if alpha < beta2:
            feasible += 1
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
            # a full vector passed: advance to the next level-0 candidate
        elif k < n - 1:
            k += 1
        else:
            return feasible, evals
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


def count_tree_nodes(sc: ScaledChannel) -> int:
    """Exact number of constrained partial assignments at fixed radius.

    With the squared radius pinned at its initial value ``q[0]``, this is
    the cardinality of the set of integer partial vectors
    ``(a[k], ..., a[n-1])`` with ``a[k] >= ... >= a[n-1] >= 0`` and squared
    residual strictly inside the radius, summed over every level ``k``.
    The all-zero partial assignment at each level is feasible by
    construction and accounts for a baseline count of ``n``; the walk only
    ever tests candidates beyond that implicit start.
    """
    feasible, _ = _fixed_radius_walk(sc)
    return sc.n + feasible


def count_visited_nodes(sc: ScaledChannel) -> int:
    """Nodes the fixed-radius walk generates and tests, leaves included.

    Every loop iteration after the seeded start evaluates exactly one
    freshly generated candidate, so this equals the evaluation count minus
    one.  It is the per-instance complexity meter used by the node-ratio
    benchmark mode and is the quantity bounded by
    ``2 * n * sqrt(1 + P * ||h||^2)`` on Gaussian channels.
    """
    _, evals = _fixed_radius_walk(sc)
    return evals - 1


def baseline_search(R) -> SearchResult:
    """Unconstrained Schnorr-Euchner enumeration over an explicit factor.

    Starts with an infinite radius, visits candidates at each level in
    zig-zag order around the conditional center, and records every strict
    improvement.  Reference implementation: O(n) work per node because the
    centers are recomputed from the matrix rows.

    Raises
    ------
    ValueError
        If ``R`` is not square upper-triangular or has a zero diagonal entry.
    """
    R = np.asarray(R, dtype=np.float64)
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
        used_shortcut=False,
        incumbents=tuple(incumbents),
    )


def solve(ch: ChannelInstance, use_shortcut: bool = True) -> SolveResult:
    """Full pipeline: scale, canonicalize, search, map back, compute the rate.

    When ``use_shortcut`` is true (the default) the O(n) unit-vector test
    short-circuits the enumeration whenever it applies; pass False to force
    the search, e.g. when node counts must reflect the full tree.
    """
    sc = ScaledChannel.from_channel(ch)
    if use_shortcut and e1_is_optimal(sc):
        a_canonical = np.zeros(sc.n, dtype=np.int64)
        a_canonical[0] = 1
        objective = float(sc.q[0])
        result = SearchResult(
            a=a_canonical,
            objective=objective,
            nodes_visited=0,
            used_shortcut=True,
            incumbents=(objective,),
        )
    else:
        result = modified_search(sc)
    a = restore(sc.perm, result.a)
    rate = computation_rate(ch, a)
    return SolveResult(
        a=a,
        rate=rate,
        objective=result.objective,
        nodes_visited=result.nodes_visited,
        used_shortcut=result.used_shortcut,
    )
