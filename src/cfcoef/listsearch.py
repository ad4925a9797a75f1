"""Enumeration of the L best coefficient vectors for relay coordination.

A single best vector per relay can leave the destination with a rank
deficient coefficient matrix, so the coordination strategy asks each
relay for a short list of good vectors instead.  The list search reuses
the implicit-factor machinery of :mod:`cfcoef.search` with three changes:
the ordering constraint on candidates is dropped, level-0 enumeration
runs upward from ``ceil(d[0])`` so that exactly one of each ``{a, -a}``
pair is produced, and the radius starts at 1 (a vector with objective 1
or more has rate zero and is useless) and only shrinks once the list is
full, tracking its worst member thereafter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ChannelInstance, ScaledChannel, _channel_rows, _require_count
from .search import _answer, _coefficients, _round_nearest, _sgn

__all__ = ["Candidate", "CandidateList", "list_search", "list_solve"]


class Candidate(NamedTuple):
    a: np.ndarray
    objective: float


@dataclass(frozen=True)
class CandidateList:
    """Up to ``requested`` coefficient vectors with objectives strictly below 1.

    Entries are sorted ascending by objective (ties broken by vector
    lexicographic order), are pairwise distinct up to global sign, and the
    first entry attains the global optimum.  Fewer than ``requested``
    entries are returned when fewer vectors have positive rate.
    """

    entries: tuple
    requested: int

    def __post_init__(self):
        object.__setattr__(self, "requested", _require_count(self.requested, "requested"))
        if len(self.entries) > self.requested:
            raise ValueError("more entries than requested")

    @property
    def objectives(self) -> tuple:
        return tuple(e.objective for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


def _insert(vecs: list, objs: list, a: list, alpha: float, limit: int) -> None:
    # Guard against sign duplicates: they can only arise when a level-0
    # center falls exactly on an integer, which ties the objective exactly,
    # so only candidates with an identical stored objective need checking.
    for i, g in enumerate(objs):
        if g == alpha:
            v = vecs[i]
            if v == a or all(x == -y for x, y in zip(v, a)):
                return
    if len(objs) == limit:
        worst = max(range(limit), key=objs.__getitem__)
        vecs[worst] = list(a)
        objs[worst] = alpha
    else:
        vecs.append(list(a))
        objs.append(alpha)


def list_search(sc: ScaledChannel, L: int) -> CandidateList:
    """Collect up to ``L`` integer vectors with the smallest objectives below 1.

    Levels above 0 enumerate all integers in zig-zag order around the
    conditional center; level 0 starts at ``ceil(d[0])`` and steps upward,
    so each returned vector is the representative of its sign pair chosen
    by that upward sweep.  While the list is not yet full the radius stays
    at 1; afterwards every insertion replaces the current worst member and
    the radius drops to the new worst objective.
    """
    _require_count(L, "L")
    entries = tuple(
        Candidate(a=_coefficients(a, sc.n), objective=float(objective))
        for objective, a in _list_walk(sc.t, sc.f, sc.q, L)
    )
    return CandidateList(entries=entries, requested=L)


def _list_walk(t: np.ndarray, f: np.ndarray, q: np.ndarray, L: int) -> list:
    """:func:`list_search` on one canonical row ``t``, ``f``, ``q``, as a list
    of ``(objective, a)`` pairs in its entries' order."""
    n = t.size
    t = t.tolist()
    f = f.tolist()
    q = q.tolist()

    p = [0.0] * (n + 1)
    d = [0.0] * n
    sig = [0.0] * n
    a = [0] * n
    a[0] = 1
    s = [1] * n
    k = 0
    beta2 = 1.0
    delta = q[0]
    vecs: list = []
    objs: list = []

    while True:
        alpha = sig[k] + delta
        if alpha < beta2:
            if k > 0:
                p[k] = p[k + 1] + t[k] * a[k]
                k -= 1
                sig[k] = alpha
                dk = t[k] * p[k + 1] / f[k + 1]
                d[k] = dk
                if k > 0:
                    ak = _round_nearest(dk)
                    s[k] = 1 if dk >= ak else -1
                else:
                    ak = math.ceil(dk)
                    s[0] = 1
                a[k] = ak
                delta = q[k] * (ak - dk) ** 2
            else:
                _insert(vecs, objs, a, alpha, L)
                if len(objs) == L:
                    beta2 = max(objs)
                a[0] += 1
                delta = q[0] * (a[0] - d[0]) ** 2
        elif k < n - 1:
            k += 1
            a[k] += s[k]
            s[k] = -s[k] - _sgn(s[k])
            delta = q[k] * (a[k] - d[k]) ** 2
        else:
            break

    # no two entries are equal, so the pairs sort by objective, then vector
    return sorted(zip(objs, vecs))


def _list_row(h, P, hnorm2, t, order, sign, f, q, L: int) -> list:
    """:func:`list_solve` on one channel row; the row arguments are those of
    :func:`~cfcoef.search._solve_row`."""
    return [_answer(h, P, hnorm2, order, sign, _coefficients(a, t.size))
            for _, a in _list_walk(t, f, q, L)]


def list_solve(ch: ChannelInstance, L: int):
    """List pipeline: build the canonical rows, enumerate, map back, attach rates.

    Returns a list of ``(a, rate)`` pairs in original coordinates with
    nonincreasing rates; may be shorter than ``L`` when fewer vectors have
    positive rate.  The rows are built as :func:`~cfcoef.search.solve`
    builds them, and each rate is the ``computation_rate`` float of its ``a``.

    Raises
    ------
    ValueError
        If ``L`` is not an integer of at least 1 (before any search), or if
        ``P * ||h||**2`` is not finite or the tail sums overflow (see
        :meth:`~cfcoef.core.ScaledChannel.from_channel`).
    NumericDegeneracyError
        If a rate cannot be evaluated in floats, or an entry of a vector
        does not fit in int64.
    """
    _require_count(L, "L")
    _, hnorm2, t, order, sign, f, q = _channel_rows(ch.h[None], ch.P)
    return _list_row(ch.h, ch.P, hnorm2.item(), t[0], order[0], sign[0], f[0], q[0], L)
