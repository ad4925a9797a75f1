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

from .core import ChannelInstance, ScaledChannel, _is_integer, computation_rate, restore
from .search import _round_nearest, _sgn

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
        if self.requested < 1:
            raise ValueError("requested list size must be at least 1")
        if len(self.entries) > self.requested:
            raise ValueError("more entries than requested")

    @property
    def objectives(self) -> tuple:
        return tuple(e.objective for e in self.entries)

    @property
    def vectors(self) -> tuple:
        return tuple(e.a for e in self.entries)

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
    if not _is_integer(L) or L < 1:
        raise ValueError(f"L must be an integer of at least 1, got {L!r}")
    n = sc.n
    t = sc.t.tolist()
    f = sc.f.tolist()
    q = sc.q.tolist()

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

    order = sorted(range(len(objs)), key=lambda i: (objs[i], vecs[i]))
    entries = tuple(
        Candidate(a=np.array(vecs[i], dtype=np.int64), objective=float(objs[i]))
        for i in order
    )
    return CandidateList(entries=entries, requested=L)


def list_solve(ch: ChannelInstance, L: int):
    """List pipeline: canonicalize, enumerate, map back, attach rates.

    Returns a list of ``(a, rate)`` pairs in original coordinates with
    nonincreasing rates; may be shorter than ``L`` when fewer vectors have
    positive rate.
    """
    sc = ScaledChannel.from_channel(ch)
    found = list_search(sc, L)
    out = []
    for cand in found.entries:
        a = restore(sc.perm, cand.a)
        out.append((a, computation_rate(ch, a)))
    return out
