"""Exhaustive reference solvers, deliberately simple and slow.

These enumerate an integer box that provably contains every solution and
evaluate the objective ``||a||^2 - (t'a)^2`` directly, giving the search
algorithms an independent ground truth.  Box sizing:

* single optimum (:func:`brute_force_svp`): any minimizer satisfies
  ``||a||^2 <= (1 - max(t)^2) / (1 - ||t||^2)`` because the quadratic form
  is at least ``(1 - ||t||^2) ||a||^2`` and the best unit vector already
  achieves ``1 - max(t)^2``;
* top-L lists (:func:`brute_force_topl`): every member has objective
  below 1, hence ``||a||^2 < 1 / (1 - ||t||^2)``.

Only one representative of each ``{a, -a}`` pair is enumerated (the one
whose first nonzero coordinate is positive).  Instances whose box would
be astronomically large are refused rather than attempted.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _as_vector, _check_finite, _require_count
from .listsearch import Candidate, CandidateList
from .search import SearchResult

__all__ = [
    "OracleInfeasibleError",
    "svp_box_bound",
    "topl_box_bound",
    "brute_force_svp",
    "brute_force_topl",
]

MAX_BOX_HALF_WIDTH = 50
MAX_BOX_POINTS = 100_000_000
_CHUNK = 1 << 18


class OracleInfeasibleError(ValueError):
    """The instance would require enumerating too many points."""


def _check_t(t) -> tuple:
    t = _as_vector(t, "t")
    _check_finite(t, "t")
    norm2 = float(np.dot(t, t))
    if np.any(np.abs(t) >= 1.0) or norm2 >= 1.0:
        raise ValueError("t must satisfy ||t|| < 1 with every |t_i| < 1")
    if 1.0 - norm2 < 1e-12:
        raise OracleInfeasibleError("1 - ||t||^2 is below the enumeration floor")
    return t, norm2


def svp_box_bound(t) -> int:
    """Half-width of a box guaranteed to contain a global minimizer."""
    t, norm2 = _check_t(t)
    tmax2 = float(np.max(np.square(t)))
    return math.ceil(math.sqrt((1.0 - tmax2) / (1.0 - norm2)))

def topl_box_bound(t) -> int:
    """Half-width of a box containing every vector with objective below 1."""
    _, norm2 = _check_t(t)
    return math.ceil(math.sqrt(1.0 / (1.0 - norm2)))


def _require_enumerable(B: int, n: int) -> int:
    points = (2 * B + 1) ** n
    if B > MAX_BOX_HALF_WIDTH or points > MAX_BOX_POINTS:
        raise OracleInfeasibleError(
            f"box half-width {B} in dimension {n} needs {points} points"
        )
    return points


def _half_box(t: np.ndarray, B: int):
    """Yield (coords, objectives) over the sign-canonical half of the box.

    Points are decoded from flat indices in mixed radix ``2B+1``; indices
    above the central (all-zero) point are exactly the vectors whose first
    nonzero coordinate is positive.
    """
    n = t.size
    m = 2 * B + 1
    total = m**n
    start = total // 2 + 1  # index of the zero vector is (total - 1) // 2
    for lo in range(start, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        coords = np.empty((idx.size, n), dtype=np.int64)
        rem = idx
        for j in range(n - 1, -1, -1):
            coords[:, j] = rem % m
            rem = rem // m
        coords -= B
        af = coords.astype(np.float64)
        obj = np.einsum("ij,ij->i", af, af) - np.square(af @ t)
        yield coords, obj


def _scan_best_two(t: np.ndarray, B: int):
    """Best and second-best objectives over distinct sign-canonical vectors."""
    best_obj = math.inf
    second_obj = math.inf
    best = None
    examined = 0
    for coords, obj in _half_box(t, B):
        examined += obj.size
        take = min(2, obj.size)
        part = np.argpartition(obj, take - 1)[:take] if obj.size > 2 else np.argsort(obj)
        for i in sorted(part, key=obj.__getitem__):
            o = float(obj[i])
            if o < best_obj:
                second_obj = best_obj
                best_obj = o
                best = coords[i].copy()
            elif o < second_obj:
                second_obj = o
    return best, best_obj, second_obj, examined


def brute_force_svp(t, box: int | None = None) -> SearchResult:
    """Exact minimizer of ``||a||^2 - (t'a)^2`` over nonzero integer vectors.

    The returned vector carries the canonical sign ``t'a >= 0`` (first
    nonzero coordinate positive when the inner product is exactly zero).
    ``box`` overrides the half-width used for enumeration, which is handy
    for checking that enlarging the box never changes the optimum.
    """
    t, _ = _check_t(t)
    B = svp_box_bound(t) if box is None else _require_count(box, "box")
    _require_enumerable(B, t.size)
    best, best_obj, _, examined = _scan_best_two(t, B)
    inner = float(best @ t)
    if inner < 0.0:
        best = -best
    return SearchResult(a=best, objective=best_obj, nodes_visited=examined)


def brute_force_topl(t, L: int, box: int | None = None) -> CandidateList:
    """All-objectives-below-1 enumeration, sorted and truncated to ``L``."""
    L = _require_count(L, "L")
    t, _ = _check_t(t)
    B = topl_box_bound(t) if box is None else _require_count(box, "box")
    _require_enumerable(B, t.size)
    survivors = []
    for coords, obj in _half_box(t, B):
        mask = obj < 1.0
        if np.any(mask):
            for v, o in zip(coords[mask], obj[mask]):
                survivors.append((float(o), v.tolist()))
    survivors.sort()
    entries = tuple(
        Candidate(a=np.array(v, dtype=np.int64), objective=o)
        for o, v in survivors[:L]
    )
    return CandidateList(entries=entries, requested=L)
