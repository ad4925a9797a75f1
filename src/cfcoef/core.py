"""Channel scaling, canonical reordering, and the implicit Cholesky data.

A relay that decodes an integer combination ``a`` of the transmitted
signals achieves a computation rate determined by the quadratic form
``a' G a`` with ``G = I - t t'``, where ``t`` is the channel rescaled so
that ``||t|| < 1``.  Because ``G`` is an identity minus a rank-one term,
its Cholesky factor is available in closed form and the sphere search
only ever needs two derived vectors:

* ``f[i] = 1 - sum(t[:i]**2)``, the cumulative tail mass, and
* ``q[k] = f[k+1] / f[k]``, the squared diagonal of the factor.

This module builds those quantities (stably, from channel tail sums
rather than by repeated subtraction), canonicalizes ``t`` into sorted
nonnegative form through a signed permutation, and provides the rate
formula plus the O(n) optimality shortcut for the first unit vector.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelInstance",
    "SignedPermutation",
    "ScaledChannel",
    "NumericDegeneracyError",
    "scale_channel",
    "canonicalize",
    "restore",
    "cholesky_factor",
    "computation_rate",
    "e1_is_optimal",
    "objective_lower_bound",
]


class NumericDegeneracyError(ArithmeticError):
    """A quantity that is positive in exact arithmetic evaluated <= 0."""


def _is_integer(x) -> bool:
    """True for Python and NumPy integers; a bool is not a count."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D real vector")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must contain only finite values")
    return v


@dataclass(frozen=True)
class ChannelInstance:
    """A real channel vector ``h`` observed at one relay, with linear SNR ``P``."""

    h: np.ndarray
    P: float

    def __post_init__(self):
        h = _as_vector(self.h, "h")
        if not np.any(h):
            raise ValueError("zero channel vector is trivial and rejected")
        P = float(self.P)
        if not math.isfinite(P) or P <= 0.0:
            raise ValueError(f"P must be positive and finite, got {P!r}")
        object.__setattr__(self, "h", _readonly(h))
        object.__setattr__(self, "P", P)

    @property
    def n(self) -> int:
        return self.h.size


@dataclass(frozen=True)
class SignedPermutation:
    """A permutation combined with per-coordinate sign flips.

    Canonical slot ``i`` receives ``sign[i] * x[perm[i]]`` of the original
    vector ``x``.  Applying :meth:`apply` then :meth:`invert` is the
    identity, and inner products against correspondingly mapped vectors
    are preserved exactly.
    """

    perm: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.intp)
        sign = np.asarray(self.sign, dtype=np.int64)
        if perm.ndim != 1 or sign.shape != perm.shape:
            raise ValueError("perm and sign must be 1-D arrays of equal length")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError("perm is not a permutation of 0..n-1")
        if not np.all(np.abs(sign) == 1):
            raise ValueError("sign entries must be +1 or -1")
        object.__setattr__(self, "perm", _readonly(perm))
        object.__setattr__(self, "sign", _readonly(sign))

    @property
    def n(self) -> int:
        return self.perm.size

    def apply(self, x) -> np.ndarray:
        """Map a vector from original to canonical coordinates."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got shape {x.shape}")
        return self.sign * x[self.perm]

    def invert(self, y) -> np.ndarray:
        """Map a vector from canonical coordinates back to the original ones."""
        y = np.asarray(y)
        if y.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got shape {y.shape}")
        out = np.empty_like(y)
        out[self.perm] = self.sign * y
        return out


@dataclass(frozen=True)
class ScaledChannel:
    """Canonical scaled channel with the precomputed search factors.

    Attributes
    ----------
    t : ndarray
        Scaled channel in canonical form: sorted nonincreasing,
        nonnegative, with ``||t|| < 1`` strictly.
    perm : SignedPermutation
        Mapping from original to canonical coordinates, ``t = perm.apply(t_raw)``.
    f : ndarray, shape (n + 1,)
        ``f[i] = 1 - sum(t[:i]**2)``; ``f[0] == 1`` and ``f[n] > 0``.
    q : ndarray, shape (n,)
        ``q[k] = f[k+1] / f[k]``, in ``(0, 1]``; the squared diagonal of
        the Cholesky factor of ``I - t t'``.
    tnorm2 : float
        ``||t||**2``.
    """

    t: np.ndarray
    perm: SignedPermutation
    f: np.ndarray
    q: np.ndarray
    tnorm2: float

    def __post_init__(self):
        t = _as_vector(self.t, "t")
        n = t.size
        f = _as_vector(self.f, "f")
        q = _as_vector(self.q, "q")
        if self.perm.n != n or f.size != n + 1 or q.size != n:
            raise ValueError("inconsistent array lengths")
        if t[-1] < 0.0 or np.any(np.diff(t) > 0.0):
            raise ValueError("t must be sorted nonincreasing and nonnegative")
        if f[0] != 1.0 or f[-1] <= 0.0 or np.any(np.diff(f) > 0.0):
            raise ValueError("f must start at 1, be nonincreasing, and stay positive")
        if np.any(q <= 0.0) or np.any(q > 1.0):
            raise ValueError("q entries must lie in (0, 1]")
        # f[-1] > 0 witnesses ||t|| < 1; the stored float itself may round
        # to 1.0 at extreme SNR where 1 - ||t||^2 is below one ulp
        tnorm2 = float(self.tnorm2)
        if not 0.0 <= tnorm2 <= 1.0:
            raise ValueError("||t||^2 must lie in [0, 1]")
        object.__setattr__(self, "t", _readonly(t))
        object.__setattr__(self, "f", _readonly(f))
        object.__setattr__(self, "q", _readonly(q))
        object.__setattr__(self, "tnorm2", tnorm2)

    @property
    def n(self) -> int:
        return self.t.size

    @classmethod
    def from_channel(cls, ch: ChannelInstance) -> "ScaledChannel":
        """Build the canonical scaled channel directly from ``(h, P)``.

        ``f`` is formed from tail sums of the reordered squared channel,
        ``f[i] = (1 + P * sum(h'[i:]**2)) / (1 + P * ||h||**2)``, which keeps
        every entry strictly positive even at SNR values where the direct
        subtraction ``1 - sum(t**2)`` would cancel to zero.
        """
        t_raw = scale_channel(ch)
        perm = _canonical_order(t_raw)
        t = perm.apply(t_raw)
        hsq = np.square(ch.h[perm.perm])
        suffix = np.zeros(ch.n + 1)
        suffix[:-1] = np.cumsum(hsq[::-1])[::-1]
        num = 1.0 + ch.P * suffix
        denom = num[0]
        f = num / denom
        f[0] = 1.0
        np.minimum.accumulate(f, out=f)
        q = np.minimum(num[1:] / num[:-1], 1.0)
        tnorm2 = float(ch.P * suffix[0] / denom)
        return cls(t=t, perm=perm, f=f, q=q, tnorm2=tnorm2)


def _canonical_order(t_raw: np.ndarray) -> SignedPermutation:
    # Stable sort on magnitude, ties kept in original index order; entries
    # equal to zero get sign +1.
    order = np.argsort(-np.abs(t_raw), kind="stable")
    sign = np.where(t_raw[order] < 0.0, -1, 1).astype(np.int64)
    return SignedPermutation(perm=order, sign=sign)


def scale_channel(ch: ChannelInstance) -> np.ndarray:
    """Rescale the channel so the quadratic form becomes ``||a||^2 - (t'a)^2``.

    Returns ``t_raw = sqrt(P / (1 + P ||h||^2)) * h``, which always satisfies
    ``||t_raw|| < 1``.
    """
    hnorm2 = float(np.dot(ch.h, ch.h))
    factor = math.sqrt(ch.P / (1.0 + ch.P * hnorm2))
    return ch.h * factor


def canonicalize(t_raw) -> ScaledChannel:
    """Sort a scaled channel into canonical nonnegative nonincreasing form.

    Accepts any vector with ``||t_raw|| < 1`` (entries strictly inside the
    unit interval in magnitude) and records the signed permutation that
    produced the canonical ordering, so solutions can be mapped back with
    :func:`restore`.
    """
    t_raw = _as_vector(t_raw, "t_raw")
    if np.any(np.abs(t_raw) >= 1.0):
        raise ValueError("every entry of t_raw must satisfy |t_i| < 1")
    perm = _canonical_order(t_raw)
    t = perm.apply(t_raw)
    sq = np.square(t)
    suffix = np.zeros(t.size + 1)
    suffix[:-1] = np.cumsum(sq[::-1])[::-1]
    tnorm2 = float(suffix[0])
    residual = 1.0 - tnorm2
    if residual <= 0.0:
        raise ValueError("||t_raw|| must be strictly less than 1")
    f = residual + suffix
    f[0] = 1.0
    np.minimum.accumulate(f, out=f)
    q = np.minimum(f[1:] / f[:-1], 1.0)
    return ScaledChannel(t=t, perm=perm, f=f, q=q, tnorm2=tnorm2)


def restore(perm: SignedPermutation, a) -> np.ndarray:
    """Map a canonical-coordinate coefficient vector back to original coordinates."""
    return perm.invert(a)


def cholesky_factor(sc: ScaledChannel) -> np.ndarray:
    """Materialize the upper-triangular factor ``R`` with ``R'R = I - t t'``.

    Intended for validation and for the explicit-matrix baseline search;
    the main search works from ``sc.f`` and ``sc.q`` alone and never forms
    this matrix.
    """
    t, f, q = sc.t, sc.f, sc.q
    n = sc.n
    R = np.zeros((n, n))
    R[np.diag_indices(n)] = np.sqrt(q)
    if n > 1:
        row_scale = -t / np.sqrt(f[:-1] * f[1:])
        iu, ju = np.triu_indices(n, k=1)
        R[iu, ju] = row_scale[iu] * t[ju]
    return R


def computation_rate(ch: ChannelInstance, a) -> float:
    """Computation rate in bits per channel use for integer combination ``a``.

    ``0.5 * log2(1 / (||a||^2 - P (h'a)^2 / (1 + P ||h||^2)))`` clamped at
    zero.  The denominator equals ``a' G a`` and is positive for every
    nonzero integer vector in exact arithmetic.

    Raises
    ------
    ValueError
        If ``a`` is the zero vector or has the wrong length.
    NumericDegeneracyError
        If the denominator evaluates to a nonpositive float.
    """
    a = np.asarray(a)
    if a.shape != ch.h.shape:
        raise ValueError(f"a must have length {ch.n}")
    if not np.any(a):
        raise ValueError("the zero coefficient vector has no rate")
    af = a.astype(np.float64)
    hnorm2 = float(np.dot(ch.h, ch.h))
    inner = float(np.dot(ch.h, af))
    denom = float(np.dot(af, af)) - ch.P * inner * inner / (1.0 + ch.P * hnorm2)
    if denom <= 0.0:
        raise NumericDegeneracyError(
            f"quadratic form evaluated to {denom!r}; inputs are numerically degenerate"
        )
    if denom >= 1.0:
        return 0.0
    return -0.5 * math.log2(denom)


def e1_is_optimal(sc: ScaledChannel) -> bool:
    """O(n) test that the first unit vector already solves the minimization.

    True iff ``t[i]**2 <= t[0]**2 * f[i]`` for every ``i >= 1``; the
    optimal objective is then ``1 - t[0]**2 = q[0]``.
    """
    if sc.n == 1:
        return True
    sq = np.square(sc.t)
    return bool(np.all(sq[1:] <= sq[0] * sc.f[1:-1]))


def objective_lower_bound(sc: ScaledChannel) -> float:
    """Smallest diagonal of the Cholesky factor, ``min_k sqrt(q[k])``.

    Every nonzero integer vector satisfies ``||R a|| >= objective_lower_bound``,
    and the bound itself is at least ``sqrt(1 - ||t||^2)``.
    """
    return math.sqrt(float(sc.q.min()))
