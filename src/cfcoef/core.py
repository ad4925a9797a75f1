"""Channel scaling, canonical reordering, and the implicit Cholesky data.

A relay that decodes an integer combination ``a`` of the transmitted
signals achieves a computation rate determined by the quadratic form
``a' G a`` with ``G = I - t t'``, where ``t`` is the channel rescaled so
that ``||t|| < 1``.  Because ``G`` is an identity minus a rank-one term,
its Cholesky factor is available in closed form and the sphere search
only ever needs two derived vectors:

* ``f[i] = 1 - sum(t[:i]**2)``, the cumulative tail mass, and
* ``q[k] = f[k+1] / f[k]``, the squared diagonal of the factor.

One builder forms those quantities from ``(h, P)``, by tail sums of the
sorted channel rather than by repeated subtraction, and brings ``t`` into
sorted nonnegative form through a signed permutation.  The module also provides
the rate formula plus the O(n) optimality shortcut for the first unit vector.
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
    "restore",
    "cholesky_factor",
    "computation_rate",
    "e1_is_optimal",
    "objective_lower_bound",
]


class NumericDegeneracyError(ArithmeticError):
    """The inputs are beyond what the floats and int64 vectors can carry: a
    quantity that is positive in exact arithmetic evaluated <= 0 (or nan), or
    an optimal coefficient does not fit in int64."""


def _is_real(x) -> bool:
    """True for Python and NumPy reals, except bools and timedeltas (a NumPy integer type)."""
    return isinstance(x, numbers.Real) and not isinstance(x, (bool, np.timedelta64))


def _is_integer(x) -> bool:
    """True for the integers among :func:`_is_real` numbers."""
    return isinstance(x, numbers.Integral) and _is_real(x)


def _require_count(value, name: str) -> int:
    """``value`` as a Python int; ``ValueError`` unless an integer of at least 1."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    return int(value)


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only contiguous copy, so the caller's array stays its own."""
    a = np.array(a, order="C")
    a.flags.writeable = False
    return a


def _real_array(x, name: str) -> np.ndarray:
    """``np.asarray(x)``, dtype kept; ``ValueError`` unless ``x`` is a float or integer
    array, or NumPy reads it as a numeric or object array of :func:`_is_real` entries: a
    float cast would drop an imaginary part, read a bool as 0 or 1, or parse a string.  A
    list of floats may hide a bool, and a datetime64 array's entries can read as ints."""
    v = np.asarray(x)
    if v.dtype.kind in "fiu" and isinstance(x, np.ndarray):
        return v
    if v.dtype.kind in "fiuO":
        # _is_real depends on an entry's type alone, so one entry per type is tested
        entries = np.asarray(x, dtype=object).ravel()
        if all(map(_is_real, dict(zip(map(type, entries), entries)).values())):
            return v
    raise ValueError(f"{name} must hold real numbers, not booleans, complex numbers or strings")


def _as_vector(x, name: str) -> np.ndarray:
    """:func:`_real_array` as a nonempty 1-D float vector; the caller checks its values."""
    v = _real_array(x, name).astype(np.float64, copy=False)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D real vector")
    return v


def _check_finite(v: np.ndarray, name: str) -> None:
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must contain only finite values")


def _check_channels(h: np.ndarray) -> None:
    """``ValueError`` unless each channel ``h[..., :]`` is finite and nonzero."""
    _check_finite(h, "h")
    if not h.any(axis=-1).all():
        raise ValueError("zero channel vector is trivial and rejected")


@dataclass(frozen=True)
class ChannelInstance:
    """A real channel vector ``h`` observed at one relay, with linear SNR ``P``."""

    h: np.ndarray
    P: float

    def __post_init__(self):
        h = _as_vector(self.h, "h")
        _check_channels(h)
        if not _is_real(self.P):
            raise ValueError(f"P must be a real number, got {self.P!r}")
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
    vector ``x``; :func:`restore` maps a canonical vector back.  Inner
    products against correspondingly mapped vectors are preserved exactly.
    """

    perm: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        # checked as floats, so a fractional entry is rejected, not truncated
        perm = _as_vector(self.perm, "perm")
        sign = _as_vector(self.sign, "sign")
        if sign.shape != perm.shape:
            raise ValueError("perm and sign must be 1-D arrays of equal length")
        if (np.sort(perm) != np.arange(perm.size)).any():
            raise ValueError("perm is not a permutation of 0..n-1")
        if not (np.abs(sign) == 1).all():
            raise ValueError("sign entries must be +1 or -1")
        object.__setattr__(self, "perm", _readonly(perm.astype(np.intp)))
        object.__setattr__(self, "sign", _readonly(sign.astype(np.int64)))

    @property
    def n(self) -> int:
        return self.perm.size


def _invert(perm: np.ndarray, sign: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`restore` on one row's ``perm`` and ``sign``."""
    out = np.empty_like(y)
    out[perm] = sign * y
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
        Mapping from original to canonical coordinates (``t_raw`` to ``t``).
    f : ndarray, shape (n + 1,)
        ``f[i] = 1 - sum(t[:i]**2)``; ``f[0] == 1`` and ``f[n] = 1 - ||t||**2 > 0``.
    q : ndarray, shape (n,)
        ``q[k] = f[k+1] / f[k]``, in ``(0, 1]``; the squared diagonal of
        the Cholesky factor of ``I - t t'``.
    """

    t: np.ndarray
    perm: SignedPermutation
    f: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        t = _as_vector(self.t, "t")
        n = t.size
        f = _as_vector(self.f, "f")
        q = _as_vector(self.q, "q")
        if self.perm.n != n or f.size != n + 1 or q.size != n:
            raise ValueError("inconsistent array lengths")
        # a nan fails every test, and the bounds on f and q exclude infinities
        _check_finite(t, "t")
        if not (t[-1] >= 0.0 and (t[:-1] >= t[1:]).all()):
            raise ValueError("t must be sorted nonincreasing and nonnegative")
        if not (f[0] == 1.0 and f[-1] > 0.0 and (f[:-1] >= f[1:]).all()):
            raise ValueError("f must start at 1, be nonincreasing, and stay positive")
        if not ((q > 0.0) & (q <= 1.0)).all():
            raise ValueError("q entries must lie in (0, 1]")
        object.__setattr__(self, "t", _readonly(t))
        object.__setattr__(self, "f", _readonly(f))
        object.__setattr__(self, "q", _readonly(q))

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

        Raises
        ------
        ValueError
            If ``P * ||h||**2`` is not finite, or if ``1 + P * sum(h'**2)``
            overflows as the tail sums add it: a few ulps from the float
            limit, their order can overflow where ``||h||**2``'s did not.
        """
        t, order, sign, f, q = _channel_rows(ch.h[None], ch.P)[2:]
        return cls(t=t[0], perm=SignedPermutation(perm=order[0], sign=sign[0]), f=f[0], q=q[0])


def _sort_rows(t_raw: np.ndarray, key: np.ndarray, kind) -> tuple:
    """Each row of ``t_raw`` ordered by ``np.argsort(key, kind=kind)`` as
    ``(order, flat, sign, t)``: the order, its flat gather index, and the
    signs (+1 for a zero) that make the sorted row ``t`` nonnegative."""
    m, n = t_raw.shape
    order = np.argsort(key, axis=1, kind=kind)
    flat = order + np.arange(0, m * n, n)[:, None]
    t_sorted = t_raw.take(flat)
    sign = np.where(t_sorted < 0.0, -1, 1)
    return order, flat, sign, sign * t_sorted


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.dot`` of each row pair ``x[..., :]``, ``y[..., :]``, bit for bit.

    One stacked ``1 x n @ n x 1`` matmul: numpy evaluates each such product
    with the float64 dot kernel (BLAS ``ddot``) that ``np.dot`` runs on two
    vectors, so the sums keep its order.  At ``n == 1`` a zero sum may come
    out as ``0.0`` where ``np.dot`` gives ``-0.0``; no caller reads that sign.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


_OVERFLOW = "P*||h||^2 is not finite; scale the channel or P down"


def _scale_rows(h: np.ndarray, P: float) -> tuple:
    """:func:`scale_channel` for each channel row of ``h``: ``(t_raw, hnorm2)``.

    ``hnorm2`` holds each ``||h||^2`` from :func:`_row_dots`, the float
    :func:`computation_rate` uses.  ``ValueError`` if some ``P * ||h||^2``
    overflows; no ``RuntimeWarning`` is emitted on the way.
    """
    with np.errstate(over="ignore"):
        hnorm2 = _row_dots(h, h)
        denom = 1.0 + P * hnorm2
    if not np.isfinite(denom).all():
        raise ValueError(_OVERFLOW)
    return h * np.sqrt(P / denom)[:, None], hnorm2


def _channel_rows(h: np.ndarray, P: float) -> tuple:
    """:meth:`ScaledChannel.from_channel` for each channel row of ``h``, shape ``(m, n)``.

    Returns ``(t_raw, hnorm2, t, order, sign, f, q)``: :func:`_scale_rows`,
    then the canonical rows, unvalidated; ``order`` and ``sign`` are the
    :class:`SignedPermutation` fields and ``f`` is formed from the tail sums of
    ``h``.  Each row is bit-identical to building it alone.  Its order is the
    stable sort's: a row with no two equal magnitudes has exactly one sorted
    order, which numpy's faster default sort returns too, and a chunk with a
    tie anywhere (zeros, ``+-0.0`` and opposite-sign copies included) is
    sorted again with ``kind="stable"``.  The gathers use one flat index, and
    ``cumsum`` adds along a row in sequence.

    ``h`` and ``P`` were already checked (by :class:`ChannelInstance`, or ``h``
    by ``_check_channels`` in a trial chunk), so one test is left.  The tail
    sums add in another order than ``||h||^2``, so near the float limit
    ``1 + P * sum(h**2)`` can overflow where ``P * ||h||^2`` did not; that is
    the same ``ValueError``, with no ``RuntimeWarning``.  The rest needs no
    check: either argsort kind returns a permutation, ``np.where`` only yields
    +1 or -1, and, with the total finite, monotone rounding keeps ``f``
    positive and nonincreasing and every ``q`` in ``(0, 1]``.
    ``tests/test_properties.py`` checks edge-case chunks.
    """
    t_raw, hnorm2 = _scale_rows(h, P)
    m, n = h.shape
    key = -np.abs(t_raw)
    order, flat, sign, t = _sort_rows(t_raw, key, None)
    if np.count_nonzero(t[:, :-1] == t[:, 1:]):
        order, flat, sign, t = _sort_rows(t_raw, key, "stable")
    # num[:, i] is 1 + P * sum(h'[i:]**2), with an empty tail (sum 0.0) last
    num = np.ones((m, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        num[:, :-1] += P * np.cumsum(np.square(h.take(flat))[:, ::-1], axis=1)[:, ::-1]
        # Rounding is monotone, so the cumsum of nonnegative terms, the
        # increasing affine map and the division by num[:, 0] keep num and f
        # nonincreasing: f[:, 0] is exactly 1 and every q is at most 1
        # (tests/test_properties.py checks both).
        f = num / num[:, :1]
        q = num[:, 1:] / num[:, :-1]
    # f[:, -1] is 1 / (1 + P * tail total): positive exactly when that total is finite
    if not (f[:, -1] > 0.0).all():
        raise ValueError(_OVERFLOW)
    return t_raw, hnorm2, t, order, sign, f, q


def scale_channel(ch: ChannelInstance) -> np.ndarray:
    """Rescale the channel so the quadratic form becomes ``||a||^2 - (t'a)^2``.

    Returns ``t_raw = sqrt(P / (1 + P ||h||^2)) * h``, which always satisfies
    ``||t_raw|| < 1``.  ``ValueError`` if ``P * ||h||^2`` is not finite.
    """
    return _scale_rows(ch.h[None], ch.P)[0][0]


def restore(perm: SignedPermutation, a) -> np.ndarray:
    """Map a canonical-coordinate coefficient vector back to original coordinates, dtype kept."""
    a = _real_array(a, "a")
    if a.shape != (perm.n,):
        raise ValueError(f"expected a vector of length {perm.n}, got shape {a.shape}")
    return _invert(perm.perm, perm.sign, a)


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


_INEXACT_ENTRY = "a has an integer entry that a float cannot hold exactly"


def computation_rate(ch: ChannelInstance, a) -> float:
    """Computation rate in bits per channel use for integer combination ``a``.

    ``0.5 * log2(1 / (||a||^2 - P (h'a)^2 / (1 + P ||h||^2)))`` clamped at
    zero.  The denominator equals ``a' G a`` and is positive for every
    nonzero integer vector in exact arithmetic.

    Raises
    ------
    ValueError
        If ``a`` is not a length-``n`` vector of finite integers (integral
        floats are accepted, booleans and strings are not) or is zero; or
        if ``a`` has an integer entry that a float cannot hold exactly (as
        some beyond ``2**53`` are, and all beyond the float range): "a has
        an integer entry that a float cannot hold exactly".
    NumericDegeneracyError
        If the denominator evaluates to a nonpositive float or to nan, as
        it does when ``||a||^2`` and ``P (h'a)^2`` both overflow.
    """
    v = _real_array(a, "a")
    try:
        af = v.astype(np.float64, copy=False)
    except OverflowError:
        raise ValueError(_INEXACT_ENTRY) from None
    if af.shape != ch.h.shape:
        raise ValueError(f"a must have length {ch.n}")
    if not (np.isfinite(af) & (af == np.rint(af))).all():
        raise ValueError("a must have finite integer entries")
    # the float cast rounds an integer beyond 2**53 to a neighbour, in an
    # integer array or in an object array of Python ints; Python compares a
    # float with an int or a Fraction exactly
    if v.dtype.kind in "iuO" and af.tolist() != v.tolist():
        raise ValueError(_INEXACT_ENTRY)
    if not af.any():
        raise ValueError("the zero coefficient vector has no rate")
    # an overflow in the dots is silent, as it is in the Python floats
    # around them; a nan form is then rejected by _rate
    with np.errstate(over="ignore", invalid="ignore"):
        denom = _quadratic_form(ch.h, ch.P, float(np.dot(ch.h, ch.h)), af)
    return _rate(denom)


def _quadratic_form(h: np.ndarray, P: float, hnorm2: float, af: np.ndarray) -> float:
    """``a' G a`` as :func:`computation_rate` evaluates it, for ``af = a`` as floats."""
    inner = float(np.dot(h, af))
    return float(np.dot(af, af)) - P * inner * inner / (1.0 + P * hnorm2)


def _unit_form(hk, P: float, hnorm2):
    """:func:`_quadratic_form` of a unit vector ``+-e_k`` of a channel with
    ``hk = h[k]``: ``np.dot`` against it is exactly ``+-h[k]`` and its
    ``||a||^2`` is 1.0, so this is the same float.  It works elementwise on
    arrays of ``hk`` and ``hnorm2`` as well."""
    return 1.0 - P * hk * hk / (1.0 + P * hnorm2)


def _quadratic_forms(h: np.ndarray, P: float, hnorm2: np.ndarray, af: np.ndarray) -> np.ndarray:
    """:func:`_quadratic_form` of each candidate ``af[i, k]`` of row ``h[i]``, bit for bit.

    ``af`` has shape ``(m, k, n)`` for the ``(m, n)`` rows ``h`` and their
    ``(m,)`` squared norms ``hnorm2``.  The dots come from :func:`_row_dots`
    and the form keeps the scalar parenthesisation; overflow stays as silent
    as it is in Python floats.  For a single vector the scalar form is
    cheaper.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        inner = _row_dots(h[:, None, :], af)
        return _row_dots(af, af) - P * inner * inner / (1.0 + P * hnorm2)[:, None]


def _rate(denom: float) -> float:
    """:func:`computation_rate` of a vector whose quadratic form is ``denom``;
    ``NumericDegeneracyError`` unless ``denom > 0`` (a nan fails too)."""
    if not denom > 0.0:
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
    return bool(_e1_optimal(sc.t, sc.f))


def _e1_optimal(t: np.ndarray, f: np.ndarray):
    """:func:`e1_is_optimal` along the last axis of ``t`` and ``f``.

    At ``n == 1`` the test runs over no levels and holds.
    """
    return (np.square(t[..., 1:]) <= np.square(t[..., :1]) * f[..., 1:-1]).all(axis=-1)


def objective_lower_bound(sc: ScaledChannel) -> float:
    """Smallest diagonal of the Cholesky factor, ``min_k sqrt(q[k])``.

    Every nonzero integer vector satisfies ``||R a|| >= objective_lower_bound``,
    and the bound itself is at least ``sqrt(1 - ||t||^2)``.
    """
    return math.sqrt(float(sc.q.min()))
