"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from cfcoef import (
    ChannelInstance,
    ScaledChannel,
    SignedPermutation,
    computation_rate,
    scale_channel,
    svp_box_bound,
)

# at P = 10**307 this channel's P*||h||^2 is finite, but the builder's tail
# sums add in another order and 1 + P*sum(h**2) overflows
FLOAT_LIMIT_H = [
    -1.6025395626327945, -2.9379891981601234, -0.5341798542109315,
    0.8012697813163973, 2.4038093439491917, 0.26708992710546575,
]

# a channel whose optimal coefficient vector has an entry beyond int64 at 10 dB
WIDE_H = [
    -2.6472461677282857e23, 3.681245662485158e24, 635173579913371.4,
    -3954028648.0651965, -5344472515826.404,
]


def make_channel(rng: np.random.Generator, n: int, P: float) -> ChannelInstance:
    return ChannelInstance(h=rng.standard_normal(n), P=P)


def scaled_from_t(t_raw) -> ScaledChannel:
    """The :class:`ScaledChannel` of a hand-made scaled vector ``t_raw`` with
    ``||t_raw|| < 1``, formed here from the definitions so that it shares no
    code with the library's builder: the stable sort on ``-|t_raw|``, the
    signs that make the sorted vector nonnegative (+1 for a zero),
    ``f[i] = 1 - sum(t[:i]**2)`` and ``q[k] = f[k+1] / f[k]``.  The public
    constructors validate the result."""
    t_raw = np.asarray(t_raw, dtype=np.float64)
    order = np.argsort(-np.abs(t_raw), kind="stable")
    sign = np.where(t_raw[order] < 0.0, -1, 1)
    t = sign * t_raw[order]
    f = np.concatenate(([1.0], 1.0 - np.cumsum(t * t)))
    q = f[1:] / f[:-1]
    return ScaledChannel(t=t, perm=SignedPermutation(perm=order, sign=sign), f=f, q=q)


def feasible_instance(
    rng: np.random.Generator,
    n: int,
    P: float,
    max_points: int = 2_000_000,
    attempts: int = 2000,
):
    """Random channel whose brute-force box stays small enough to enumerate.

    Rejection-samples the channel; correctness checks only need diverse
    valid instances, so the induced bias toward smaller channel norms at
    high SNR is harmless.
    """
    for _ in range(attempts):
        ch = make_channel(rng, n, P)
        sc = ScaledChannel.from_channel(ch)
        B = svp_box_bound(sc.t)
        if B <= 50 and (2 * B + 1) ** n <= max_points:
            return ch, sc
    raise RuntimeError(f"no enumerable instance found for n={n}, P={P}")


def dominance_candidates(ch):
    """Every unit vector, then each nonzero ``round(c * t_raw)`` for c in 1..4."""
    t_raw = scale_channel(ch)
    quantized = [np.rint(c * t_raw).astype(np.int64) for c in range(1, 5)]
    return list(np.eye(ch.n, dtype=np.int64)) + [a for a in quantized if a.any()]


def dominance_violations(ch, best_rate):
    """Dominance candidates whose :func:`computation_rate` beats ``best_rate``
    by more than 1e-9, the ``rate_avg`` mode's slack; the first one whose rate
    cannot be evaluated raises its ``NumericDegeneracyError``."""
    return sum(computation_rate(ch, a) > best_rate + 1e-9 for a in dominance_candidates(ch))


def assert_walks_match(t, f, q, shrink: bool) -> None:
    """The chunk walk (compiled where it loads) on every row of ``t``, ``f``,
    ``q`` gives the Python walk's best, last incumbent (to the bit) and node
    count."""
    from cfcoef.search import _constrained_walk, _walk_rows

    best, moved, nodes, last, wide = _walk_rows(t, f, q, range(len(t)), shrink)
    assert wide == {}
    for i in range(len(t)):
        ref, incumbents, tests = _constrained_walk(t[i], f[i], q[i], shrink)
        assert moved[i] == (ref is not None), i
        assert best[i].tolist() == (ref or [1] + [0] * (len(best[i]) - 1)), i
        assert float(last[i]).hex() == float(incumbents[-1]).hex(), i
        assert nodes[i] == tests, i


def same_up_to_sign(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return bool(np.array_equal(a, b) or np.array_equal(a, -b))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
