"""Invariances of the solve and list pipelines, checked with hypothesis.

Examples are derandomized, so every run draws the same channels.  The
dimension is drawn on both sides of the search's opening-scan cut-over.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfcoef import ChannelInstance, ScaledChannel, list_solve, solve
from cfcoef.core import _channel_rows

FLOAT_MAX = np.finfo(np.float64).max
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@st.composite
def gains(draw):
    """A channel vector ``h`` with n in 2..300.

    The gains keep 10 fractional bits, so every square and every sum of
    squares is exact and ``||h||^2`` cannot depend on the entries' order.
    """
    n = draw(st.one_of(st.integers(2, 127), st.integers(128, 300)))
    seed = draw(st.integers(0, 2**32 - 1))
    h = np.round(np.random.default_rng(seed).standard_normal(n) * 1024.0) / 1024.0
    assume(h.any())
    return h


@st.composite
def channels(draw):
    """A channel ``(h, P)`` from :func:`gains` with SNR in 0..40 dB."""
    h = draw(gains())
    snr_db = draw(st.floats(0.0, 40.0))
    return h, 10.0 ** (snr_db / 10.0)


@st.composite
def edge_chunks(draw):
    """A chunk ``(H, P)`` of channel rows at the numeric edges, SNR -30..60 dB.

    n is 1, in 2..127 or in 128..300.  Entry magnitudes run from 2^-200 to
    2^100; about a fifth of the entries are zero, each row repeats some
    magnitude with the opposite sign, and one row in three has a single
    magnitude throughout.  Every row keeps a nonzero entry.  One row in three
    is then scaled so that ``max(P, 1) * ||h||^2`` lies within a few ulps of
    the largest float, on either side; half of those first take a single
    magnitude, whose many equal squares the tail sums and ``||h||^2`` round
    apart the most.
    """
    n = draw(st.one_of(st.just(1), st.integers(2, 127), st.integers(128, 300)))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = np.ldexp(rng.uniform(1.0, 2.0, (m, n)), rng.integers(-200, 100, (m, n)))
    flat = rng.random(m) < 1 / 3
    H[flat] = H[flat, :1]
    H *= rng.choice((-1.0, 1.0), (m, n))
    H[rng.random((m, n)) < 0.2] = 0.0
    src, dst = rng.integers(0, n, (2, m))
    H[np.arange(m), dst] = -H[np.arange(m), src]
    H[~H.any(axis=1), 0] = 1.0
    P = 10.0 ** (draw(st.floats(-30.0, 60.0)) / 10.0)
    for i in np.flatnonzero(rng.random(m) < 1 / 3):
        if rng.random() < 0.5:
            H[i] = np.abs(H[i]).max() * np.sign(H[i])
        # g = H[i] scaled into [0.5, 1): its square sum neither overflows nor
        # vanishes, and the scale factor stays finite
        g = np.ldexp(H[i], -np.frexp(np.abs(H[i]).max())[1])
        u = 1.0 + float(rng.integers(-24, 4)) * 2.0**-53
        H[i] = g * (math.sqrt(FLOAT_MAX) * math.sqrt(u / (max(P, 1.0) * float(g @ g))))
    return H, P


def _builds(h, P) -> bool:
    """True if the one channel ``h`` builds, False if it overflows."""
    try:
        _channel_rows(h[None], P)
    except ValueError:
        return False
    return True


@PROPERTY
@given(edge_chunks())
def test_channel_rows_need_no_check(chunk):
    # the rows _channel_rows builds need no check: each must satisfy the
    # constructors' invariants and match the single-channel build
    H, P = chunk
    try:
        _, _, t, order, sign, f, q = _channel_rows(H, P)
    except ValueError as exc:
        # a chunk overflows only where one of its rows overflows alone
        assert str(exc).startswith("P*||h||^2 is not finite")
        assert not all(_builds(h, P) for h in H)
        return
    for i, h in enumerate(H):
        sc = ScaledChannel.from_channel(ChannelInstance(h=h, P=P))
        for name, rows in (("t", t), ("f", f), ("q", q)):
            assert rows[i].tobytes() == getattr(sc, name).tobytes()
        assert np.array_equal(order[i], sc.perm.perm)
        assert np.array_equal(sign[i], sc.perm.sign)


@PROPERTY
@given(channels(), st.randoms(use_true_random=False))
def test_signed_permutation_keeps_solution(chan, random):
    h, P = chan
    order = list(range(h.size))
    random.shuffle(order)
    signs = np.array([random.choice((-1.0, 1.0)) for _ in order])
    moved = ChannelInstance(h=signs * h[order], P=P)
    for use_shortcut in (True, False):
        base = solve(ChannelInstance(h=h, P=P), use_shortcut)
        other = solve(moved, use_shortcut)
        assert other.objective == base.objective
        assert other.nodes_visited == base.nodes_visited


@PROPERTY
@given(channels(), st.integers(-8, 8))
def test_power_of_two_rescaling_is_exact(chan, k):
    h, P = chan
    ch = ChannelInstance(h=h, P=P)
    rescaled = ChannelInstance(h=h * 2.0**k, P=P / 4.0**k)
    sc, sc2 = ScaledChannel.from_channel(ch), ScaledChannel.from_channel(rescaled)
    for name in ("t", "f", "q"):
        assert getattr(sc2, name).tobytes() == getattr(sc, name).tobytes()
    assert np.array_equal(sc2.perm.perm, sc.perm.perm)
    assert np.array_equal(sc2.perm.sign, sc.perm.sign)
    base, other = solve(ch, use_shortcut=False), solve(rescaled, use_shortcut=False)
    assert np.array_equal(other.a, base.a)
    assert other.objective == base.objective
    assert other.nodes_visited == base.nodes_visited


@PROPERTY
@given(channels(), st.integers(1, 8))
def test_list_head_attains_optimum(chan, L):
    # the rate is a decreasing function of the objective
    h, P = chan
    ch = ChannelInstance(h=h, P=P)
    _, head_rate = list_solve(ch, L)[0]
    assert head_rate == pytest.approx(solve(ch).rate, rel=1e-9)


@PROPERTY
@given(gains(), st.floats(0.0, 59.0).flatmap(lambda low: st.tuples(st.just(low), st.floats(low + 1.0, 60.0))))
def test_optimal_rate_grows_with_power(h, snr_pair):
    # for every fixed a the rate's P/(1 + P||h||^2) term increases with P, so
    # the optimum cannot fall; the SNRs are at least 1 dB apart, so the exact
    # gain outweighs the rounding of the rate formula
    low, high = (solve(ChannelInstance(h=h, P=10.0 ** (db / 10.0))).rate for db in snr_pair)
    assert high >= low * (1.0 - 1e-12)
