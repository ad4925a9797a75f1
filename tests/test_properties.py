"""Invariances of the solve and list pipelines, checked with hypothesis.

Examples are derandomized, so every run draws the same channels.  The
dimension is drawn on both sides of the search's opening-scan cut-over.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfcoef import ChannelInstance, ScaledChannel, list_solve, solve

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
