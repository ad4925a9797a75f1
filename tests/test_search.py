"""Baseline and implicit-factor searches, the solve pipeline, node counters."""

import ctypes
import itertools
import math

import numpy as np
import pytest

from cfcoef import (
    ChannelInstance,
    NumericDegeneracyError,
    ScaledChannel,
    baseline_search,
    brute_force_svp,
    cholesky_factor,
    computation_rate,
    count_visited_nodes,
    e1_is_optimal,
    list_solve,
    modified_search,
    objective_lower_bound,
    sample_channel,
    scale_channel,
    solve,
    trial_rng,
)
from cfcoef import _native, search
from cfcoef.core import _channel_rows, _invert
from cfcoef.search import _answer, _coefficients, _constrained_walk, _solve_row
from conftest import (
    FLOAT_LIMIT_H, WIDE_H, feasible_instance, make_channel, same_up_to_sign, scaled_from_t,
)


def enumerate_tree_count(sc, shell=1e-9):
    """Independent per-level set enumeration for the fixed-radius tree.

    Returns the set sizes ``E``: ``E[k]`` counts the partial vectors
    ``(a[k], ..., a[n-1])`` with ``a[k] >= ... >= a[n-1] >= 0`` strictly
    inside the radius ``q[0]``, so ``E[0]`` counts the complete vectors, the
    zero vector included.

    Bounds each level block through the smallest eigenvalue of its Gram,
    ``||a||^2 <= beta^2 * f[k] / f[n]``, which provably contains the set.
    Membership is tested against ``beta^2 * (1 - shell)`` because the
    matrix route rounds the exact boundary case ``||R e1||^2 == beta^2``
    by an ulp.
    """
    R = cholesky_factor(sc)
    n = sc.n
    beta2 = float(sc.q[0])
    cutoff = beta2 * (1.0 - shell)
    sizes = [0] * n
    for k in range(n):
        lam = float(sc.f[-1] / sc.f[k])
        B = int(math.floor(math.sqrt(beta2 / lam))) + 1
        sub = R[k:, k:]
        for tup in itertools.product(range(B + 1), repeat=n - k):
            if any(tup[i] < tup[i + 1] for i in range(n - k - 1)):
                continue
            v = sub @ np.array(tup, dtype=float)
            if float(v @ v) < cutoff:
                sizes[k] += 1
    return sizes


class TestBaselineSearch:
    def test_identity_lattice(self):
        res = baseline_search(np.eye(3))
        assert res.objective == pytest.approx(1.0)
        assert sorted(np.abs(res.a).tolist()) == [0, 0, 1]

    def test_worked_shortcut_instance(self):
        res = baseline_search(cholesky_factor(scaled_from_t([0.8, 0.4])))
        assert res.objective == pytest.approx(0.36, rel=1e-9)
        assert same_up_to_sign(res.a, [1, 0])

    def test_worked_dense_instance(self):
        res = baseline_search(cholesky_factor(scaled_from_t([0.75, 0.65])))
        assert res.objective == pytest.approx(0.04, rel=1e-9)
        assert same_up_to_sign(res.a, [1, 1])

    def test_single_dimension(self):
        res = baseline_search([[0.5]])
        assert res.objective == pytest.approx(0.25)
        assert abs(res.a[0]) == 1

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            baseline_search([[1.0, 2.0], [0.0, 0.0]])

    def test_rejects_lower_triangle(self):
        with pytest.raises(ValueError):
            baseline_search([[1.0, 0.0], [0.5, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            baseline_search(np.ones((2, 3)))

    @pytest.mark.parametrize("R", [
        [[True, False], [False, True]], [["1", "0"], ["0", "1"]], np.array([[1 + 1j, 0], [0, 1]]),
    ])
    def test_rejects_non_real_entries(self, R):
        with pytest.raises(ValueError, match="R must hold real numbers"):
            baseline_search(R)


class TestModifiedSearch:
    def test_worked_shortcut_instance(self):
        res = modified_search(scaled_from_t([0.8, 0.4]))
        assert res.a.tolist() == [1, 0]
        assert res.objective == pytest.approx(0.36, rel=1e-9)

    def test_worked_dense_instance(self):
        res = modified_search(scaled_from_t([0.75, 0.65]))
        assert res.a.tolist() == [1, 1]
        assert res.objective == pytest.approx(0.04, rel=1e-9)

    def test_decoupled_coordinates(self, rng):
        for t1 in rng.uniform(0.1, 0.95, 8):
            sc = scaled_from_t([float(t1), 0.0, 0.0, 0.0])
            res = modified_search(sc)
            assert res.a.tolist() == [1, 0, 0, 0]
            assert res.objective == float(sc.q[0])
            assert res.incumbents == (float(sc.q[0]),)

    def test_single_dimension(self):
        sc = scaled_from_t([0.6])
        res = modified_search(sc)
        assert res.a.tolist() == [1]
        assert res.objective == pytest.approx(0.64, rel=1e-12)

    def test_matches_oracle_and_baseline(self, rng):
        for _ in range(150):
            n = int(rng.integers(2, 6))
            P = float(rng.choice([1.0, 10.0, 100.0]))
            ch, sc = feasible_instance(rng, n, P, max_points=200_000)
            reference = brute_force_svp(sc.t)
            got = modified_search(sc)
            base = baseline_search(cholesky_factor(sc))
            assert got.objective == pytest.approx(reference.objective, rel=1e-9)
            assert base.objective == pytest.approx(reference.objective, rel=1e-9)

    def test_agrees_with_baseline_beyond_oracle_reach(self, rng):
        # the explicit-matrix search is an independent implementation path
        for _ in range(40):
            n = int(rng.integers(8, 15))
            P = float(rng.choice([1.0, 100.0]))
            sc = ScaledChannel.from_channel(make_channel(rng, n, P))
            got = modified_search(sc)
            base = baseline_search(cholesky_factor(sc))
            assert got.objective == pytest.approx(base.objective, rel=1e-9)

    def test_incumbents_strictly_decrease(self, rng):
        seen_updates = 0
        for _ in range(100):
            n = int(rng.integers(2, 8))
            sc = ScaledChannel.from_channel(make_channel(rng, n, 100.0))
            inc = modified_search(sc).incumbents
            assert all(a > b for a, b in zip(inc, inc[1:]))
            seen_updates += len(inc) - 1
        assert seen_updates > 0

    def test_output_is_ordered_nonnegative(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 10))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 100.0]))))
            a = modified_search(sc).a
            assert np.all(a >= 0)
            assert np.all(np.diff(a) <= 0)
            assert float(sc.t @ a) >= 0.0

    def test_objective_respects_lower_bounds(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 10))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 10.0]))))
            obj = modified_search(sc).objective
            floor = max(float(sc.f[-1]), float(sc.q.min()))
            assert obj >= floor * (1.0 - 1e-12)

    def test_objective_equals_radius_when_shortcut_holds(self, rng):
        confirmed = 0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            sc = ScaledChannel.from_channel(make_channel(rng, n, 1.0))
            if e1_is_optimal(sc):
                res = modified_search(sc)
                assert res.objective == float(sc.q[0])
                assert res.a.tolist() == [1] + [0] * (n - 1)
                confirmed += 1
        assert confirmed > 50


# Frozen outputs of the constrained walk: (n, snr_db, trial, nodes_visited,
# incumbents as float.hex, nonzero prefix of the canonical a).  They were
# recorded from the plain zig-zag walk, before it had an opening scan, so any
# change to which nodes are tested or in what order shows here as a literal
# mismatch.
# Grid rows use trial_rng(11, trial); e1 is optimal on all of them.
PINNED_GRID = [
    (100, 20, 0, 222, ("0x1.e70d4be65c6d0p-1",), [1]),
    (100, 20, 1, 182, ("0x1.d84ccb07effd9p-1",), [1]),
    (100, 30, 0, 276, ("0x1.e70c9cc6fc15ep-1",), [1]),
    (100, 30, 1, 234, ("0x1.d84c039400baep-1",), [1]),
    (100, 40, 0, 534, ("0x1.e70c8b4351a15p-1",), [1]),
    (100, 40, 1, 466, ("0x1.d84befa1942d7p-1",), [1]),
    (1000, 20, 0, 1412, ("0x1.f94a705beeb4fp-1",), [1]),
    (1000, 20, 1, 1766, ("0x1.fb8dedb27ddbep-1",), [1]),
    (1000, 30, 0, 1424, ("0x1.f94a6c68e4a3cp-1",), [1]),
    (1000, 30, 1, 1780, ("0x1.fb8deb3245e9ap-1",), [1]),
    (1000, 40, 0, 1428, ("0x1.f94a6c03c9c70p-1",), [1]),
    (1000, 40, 1, 1780, ("0x1.fb8deaf24029cp-1",), [1]),
    (10000, 20, 0, 13976, ("0x1.ff400c10ec9ccp-1",), [1]),
    (10000, 20, 1, 14696, ("0x1.ff56efa28b022p-1",), [1]),
    (10000, 30, 0, 14016, ("0x1.ff400c05a4162p-1",), [1]),
    (10000, 30, 1, 14728, ("0x1.ff56ef986821cp-1",), [1]),
    (10000, 40, 0, 14020, ("0x1.ff400c04833bdp-1",), [1]),
    (10000, 40, 1, 14738, ("0x1.ff56ef9764a4ep-1",), [1]),
]

# Edge rows use trial_rng(7, trial), chosen for the opening-scan branch each
# one reaches (level j is the untouched level where the scan stops):
#   n=1: no level above 0, so the walk ends after its first test;
#   n=2, trial 0: the scan passes level n-1 without a hand-over and ends;
#   n=2, trial 6: hand-over at level n-1 because the descent test passes;
#   n=3, trial 2: hand-over on a descent whose center rounds above the clip;
#   n=3, trial 4: descent hand-over at level 1; after the first improvement
#       the walk climbs plainly into the untouched level n-1 and improves again;
#   n=3, trials 28 and 49: hand-over at level n-1 because the a[j]=2 test
#       passes, with the descent center rounding to 1 and to 2;
#   n=16, 40 dB: hand-over at level 13, then plain climbs into the untouched
#       levels 14 and 15, five incumbents.
PINNED_EDGES = [
    (1, 20, 0, 1, ("0x1.ffec2b0d64779p-1",), [1]),
    (2, 0, 0, 2, ("0x1.d60c79c2b74c0p-1",), [1]),
    (2, 0, 6, 5, ("0x1.e53a2039e18a6p-2", "0x1.b8fe288c01846p-2"), [1, 1]),
    (3, 20, 2, 6, ("0x1.55bfb08f0c773p-3", "0x1.1657937791107p-3"), [2, 1]),
    (3, 20, 4, 11,
     ("0x1.6c16876e93bcap-2", "0x1.3413e12eeb046p-3", "0x1.0ad04302935c0p-3"), [3, 2, 1]),
    (3, 40, 28, 10, ("0x1.8ff4e46b936e0p-5", "0x1.d46ba73f66253p-7"), [16, 3, 2]),
    (3, 40, 49, 10, ("0x1.63848136525dcp-5", "0x1.3793577b4e1aep-7"), [17, 3, 2]),
    (16, 40, 39, 1002,
     ("0x1.aa24bca2d7154p-1", "0x1.a674f66a0df96p-1", "0x1.8c264f6643f80p-1",
      "0x1.37a4d9797c79ap-1", "0x1.16877a0feaa9ep-1"),
     [37, 37, 36, 31, 27, 23, 21, 19, 16, 15, 13, 12, 11, 10, 10, 4]),
]


# Frozen fixed-radius counts: (n, snr_db, seed, trial, tree, count_visited_nodes),
# recorded from the plain walk, before it had an opening scan.  ``tree`` is the
# size of the fixed-radius tree, the sum of enumerate_tree_count's sets, which
# _assert_tree checks against the rest of the row.  The n=100 and n=1000 rows
# climb through hundreds of untouched levels; n=1 ends after its first test;
# the rest (e1 not optimal) have 1 to 13 complete vectors inside the fixed
# radius, so the walk continues past passing leaves.
PINNED_COUNTS = [
    (100, 20, 11, 0, 161, 221),
    (100, 20, 11, 1, 141, 181),
    (100, 30, 11, 0, 188, 275),
    (100, 30, 11, 1, 167, 233),
    (1000, 20, 11, 0, 1206, 1411),
    (1000, 20, 11, 1, 1383, 1765),
    (1000, 30, 11, 0, 1212, 1423),
    (1000, 30, 11, 1, 1390, 1779),
    (1, 20, 7, 0, 1, 0),
    (2, 0, 7, 6, 4, 4),
    (3, 20, 7, 4, 12, 15),
    (3, 40, 7, 49, 11, 16),
    (16, 40, 7, 39, 1258, 2491),
    (16, 40, 11, 11, 1282, 2534),
]


# Frozen outputs around the opening scan's cut-over: (n, snr_db, head, trial,
# nodes_visited, incumbents as float.hex, nonzero prefix of the canonical a,
# tree, count_visited_nodes), recorded before the scan had a numpy form.
# Channels are trial_rng(17, trial) draws whose first ``head`` gains are made
# strong (see _head_channel).  j is the level where the
# opening scan hands over, n when it passes level n-1 and ends the walk:
#   head 0 at 0 and 20 dB (and n=2000 at 40 dB): j = n;
#   head 0 at 40 and 60 dB otherwise: j between 120 and 1989, one incumbent;
#   head 2: j = 1, one improvement to [1, 1];
#   head 12: j = 9, then two improvements.
PINNED_CUTOVER = [
    (127, 0, 0, 0, 127, ("0x1.e14d25a254691p-1",), [1], 127, 126),
    (127, 20, 0, 0, 217, ("0x1.e1156c3b9bf57p-1",), [1], 172, 216),
    (127, 40, 0, 0, 443, ("0x1.e114dc8ea0d43p-1",), [1], 285, 442),
    (127, 60, 0, 0, 3535, ("0x1.e114db1ecac60p-1",), [1], 1831, 3534),
    (128, 0, 0, 0, 128, ("0x1.e18c06b76e685p-1",), [1], 128, 127),
    (128, 20, 0, 0, 220, ("0x1.e1553179b05b8p-1",), [1], 174, 219),
    (128, 40, 0, 0, 446, ("0x1.e154a41b0e0a5p-1",), [1], 287, 445),
    (128, 60, 0, 0, 3548, ("0x1.e154a2b11f6f5p-1",), [1], 1838, 3547),
    (129, 0, 0, 0, 129, ("0x1.e18ce05356e6ap-1",), [1], 129, 128),
    (129, 20, 0, 0, 223, ("0x1.e1560e27f3e10p-1",), [1], 176, 222),
    (129, 40, 0, 0, 443, ("0x1.e15580d1441bfp-1",), [1], 286, 442),
    (129, 60, 0, 0, 3535, ("0x1.e1557f6769d9fp-1",), [1], 1832, 3534),
    (300, 0, 0, 0, 300, ("0x1.f1370fb5318abp-1",), [1], 300, 299),
    (300, 20, 0, 0, 508, ("0x1.f12a2eed8ca96p-1",), [1], 404, 507),
    (300, 40, 0, 0, 564, ("0x1.f12a0dd8ca003p-1",), [1], 432, 563),
    (300, 60, 0, 0, 2004, ("0x1.f12a0d84193a9p-1",), [1], 1152, 2003),
    (2000, 0, 0, 0, 2528, ("0x1.fcaf6b79563a5p-1",), [1], 2264, 2527),
    (2000, 20, 0, 0, 2934, ("0x1.fcaf0294f6ae6p-1",), [1], 2467, 2933),
    (2000, 40, 0, 0, 2950, ("0x1.fcaf01884f150p-1",), [1], 2475, 2949),
    (2000, 60, 0, 0, 3208, ("0x1.fcaf01859f529p-1",), [1], 2604, 3207),
    (127, 20, 2, 0, 130, ("0x1.caa78f29b502dp-2", "0x1.e423fa68f71e2p-5"), [1, 1], 132, 133),
    (2000, 60, 2, 1, 2009, ("0x1.be4428ad09d9bp-2", "0x1.2308b4ba003f2p-4"), [1, 1], 2030, 2056),
    (128, 40, 12, 0, 276,
     ("0x1.b6cedaf576879p-1", "0x1.72142dd009246p-1", "0x1.3983c6ea47dcdp-1"), [1] * 12, 307, 483),
    (300, 0, 12, 1, 362,
     ("0x1.ac3a046af3ddep-1", "0x1.876fb17bf4decp-1", "0x1.ff3dfc0116992p-2"), [1] * 12, 372, 439),
    (2000, 20, 12, 2, 2060,
     ("0x1.b7361629ce58cp-1", "0x1.1eedb1f5dc015p-1", "0x1.cf007981de58fp-2"), [1] * 12,
     2066, 2128),
    (129, 60, 12, 2, 379,
     ("0x1.b74b36306339ap-1", "0x1.24fcf7cfc9b6bp-1", "0x1.dc686231dd0d2p-2"), [1] * 12,
     1115, 2097),
]


def _head_channel(n, head, trial):
    """A trial_rng(17, trial) draw with its first ``head`` gains made strong."""
    h = sample_channel(n, trial_rng(17, trial))
    h[:head] = 4.0 * np.sqrt(n) * (1.0 + 0.2 * h[:head])
    return h


def _scaled(h, snr_db):
    return ScaledChannel.from_channel(ChannelInstance(h=h, P=10.0 ** (snr_db / 10.0)))


def _pinned_search(n, snr_db, seed, trial):
    h = sample_channel(n, trial_rng(seed, trial))
    sc = ScaledChannel.from_channel(ChannelInstance(h=h, P=10.0 ** (snr_db / 10.0)))
    return modified_search(sc)


def _assert_tree(tree, n, visited, incumbents):
    """A pinned tree size against the walk's identity ``visited = 2*tree - n - E[0]``.

    ``E[0]`` counts the complete vectors inside the fixed radius, the zero
    vector included (see enumerate_tree_count).  The vectors the search
    improves to are among them, and the fixed-radius walk meets the same
    tests until its first passing leaf, so ``E[0]`` is 1 when the search
    keeps the first unit vector and at least the incumbent count otherwise.
    """
    complete = 2 * tree - n - visited
    assert complete >= len(incumbents)
    assert (complete == 1) == (len(incumbents) == 1)


def _assert_pinned(res, nodes, incumbents, prefix):
    assert res.nodes_visited == nodes
    assert tuple(x.hex() for x in res.incumbents) == incumbents
    assert res.objective.hex() == incumbents[-1]
    assert res.a.tolist() == prefix + [0] * (res.a.size - len(prefix))


class TestPinnedTraversal:
    @pytest.mark.parametrize("n, snr_db, trial, nodes, incumbents, prefix", PINNED_GRID)
    def test_grid(self, n, snr_db, trial, nodes, incumbents, prefix):
        _assert_pinned(_pinned_search(n, snr_db, 11, trial), nodes, incumbents, prefix)

    @pytest.mark.parametrize("n, snr_db, trial, nodes, incumbents, prefix", PINNED_EDGES)
    def test_edge_cases(self, n, snr_db, trial, nodes, incumbents, prefix):
        _assert_pinned(_pinned_search(n, snr_db, 7, trial), nodes, incumbents, prefix)

    def test_descent_center_on_half_tie(self):
        # t[0]*t[1]/f[1] is exactly 1.5: the tie rounds toward zero, onto
        # the clip at a[1] = 1, and the descent then passes
        sc = scaled_from_t([0.84, 0.5257142857142859])
        assert float(sc.t[0] * sc.t[1] / sc.f[1]) == 1.5
        incumbents = ("0x1.2d77318fc504ap-2", "0x1.141edcb2fca12p-3")
        _assert_pinned(modified_search(sc), 5, incumbents, [1, 1])

    @pytest.mark.parametrize("n, snr_db, seed, trial, tree, visited", PINNED_COUNTS)
    def test_node_counts(self, n, snr_db, seed, trial, tree, visited):
        h = sample_channel(n, trial_rng(seed, trial))
        sc = ScaledChannel.from_channel(ChannelInstance(h=h, P=10.0 ** (snr_db / 10.0)))
        assert count_visited_nodes(sc) == visited
        _assert_tree(tree, n, visited, modified_search(sc).incumbents)

    @pytest.mark.parametrize(
        "n, snr_db, head, trial, nodes, incumbents, prefix, tree, visited", PINNED_CUTOVER
    )
    def test_cutover(self, n, snr_db, head, trial, nodes, incumbents, prefix, tree, visited):
        sc = _scaled(_head_channel(n, head, trial), snr_db)
        _assert_pinned(modified_search(sc), nodes, incumbents, prefix)
        assert count_visited_nodes(sc) == visited
        _assert_tree(tree, n, visited, incumbents)


def _compiled_climb(t, f, q) -> tuple:
    """``cf_opening_climb`` on one row, as ``(j, nodes)``; ``j = -1`` hands it back."""
    lib = _native.walker()
    if lib is None:
        pytest.skip("the compiled walk does not load here")
    t, f, q = (np.ascontiguousarray(x, dtype=np.float64) for x in (t, f, q))
    nodes = ctypes.c_int64()
    j = lib.cf_opening_climb(t.size, t.ctypes.data, f.ctypes.data, q.ctypes.data, ctypes.byref(nodes))
    return j, nodes.value


def _outcome(call, *args):
    """``call(*args)``, or the type and message of what it raised."""
    try:
        return call(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


# hand-made rows whose opening climb meets, at level 1, a centre that a
# double cannot hold as an exact integer: 3e16, past 2**53 (the list climb
# hands over there with Python integers), inf (OverflowError) and 0/0
# (ZeroDivisionError); the C climb hands each back
CLIMB_HAND_BACKS = [
    ([0.6, 0.5, 0.4], [1.0, 1e-17, 0.5, 0.5], [0.9, 0.1, 0.95]),
    ([0.6, 0.5, 0.4], [1.0, 5e-324, 0.5, 0.5], [0.9, 0.5, 0.95]),
    ([0.6, 0.0, 0.0], [1.0, 0.0, 0.5, 0.5], [0.9, 0.5, 0.95]),
]


def _wide_head_channel(n):
    """A channel whose gains 3e32 and 3e16 lead 0.01-scaled Gaussian ones: at
    10 dB the opening climb's centre at level 1 is 1e16, past 2**53, where the
    C climb hands the row back, and the walks end within a few hundred tests."""
    h = 0.01 * sample_channel(n, trial_rng(3, 0))
    h[:2] = 3e32, 3e16
    return h


class TestOpeningScan:
    """The opening climb's C and per-level forms against each other."""

    @staticmethod
    def rows() -> list:
        """``(t, f, q)`` rows that reach every branch of the climb."""
        rng = np.random.default_rng(31)
        channels = [scaled_from_t([0.84, 0.5257142857142859])]  # descent center 1.5
        # PINNED_EDGES reach every hand-over branch; in the two n=3 rows
        # after them q[0]/q[2] is 3.37 and 4.006, so the a[2] = 2 test alone
        # decides whether the climb hands over
        edges = [row[:3] for row in PINNED_EDGES] + [(3, 30, 375), (3, 40, 774)]
        for n, snr_db, trial in edges:
            channels.append(_scaled(sample_channel(n, trial_rng(7, trial)), snr_db))
        for i in range(90):
            n = int(np.exp(rng.uniform(np.log(2), np.log(2000))))
            g = sample_channel(n, trial_rng(29, i))
            snr_db = rng.uniform(0.0, 80.0)
            if i % 3 == 1:
                # integer gains: ties and zeros; above ~40 dB their
                # fixed-radius trees reach millions of nodes
                g = np.round(2.0 * g) + (0.0 if g.any() else 1.0)
                snr_db /= 2.0
            elif i % 3 == 2:
                g = _head_channel(n, int(rng.integers(1, 13)), i)
            channels.append(_scaled(g, snr_db))
        return ([(sc.t, sc.f, sc.q) for sc in channels]
                + [tuple(np.array(x) for x in row) for row in CLIMB_HAND_BACKS])

    def test_compiled_climb_matches_the_list_climb(self, monkeypatch):
        # where the C climb hands back, the list climb raises or rounds a
        # centre to 2**53 or more; elsewhere both give the same (j, nodes)
        centres, real = [], search._round_nearest

        def recording(x):
            centres.append(real(x))
            return centres[-1]

        monkeypatch.setattr(search, "_round_nearest", recording)
        ends = handovers = hand_backs = 0
        for t, f, q in self.rows():
            j, nodes = _compiled_climb(t, f, q)
            centres.clear()
            want = _outcome(search._opening_climb, t.tolist(), f.tolist(), q.tolist())
            if j < 0:
                assert isinstance(want[0], type) or max(map(abs, centres)) >= 2**53
                hand_backs += 1
            else:
                assert (j, nodes) == want and max(map(abs, centres), default=0) < 2**53
                ends += j == t.size
                handovers += j < t.size
        assert ends > 10 and handovers > 10 and hand_backs == len(CLIMB_HAND_BACKS)

    def test_cutover_settings_agree(self, monkeypatch):
        # the walk with the C climb from level 1 on, with the list climb
        # only, and with the compiled walk's library turned off
        loaded = _native.walker()
        for t, f, q in self.rows():
            walks = []
            for cutover, lib in ((1, loaded), (t.size + 1, loaded), (1, None)):
                monkeypatch.setattr(search, "_COMPILED_CLIMB_MIN_N", cutover)
                monkeypatch.setattr(_native, "_walker", lib)
                walks.append([_outcome(_constrained_walk, t, f, q, shrink) for shrink in (True, False)])
            assert walks[0] == walks[1] == walks[2]

    @pytest.mark.parametrize("n", [search._COMPILED_CLIMB_MIN_N - 1, search._COMPILED_CLIMB_MIN_N, 300, 1000])
    def test_public_calls_agree_across_the_cutover(self, monkeypatch, n):
        # solve, modified_search and count_visited_nodes with the compiled
        # climb and without it: Gaussian, integer-valued (tied) and
        # strong-head channels, and one whose C climb hands back
        channels = [ChannelInstance(h=sample_channel(n, trial_rng(41, j)), P=10.0 ** (snr_db / 10.0))
                    for j, snr_db in enumerate((0.0, 20.0, 40.0, 60.0))]
        channels += [ChannelInstance(h=np.round(2.0 * sample_channel(n, trial_rng(43, j))) + 1.0,
                                     P=10.0 ** (snr_db / 10.0))
                     for j, snr_db in enumerate((10.0, 30.0))]
        channels += [ChannelInstance(h=_head_channel(n, head, head), P=100.0) for head in (2, 12)]
        channels.append(ChannelInstance(h=_wide_head_channel(n), P=10.0))
        if n >= search._COMPILED_CLIMB_MIN_N and _native.walker() is not None:
            sc = ScaledChannel.from_channel(channels[-1])
            assert _compiled_climb(sc.t, sc.f, sc.q)[0] == -1

        def solved(ch, shortcut):
            res = solve(ch, shortcut)
            return res.a.tolist(), res.rate.hex(), res.objective.hex(), res.nodes_visited, res.used_shortcut

        def answers(ch):
            sc = ScaledChannel.from_channel(ch)
            res = modified_search(sc)
            return (res.a.tolist(), res.objective.hex(), res.nodes_visited,
                    [x.hex() for x in res.incumbents], count_visited_nodes(sc),
                    [_outcome(solved, ch, shortcut) for shortcut in (True, False)])

        compiled = [answers(ch) for ch in channels]
        monkeypatch.setattr(_native, "_walker", None)
        assert [answers(ch) for ch in channels] == compiled
        # the hand-back row: the Python climb's vector, past 2**53, and
        # solve's error on its rate
        assert compiled[-1][0][:2] == [10**16, 1]
        assert all(isinstance(outcome[0], type) for outcome in compiled[-1][5])


class TestNodeCounters:
    def test_decoupled_two_dim(self):
        sc = scaled_from_t([0.9, 0.0])
        assert enumerate_tree_count(sc) == [1, 1]
        assert count_visited_nodes(sc) == 1

    def test_worked_dense_instance(self):
        # E[1] = {0..3} and E[0] = {00, 11, 21, 22, 32, 33}
        sc = scaled_from_t([0.75, 0.65])
        assert enumerate_tree_count(sc) == [6, 4]
        assert count_visited_nodes(sc) == 12

    def test_matches_independent_enumeration(self, rng):
        for _ in range(120):
            n = int(rng.integers(2, 5))
            P = float(rng.choice([1.0, 10.0, 100.0]))
            sc = ScaledChannel.from_channel(make_channel(rng, n, P))
            if float(sc.q[0]) / float(sc.f[-1] / sc.f[0]) > 256.0:
                continue  # keep the reference box enumerable
            # the walk starts at level 0 and ends on a failing test at level
            # n-1; every other failing test climbs a level and every passing
            # one descends, except the E[0] - 1 passing leaves, so it makes
            # 2*sum(E) - n - E[0] + 1 tests, the first of them seeded
            sizes = enumerate_tree_count(sc)
            assert count_visited_nodes(sc) == 2 * sum(sizes) - n - sizes[0]

    def test_budget_on_gaussian_channels(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 17))
            P = float(rng.choice([1.0, 10.0, 100.0]))
            ch = make_channel(rng, n, P)
            sc = ScaledChannel.from_channel(ch)
            budget = 2.0 * n * math.sqrt(1.0 + P * float(ch.h @ ch.h))
            assert count_visited_nodes(sc) < budget

    def test_search_evaluations_bounded_by_fixed_walk(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 10))
            P = float(rng.choice([1.0, 10.0, 100.0]))
            sc = ScaledChannel.from_channel(make_channel(rng, n, P))
            visited = modified_search(sc).nodes_visited
            assert visited <= count_visited_nodes(sc) + 1

    def test_shrinking_can_exceed_literal_set_count(self):
        # the evaluation metric counts leaf tests, so it may exceed the
        # cardinality of the feasible sets themselves
        sc = scaled_from_t([0.6, 0.55])
        assert sum(enumerate_tree_count(sc)) == 3
        assert modified_search(sc).nodes_visited == 4
        assert count_visited_nodes(sc) == 3


# Frozen solve outputs on trial_rng(11, n) channels: (n, snr_db, use_shortcut,
# nonzero entries of a as {index: value}, rate and objective as float.hex,
# nodes_visited, used_shortcut), recorded before solve, list_solve and the
# Monte-Carlo chunks shared one row pipeline, so a change in how solve builds
# its rows or maps its answer back shows here independently of the harness.
PINNED_SOLVE = [
    (1, 0, True, {0: 1}, "0x1.8031a2095c1e2p-2", "0x1.305b6c8f40973p-1", 0, True),
    (1, 0, False, {0: 1}, "0x1.8031a2095c1e2p-2", "0x1.305b6c8f40973p-1", 1, False),
    (1, 20, True, {0: 1}, "0x1.873e7b345563ep+1", "0x1.d95da051b991fp-7", 0, True),
    (1, 20, False, {0: 1}, "0x1.873e7b345563ep+1", "0x1.d95da051b991fp-7", 1, False),
    (1, 40, True, {0: 1}, "0x1.978f778a6e507p+2", "0x1.3359816ea8a6ap-13", 0, True),
    (1, 40, False, {0: 1}, "0x1.978f778a6e507p+2", "0x1.3359816ea8a6ap-13", 1, False),
    (2, 0, True, {1: 1}, "0x1.ea34d4a8ae00fp-5", "0x1.d73da68472532p-1", 0, True),
    (2, 0, False, {1: 1}, "0x1.ea34d4a8ae00fp-5", "0x1.d73da68472532p-1", 2, False),
    (2, 20, True, {0: -1, 1: 1}, "0x1.96d5a28d1d296p+0", "0x1.c472768045df6p-4", 5, False),
    (2, 20, False, {0: -1, 1: 1}, "0x1.96d5a28d1d296p+0", "0x1.c472768045df6p-4", 5, False),
    (2, 40, True, {0: -1, 1: 1}, "0x1.043be124f1d41p+2", "0x1.d32220345889ap-9", 5, False),
    (2, 40, False, {0: -1, 1: 1}, "0x1.043be124f1d41p+2", "0x1.d32220345889ap-9", 5, False),
    (3, 0, True, {1: 1}, "0x1.d5df2c7fd1bc0p-3", "0x1.7482ec76ad253p-1", 0, True),
    (3, 0, False, {1: 1}, "0x1.d5df2c7fd1bc0p-3", "0x1.7482ec76ad253p-1", 3, False),
    (3, 20, True, {0: 1, 1: 2}, "0x1.b054939b21b4cp+0", "0x1.8a19ab4a767f9p-4", 6, False),
    (3, 20, False, {0: 1, 1: 2}, "0x1.b054939b21b4cp+0", "0x1.8a19ab4a767f9p-4", 6, False),
    (3, 40, True, {0: 1, 1: 2}, "0x1.fdb23684a2988p+1", "0x1.0677cf02a9a04p-8", 6, False),
    (3, 40, False, {0: 1, 1: 2}, "0x1.fdb23684a2988p+1", "0x1.0677cf02a9a04p-8", 6, False),
    (8, 0, True, {3: -1}, "0x1.2a792ba3809a0p-3", "0x1.a2564c57e716ep-1", 16, False),
    (8, 0, False, {3: -1}, "0x1.2a792ba3809a0p-3", "0x1.a2564c57e716ep-1", 16, False),
    (8, 20, True, {0: 3, 1: -2, 2: 3, 3: -3, 4: -1, 5: -2, 6: 2, 7: -1},
     "0x1.5e7d83d528d21p-1", "0x1.8c6c519133006p-2", 55, False),
    (8, 20, False, {0: 3, 1: -2, 2: 3, 3: -3, 4: -1, 5: -2, 6: 2, 7: -1},
     "0x1.5e7d83d528d21p-1", "0x1.8c6c519133006p-2", 55, False),
    (8, 40, True, {0: 3, 1: -2, 2: 3, 3: -3, 4: -1, 5: -2, 6: 2, 7: -1},
     "0x1.ea999a2828f3bp-1", "0x1.0f45818b16993p-2", 190, False),
    (8, 40, False, {0: 3, 1: -2, 2: 3, 3: -3, 4: -1, 5: -2, 6: 2, 7: -1},
     "0x1.ea999a2828f3bp-1", "0x1.0f45818b16993p-2", 190, False),
    (64, 0, True, {11: 1}, "0x1.40c192fc20133p-4", "0x1.cb53f502721a6p-1", 0, True),
    (64, 0, False, {11: 1}, "0x1.40c192fc20133p-4", "0x1.cb53f502721a6p-1", 64, False),
    (64, 20, True, {11: 1}, "0x1.4601552777a6fp-4", "0x1.ca833df10d6e0p-1", 124, False),
    (64, 20, False, {11: 1}, "0x1.4601552777a6fp-4", "0x1.ca833df10d6e0p-1", 124, False),
    (64, 40, True, {11: 1}, "0x1.460efe19bad51p-4", "0x1.ca811f46c994cp-1", 544, False),
    (64, 40, False, {11: 1}, "0x1.460efe19bad51p-4", "0x1.ca811f46c994cp-1", 544, False),
    (1000, 0, True, {815: -1}, "0x1.d38e2c37540d5p-8", "0x1.faf60cff43666p-1", 1422, False),
    (1000, 0, False, {815: -1}, "0x1.d38e2c37540d5p-8", "0x1.faf60cff43666p-1", 1422, False),
    (1000, 20, True, {815: -1}, "0x1.d40374ac4485ep-8", "0x1.faf4cb05748edp-1", 1600, False),
    (1000, 20, False, {815: -1}, "0x1.d40374ac4485ep-8", "0x1.faf4cb05748edp-1", 1600, False),
    (1000, 40, True, {815: -1}, "0x1.d404a136f2227p-8", "0x1.faf4c7cc62b15p-1", 1614, False),
    (1000, 40, False, {815: -1}, "0x1.d404a136f2227p-8", "0x1.faf4c7cc62b15p-1", 1614, False),
]


class TestPinnedSolve:
    @pytest.mark.parametrize("n, snr_db, use_shortcut, nonzero, rate, objective, nodes, shortcut",
                             PINNED_SOLVE)
    def test_solve(self, n, snr_db, use_shortcut, nonzero, rate, objective, nodes, shortcut):
        ch = ChannelInstance(h=sample_channel(n, trial_rng(11, n)), P=10.0 ** (snr_db / 10.0))
        out = solve(ch, use_shortcut=use_shortcut)
        a = np.zeros(n, dtype=np.int64)
        a[list(nonzero)] = list(nonzero.values())
        assert out.a.dtype == np.int64 and out.a.tolist() == a.tolist()
        assert (out.rate.hex(), out.objective.hex()) == (rate, objective)
        assert (out.nodes_visited, out.used_shortcut) == (nodes, shortcut)


class TestSolve:
    def test_worked_example(self):
        out = solve(ChannelInstance(h=[1.0, 0.0], P=3.0))
        assert same_up_to_sign(out.a, [1, 0])
        assert out.rate == pytest.approx(1.0, rel=1e-12)
        assert out.used_shortcut

    def test_dominates_heuristic_candidates(self):
        ch = ChannelInstance(h=[3.0, 4.0], P=1.0)
        out = solve(ch)
        t_raw = scale_channel(ch)
        for i in range(2):
            unit = np.zeros(2, dtype=int)
            unit[i] = 1
            assert out.rate >= computation_rate(ch, unit) - 1e-12
        for c in range(1, 5):
            cand = np.rint(c * t_raw).astype(int)
            if np.any(cand):
                assert out.rate >= computation_rate(ch, cand) - 1e-12

    def test_restored_objective_matches_canonical(self):
        ch = ChannelInstance(h=[-3.0, 9.0, -1.0], P=100.0)
        out = solve(ch)
        a = out.a.astype(float)
        hnorm2 = float(ch.h @ ch.h)
        obj = float(a @ a) - ch.P * float(ch.h @ a) ** 2 / (1.0 + ch.P * hnorm2)
        assert obj == pytest.approx(out.objective, rel=1e-9)

    def test_shortcut_flag_consistency(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            ch = make_channel(rng, n, float(rng.choice([1.0, 10.0])))
            fast = solve(ch, use_shortcut=True)
            full = solve(ch, use_shortcut=False)
            assert fast.objective == pytest.approx(full.objective, rel=1e-12)
            assert same_up_to_sign(fast.a, full.a) or fast.objective == pytest.approx(
                full.objective, rel=1e-12
            )
            assert not full.used_shortcut

    def test_restored_sign_convention(self, rng):
        # the returned vector correlates nonnegatively with the scaled channel
        for _ in range(60):
            n = int(rng.integers(2, 8))
            ch = make_channel(rng, n, float(rng.choice([1.0, 10.0])))
            out = solve(ch)
            assert float(scale_channel(ch) @ out.a) >= 0.0

    def test_single_source(self):
        out = solve(ChannelInstance(h=[2.0], P=5.0))
        assert abs(out.a[0]) == 1
        assert out.rate == pytest.approx(0.5 * math.log2(21.0), rel=1e-12)

    def test_moderately_large_instance_is_fast(self):
        ch = make_channel(np.random.default_rng(5), 1000, 100.0)
        out = solve(ch, use_shortcut=False)
        assert out.nodes_visited >= 1
        assert out.rate >= 0.0


    @pytest.mark.parametrize("h, P", [
        ([1e200], 1.0), ([1e200, 1e200], 1.0), ([1e154, 1e154], 1.0), ([1e150, 2.0], 1e30),
        (FLOAT_LIMIT_H, 10.0 ** 307),
    ])
    def test_overflowing_channel_is_a_clear_error(self, h, P):
        ch = ChannelInstance(h=h, P=P)
        for call in (solve, lambda ch: list_solve(ch, 3)):
            with pytest.raises(ValueError, match=r"P\*\|\|h\|\|\^2 is not finite"):
                call(ch)

    @pytest.mark.parametrize("use_shortcut", [True, False])
    def test_coefficient_beyond_int64_is_a_degeneracy(self, use_shortcut):
        # entries spanning 15 orders of magnitude: the optimum's largest
        # entry is about 2.6e19
        ch = ChannelInstance(h=WIDE_H, P=10.0)
        with pytest.raises(NumericDegeneracyError, match="does not fit in int64"):
            solve(ch, use_shortcut=use_shortcut)

    def test_tiny_channel_still_solves(self):
        # ||h||^2 underflows to 0, so every objective is 1 and every rate 0
        ch = ChannelInstance(h=[1e-200, 3e-200], P=1e10)
        for use_shortcut, nodes in ((True, 0), (False, 2)):
            out = solve(ch, use_shortcut=use_shortcut)
            assert out.a.tolist() == [0, 1]
            assert (out.rate, out.objective, out.nodes_visited) == (0.0, 1.0, nodes)
        assert list_solve(ch, 3) == []


def _rated(call):
    """``call()``'s ``(a, rate)`` as bytes and hex, or its degeneracy message."""
    try:
        a, rate = call()
    except NumericDegeneracyError as exc:
        return str(exc)
    return a.dtype.str, a.tobytes(), rate.hex()


class TestUnitVectorAnswer:
    """``_solve_row``'s O(1) answer for the first unit vector, against the
    general map back (``_answer``) and ``computation_rate``."""

    @pytest.mark.parametrize("snr_db", [0.0, 20.0, 50.0, 100.0])
    def test_matches_the_general_answer(self, snr_db):
        rng = np.random.default_rng(int(snr_db) + 41)
        P = 10.0 ** (snr_db / 10.0)
        channels = []
        for n, e in itertools.product((1, 2, 3, 8, 130), (-200, -100, -20, 0, 20, 60, 100)):
            one = np.zeros(n)
            one[rng.integers(n)] = rng.choice((-1.0, 1.0)) * 2.0**e
            spread = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-200, 101, n))
            channels += [rng.standard_normal(n) * 2.0**e, one, spread * rng.choice((-1.0, 1.0), n)]
        signs, walked = set(), 0
        for h in channels:
            ch = ChannelInstance(h=h, P=P)
            _, hnorm2, t, order, sign, f, q = _channel_rows(h[None], P)
            row = (h, P, hnorm2.item(), t[0], order[0], sign[0], f[0], q[0])
            e1 = _invert(order[0], sign[0], _coefficients(None, h.size))
            expected = _rated(lambda: _answer(*row[:3], order[0], sign[0], _coefficients(None, h.size)))
            assert expected == _rated(lambda: (e1, computation_rate(ch, e1)))
            paths = [True]
            # the walk only where it is short: one nonzero entry or a low P*||h||^2
            if (np.count_nonzero(h) == 1 or P * hnorm2.item() < 1e6) and \
                    _constrained_walk(t[0], f[0], q[0], True)[0] is None:
                paths.append(False)
                walked += 1
            for shortcut in paths:
                def solved():
                    res = _solve_row(*row, shortcut)
                    return res.a, res.rate
                assert _rated(solved) == expected
            signs.add(int(sign[0, 0]))
        assert signs == {-1, 1} and walked >= 35


class TestRounding:
    def test_ties_resolve_toward_zero(self):
        from cfcoef.search import _round_nearest

        assert _round_nearest(0.5) == 0
        assert _round_nearest(1.5) == 1
        assert _round_nearest(-0.5) == 0
        assert _round_nearest(-1.5) == -1
        assert _round_nearest(2.3) == 2
        assert _round_nearest(2.7) == 3
        assert _round_nearest(-2.7) == -3
