"""Channel scaling, canonicalization, the closed-form factor, and the rate."""

import itertools
import math
import zlib
from fractions import Fraction

import numpy as np
import pytest

from cfcoef import (
    ChannelInstance,
    NumericDegeneracyError,
    ScaledChannel,
    SignedPermutation,
    brute_force_svp,
    cholesky_factor,
    computation_rate,
    e1_is_optimal,
    objective_lower_bound,
    restore,
    sample_channel,
    scale_channel,
    trial_rng,
)
from cfcoef.core import _channel_rows, _row_dots
from conftest import FLOAT_LIMIT_H, make_channel, scaled_from_t


def brute_force_box(t, B):
    """Tiny independent minimizer of ||a||^2 - (t'a)^2 over the box |a|_inf <= B."""
    t = np.asarray(t, dtype=float)
    best, best_obj = None, math.inf
    for a in itertools.product(range(-B, B + 1), repeat=t.size):
        if not any(a):
            continue
        v = np.array(a, dtype=float)
        obj = float(v @ v) - float(t @ v) ** 2
        if obj < best_obj:
            best, best_obj = np.array(a), obj
    return best, best_obj


class TestChannelInstance:
    def test_rejects_zero_channel(self):
        with pytest.raises(ValueError):
            ChannelInstance(h=[0.0, 0.0], P=1.0)

    @pytest.mark.parametrize("P", [
        0.0, -1.0, math.inf, math.nan, True, "10", None, np.timedelta64(5),
    ])
    def test_rejects_bad_power(self, P):
        with pytest.raises(ValueError):
            ChannelInstance(h=[1.0], P=P)

    @pytest.mark.parametrize("P", [10, np.float32(2.5), np.int64(3), 0.5])
    def test_accepts_real_power(self, P):
        assert ChannelInstance(h=[1.0], P=P).P == float(P)

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError):
            ChannelInstance(h=[1.0, math.inf], P=1.0)

    def test_arrays_are_immutable(self):
        ch = ChannelInstance(h=[1.0, 2.0], P=1.0)
        with pytest.raises(ValueError):
            ch.h[0] = 5.0
        # the caller's own array stays writeable, and editing it leaves ch.h alone
        h = np.array([0.8, -1.4, 0.3])
        ch = ChannelInstance(h=h, P=10.0)
        assert h.flags.writeable
        h[0] = 5.0
        assert ch.h.tolist() == [0.8, -1.4, 0.3]
        good = scaled_from_t([0.5, 0.4])
        t = good.t.copy()
        sc = ScaledChannel(t=t, perm=good.perm, f=good.f, q=good.q)
        t[0] = 0.45
        assert t.flags.writeable and sc.t.tolist() == good.t.tolist()


class TestScaleChannel:
    def test_unit_channel(self):
        t = scale_channel(ChannelInstance(h=[1.0, 0.0], P=3.0))
        assert t == pytest.approx([math.sqrt(3.0) / 2.0, 0.0])

    def test_three_four_channel(self):
        t = scale_channel(ChannelInstance(h=[3.0, 4.0], P=1.0))
        assert t == pytest.approx([3.0 / math.sqrt(26.0), 4.0 / math.sqrt(26.0)])
        assert float(t @ t) == pytest.approx(25.0 / 26.0, rel=1e-12)

    def test_norm_below_one_always(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            P = float(10.0 ** rng.uniform(-1, 3))
            t = scale_channel(make_channel(rng, n, P))
            assert float(t @ t) < 1.0

    @pytest.mark.parametrize("h, P", [
        ([1e200], 1.0), ([1e200, 1e200], 1.0), ([1e154, 1e154], 1.0), ([1e150, 2.0], 1e30),
        (FLOAT_LIMIT_H, 10.0 ** 307),
    ])
    def test_overflowing_channel_is_a_clear_error(self, h, P):
        # pytest turns a RuntimeWarning into an error, so none may be emitted
        ch = ChannelInstance(h=h, P=P)
        with pytest.raises(ValueError, match=r"P\*\|\|h\|\|\^2 is not finite"):
            ScaledChannel.from_channel(ch)
        if h == FLOAT_LIMIT_H:
            # P*||h||^2 is finite: only the builder's tail sums overflow
            assert np.isfinite(scale_channel(ch)).all()
        else:
            with pytest.raises(ValueError, match=r"P\*\|\|h\|\|\^2 is not finite"):
                scale_channel(ch)

    def test_tiny_channel_still_builds(self):
        # ||h||^2 underflows to 0: t is h * sqrt(P) and f stays at 1
        sc = ScaledChannel.from_channel(ChannelInstance(h=[1e-200, 3e-200], P=1e10))
        assert sc.t.tolist() == [3e-200 * 1e5, 1e-200 * 1e5]
        assert sc.f.tolist() == [1.0, 1.0, 1.0]


class TestCanonicalize:
    def test_orders_by_magnitude_with_signs(self):
        sc = ScaledChannel.from_channel(ChannelInstance(h=[-0.3, 0.9, -0.1], P=1.0))
        assert sc.t == pytest.approx(np.array([0.9, 0.3, 0.1]) / math.sqrt(1.91))
        assert sc.perm.perm.tolist() == [1, 0, 2]
        assert sc.perm.sign.tolist() == [1, -1, -1]

    def test_tie_break_is_stable(self):
        sc = ScaledChannel.from_channel(ChannelInstance(h=[0.5, 0.5], P=1.0))
        assert sc.perm.perm.tolist() == [0, 1]
        assert sc.perm.sign.tolist() == [1, 1]

    def test_tail_quantities(self):
        # at P = 0.8 the channel (2, 1) scales to t = (0.8, 0.4)
        sc = ScaledChannel.from_channel(ChannelInstance(h=[2.0, 1.0], P=0.8))
        assert sc.f == pytest.approx([1.0, 0.36, 0.2], rel=1e-12)
        assert sc.q == pytest.approx([0.36, 5.0 / 9.0], rel=1e-12)
        assert float(sc.t @ sc.t) == pytest.approx(0.8)

    def test_zero_entry_gets_positive_sign(self):
        sc = ScaledChannel.from_channel(ChannelInstance(h=[0.5, 0.0], P=1.0))
        assert sc.perm.sign.tolist() == [1, 1]

    def test_matches_channel_construction(self, rng):
        # the builder's tail-sum f against 1 - cumsum(t**2) formed in test code
        for _ in range(50):
            n = int(rng.integers(1, 12))
            ch = make_channel(rng, n, float(rng.choice([1.0, 10.0, 100.0])))
            via_t = scaled_from_t(scale_channel(ch))
            via_ch = ScaledChannel.from_channel(ch)
            np.testing.assert_array_equal(via_t.t, via_ch.t)
            np.testing.assert_allclose(via_t.f, via_ch.f, rtol=1e-12)
            np.testing.assert_allclose(via_t.q, via_ch.q, rtol=1e-12)

    def test_channel_construction_survives_extreme_snr(self):
        # tail sums keep f accurate where 1 - ||t||^2 cancels to noise
        ch = ChannelInstance(h=[1.0, 0.5], P=1e18)
        sc = ScaledChannel.from_channel(ch)
        assert sc.f[-1] == pytest.approx(1.0 / (1.0 + ch.P * 1.25), rel=1e-9)
        assert np.all(np.diff(sc.f) <= 0.0)
        assert np.all(sc.q > 0.0)


def _tied_chunk(n, seed):
    """Channel rows that mix Gaussian rows with integer-valued rows, zeros,
    ``+-0.0`` and opposite-sign copies of equal magnitude."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((6, n))
    H = np.concatenate([g[:2], np.round(3.0 * g[2:4]), g[4:]])
    H[4, rng.random(n) < 0.3] = 0.0
    H[4, rng.random(n) < 0.3] = -0.0
    H[5, n // 2:] = -H[5, :n - n // 2]
    H[~H.any(axis=1), 0] = 1.0
    return H


class TestSortFallback:
    """The builder's default argsort with its stable redo on ties."""

    @pytest.mark.parametrize("n", [1, 2, 8, 300, 1000])
    def test_order_is_the_stable_sort(self, n):
        H = _tied_chunk(n, n)
        chunks = [H, H[:2], H[2:4], H[4:]] + [H[i:i + 1] for i in range(len(H))]
        for chunk in chunks:
            t_raw, _, t, order, sign, _, _ = _channel_rows(chunk, 100.0)
            for i, row in enumerate(t_raw):
                expected = np.argsort(-np.abs(row), kind="stable")
                assert order[i].tolist() == expected.tolist()
                assert sign[i].tolist() == np.where(row[expected] < 0.0, -1, 1).tolist()
                assert t[i].tobytes() == (sign[i] * row[expected]).tobytes()


# Frozen construction bits: zlib.crc32 of the little-endian bytes of t, f
# and q (float64) and of perm.perm and perm.sign (int64).  The tolerance in
# test_matches_channel_construction cannot see a last-bit change in the tail
# sums; these literals pin ScaledChannel construction exactly.
PINNED_FROM_CHANNEL = [  # (n, snr_db, crcs) for sample_channel(n, trial_rng(13, 0))
    (1, 0, (4252152438, 40142462, 1782157784, 1696784233, 2844319735)),
    (1, 20, (3008791143, 1453907683, 1056295237, 1696784233, 2844319735)),
    (1, 40, (742532500, 2856419715, 3256653349, 1696784233, 2844319735)),
    (1, 100, (689023384, 3703767563, 3030259117, 1696784233, 2844319735)),
    (2, 0, (732763268, 33746658, 856348858, 1121180356, 3078604529)),
    (2, 20, (4104586130, 3913032821, 1679743627, 1121180356, 3078604529)),
    (2, 40, (801513849, 409869469, 991767177, 1121180356, 3078604529)),
    (2, 100, (1207010907, 1688690003, 1623596410, 1121180356, 3078604529)),
    (4, 0, (3744842940, 1776940394, 1266539830, 3791614599, 1670874049)),
    (4, 20, (3073697971, 4097086641, 606305599, 3791614599, 1670874049)),
    (4, 40, (2808020499, 2669113112, 893233285, 3791614599, 1670874049)),
    (4, 100, (1182171969, 1528534192, 47112347, 3791614599, 1670874049)),
    (8, 0, (3800329018, 2583775902, 682562751, 2494311944, 2572096966)),
    (8, 20, (1638193453, 2028461694, 487757608, 2494311944, 2572096966)),
    (8, 40, (82268836, 932444154, 3373834344, 2494311944, 2572096966)),
    (8, 100, (1785392375, 285209682, 1795323845, 2494311944, 2572096966)),
    (64, 0, (1072866591, 2378414035, 298114998, 949558142, 2639707940)),
    (64, 20, (4256988159, 174616027, 3774002234, 949558142, 2639707940)),
    (64, 40, (3840380005, 3222135702, 4190182938, 949558142, 2639707940)),
    (64, 100, (1887043119, 4104596010, 629979453, 949558142, 2639707940)),
    (1000, 0, (1977560918, 1408646767, 1331295406, 2657097473, 3376269607)),
    (1000, 20, (1261093318, 364737017, 2468771416, 2657097473, 3376269607)),
    (1000, 40, (2349585446, 3770646910, 551276320, 2657097473, 3376269607)),
    (1000, 100, (1747813639, 3308738110, 4246596552, 2657097473, 3376269607)),
]

# Tied magnitudes take the builder's stable-sort redo: CI's integer channel,
# zeros of both signs, opposite-sign copies, and round(3 * g) of the Gaussian
# sample_channel(7, trial_rng(13, 1)).
PINNED_TIED = [  # (h, snr_db, crcs)
    ([2.0, -2.0, 0.0, 0.0, 1.0], 0, (3822145443, 2601563263, 1004000030, 2015331524, 1010137498)),
    ([2.0, -2.0, 0.0, 0.0, 1.0], 20, (218498803, 2450330334, 367638319, 2015331524, 1010137498)),
    ([2.0, -2.0, 0.0, 0.0, 1.0], 40, (782706257, 3219915127, 951712926, 2015331524, 1010137498)),
    ([0.0, -0.0, 1.5, -0.0, 0.7], 0, (116794752, 1846919885, 3245063080, 1031377702, 1419075188)),
    ([0.0, -0.0, 1.5, -0.0, 0.7], 20, (152962312, 3152178831, 1801848257, 1031377702, 1419075188)),
    ([0.0, -0.0, 1.5, -0.0, 0.7], 40, (4004129729, 3618380795, 563372408, 1031377702, 1419075188)),
    ([0.8, -1.4, 0.3, -0.8, 1.4, -0.3], 0, (1167527109, 1613319485, 1125202124, 2296815289, 2610966968)),
    ([0.8, -1.4, 0.3, -0.8, 1.4, -0.3], 20, (1671701801, 926265812, 2860047229, 2296815289, 2610966968)),
    ([0.8, -1.4, 0.3, -0.8, 1.4, -0.3], 40, (1085518073, 3497954100, 2726077405, 2296815289, 2610966968)),
    ([1.0, -0.0, -5.0, 2.0, -0.0, 3.0, 3.0], 0, (2035352059, 4165393782, 1359132153, 2513447823, 1289978025)),
    ([1.0, -0.0, -5.0, 2.0, -0.0, 3.0, 3.0], 20, (3789244615, 1930159386, 2921881844, 2513447823, 1289978025)),
    ([1.0, -0.0, -5.0, 2.0, -0.0, 3.0, 3.0], 40, (2381421672, 3417439565, 1095852429, 2513447823, 1289978025)),
]


def _construction_crcs(sc):
    floats = [zlib.crc32(np.asarray(a, dtype="<f8").tobytes()) for a in (sc.t, sc.f, sc.q)]
    ints = [zlib.crc32(np.asarray(a, dtype="<i8").tobytes()) for a in (sc.perm.perm, sc.perm.sign)]
    return tuple(floats + ints)


class TestPinnedConstruction:
    @pytest.mark.parametrize("n, snr_db, crcs", PINNED_FROM_CHANNEL)
    def test_from_channel(self, n, snr_db, crcs):
        h = sample_channel(n, trial_rng(13, 0))
        sc = ScaledChannel.from_channel(ChannelInstance(h=h, P=10.0 ** (snr_db / 10.0)))
        assert _construction_crcs(sc) == crcs

    @pytest.mark.parametrize("h, snr_db, crcs", PINNED_TIED)
    def test_tied_channel(self, h, snr_db, crcs):
        sc = ScaledChannel.from_channel(ChannelInstance(h=h, P=10.0 ** (snr_db / 10.0)))
        assert _construction_crcs(sc) == crcs


class TestRestore:
    def test_sign_bookkeeping(self):
        sc = scaled_from_t([-0.3, 0.9, -0.1])
        a = restore(sc.perm, [1, 1, 0])
        assert a.tolist() == [-1, 1, 0]
        t_raw = np.array([-0.3, 0.9, -0.1])
        assert float(t_raw @ a) == pytest.approx(float(sc.t @ [1, 1, 0]), rel=1e-12)

    def test_identity_permutation(self):
        perm = SignedPermutation(perm=[0, 1, 2], sign=[1, 1, 1])
        assert restore(perm, [3, -2, 1]).tolist() == [3, -2, 1]

    @pytest.mark.parametrize("a", [[1, 0], [1, 0, 0, 0], [[1, 0, 0]], 1])
    def test_rejects_wrong_shape(self, a):
        perm = SignedPermutation(perm=[2, 0, 1], sign=[1, -1, 1])
        with pytest.raises(ValueError, match="expected a vector of length 3"):
            restore(perm, a)

    def test_keeps_integer_dtype(self):
        perm = SignedPermutation(perm=[1, 0], sign=[-1, 1])
        a = restore(perm, np.array([1, 1], dtype=np.int32))
        assert a.dtype == np.int32 and a.tolist() == [1, -1]

    def test_round_trip(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            sc = scaled_from_t(0.9 * rng.uniform(-1, 1, n) / math.sqrt(n))
            a = rng.integers(-5, 6, n)
            np.testing.assert_array_equal(restore(sc.perm, sc.perm.sign * a[sc.perm.perm]), a)

    def test_objective_is_preserved(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            t_raw = 0.9 * rng.uniform(-1, 1, n) / math.sqrt(n)
            sc = scaled_from_t(t_raw)
            a_c = rng.integers(-4, 5, n)
            a = restore(sc.perm, a_c)
            obj_orig = float(a @ a) - float(np.asarray(t_raw) @ a) ** 2
            obj_canon = float(a_c @ a_c) - float(sc.t @ a_c) ** 2
            assert obj_orig == pytest.approx(obj_canon, rel=1e-12, abs=1e-12)

    def test_length_mismatch(self):
        sc = scaled_from_t([0.5, 0.2])
        with pytest.raises(ValueError):
            restore(sc.perm, [1, 0, 0])


class TestCholeskyFactor:
    def test_decoupled_channel(self):
        R = cholesky_factor(scaled_from_t([math.sqrt(3.0) / 2.0, 0.0]))
        np.testing.assert_allclose(R, [[0.5, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_worked_two_dim(self):
        R = cholesky_factor(scaled_from_t([0.8, 0.4]))
        expected = [[0.6, -8.0 / 15.0], [0.0, math.sqrt(5.0) / 3.0]]
        np.testing.assert_allclose(R, expected, rtol=1e-12)

    def test_factorization_identity(self, rng):
        for n in (1, 2, 3, 8, 21, 64):
            ch = make_channel(rng, n, float(rng.choice([1.0, 10.0])))
            sc = ScaledChannel.from_channel(ch)
            R = cholesky_factor(sc)
            gram = np.eye(n) - np.outer(sc.t, sc.t)
            assert np.max(np.abs(R.T @ R - gram)) < 1e-12

    def test_determinant_product_identity(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 32))
            sc = ScaledChannel.from_channel(make_channel(rng, n, 10.0))
            assert float(np.prod(sc.q)) == pytest.approx(float(sc.f[-1]), rel=1e-12)

    def test_diagonal_bounds(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 20))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 100.0]))))
            r_kk = np.sqrt(sc.q)
            assert np.all(np.sqrt(sc.f[1:]) <= r_kk + 1e-12)
            assert np.all(r_kk <= np.sqrt(1.0 - np.square(sc.t)) + 1e-12)

    def test_trailing_product_bound(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 16))
            sc = ScaledChannel.from_channel(make_channel(rng, n, 10.0))
            r_kk = np.sqrt(sc.q)
            floor = math.sqrt(1.0 - float(sc.t @ sc.t))
            for k in range(n):
                tail = float(np.prod(r_kk[k:]))
                assert tail == pytest.approx(math.sqrt(sc.f[-1] / sc.f[k]), rel=1e-10)
                assert tail >= floor - 1e-12

    def test_block_gram_eigenvalues(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 13))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 10.0, 100.0]))))
            R = cholesky_factor(sc)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    block = R[i : j + 1, i : j + 1]
                    eig = np.sort(np.linalg.eigvalsh(block.T @ block))
                    expected = np.sort(np.concatenate(
                        [[sc.f[j + 1] / sc.f[i]], np.ones(j - i)]
                    ))
                    np.testing.assert_allclose(eig, expected, atol=1e-10)

    def test_column_norm_chain(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 12))
            sc = ScaledChannel.from_channel(make_channel(rng, n, 10.0))
            R = cholesky_factor(sc)
            for i in range(n):
                norms = [float(np.linalg.norm(R[i : j + 1, j])) for j in range(i, n)]
                for j in range(i, n):
                    expected = 1.0 - sc.t[j] ** 2 / sc.f[i]
                    assert norms[j - i] ** 2 == pytest.approx(expected, rel=1e-10)
                assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


class TestComputationRate:
    def setup_method(self):
        self.ch = ChannelInstance(h=[1.0, 0.0], P=3.0)

    def test_best_vector(self):
        assert computation_rate(self.ch, [1, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_vector_rates_zero(self):
        assert computation_rate(self.ch, [0, 1]) == 0.0

    def test_clamped_to_zero(self):
        # denominator 5/4 > 1, so the log is clamped
        assert computation_rate(self.ch, [1, 1]) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            computation_rate(self.ch, [0, 0])

    @pytest.mark.parametrize("a", [
        [math.nan, 1, 0], [math.inf, 0, 0], [0.5, 0.5, 0], [1, 2.0000001, 0],
    ])
    def test_non_integer_vector_rejected(self, a):
        ch = ChannelInstance(h=[0.8, -1.4, 0.3], P=10.0)
        with pytest.raises(ValueError, match="finite integer"):
            computation_rate(ch, a)

    @pytest.mark.parametrize("a", [
        [2**53 + 1, 0], np.array([2**53 + 1, 0]), np.array([2**64 - 1, 0], dtype=np.uint64),
        [2**64 + 1, 0], [10**400, 0],
    ])
    def test_inexact_integer_entry_rejected(self, a):
        # the float cast would rate [2**53 + 1, 0] as its neighbour [2**53, 0]
        ch = ChannelInstance(h=[1.0, 1e-9], P=1e6)
        with pytest.raises(ValueError, match="a has an integer entry that a float cannot hold exactly"):
            computation_rate(ch, a)
        # an integer a float holds exactly is rated as before, however large
        assert computation_rate(ch, np.array([2**60, 0])) == computation_rate(ch, [2.0**60, 0.0])

    def test_integral_floats_accepted(self):
        ch = ChannelInstance(h=[0.8, -1.4, 0.3], P=10.0)
        assert computation_rate(ch, [1.0, -2.0, 0.0]) == computation_rate(ch, [1, -2, 0])

    def test_degenerate_power_raises(self):
        ch = ChannelInstance(h=[1.0], P=1e300)
        with pytest.raises(NumericDegeneracyError):
            computation_rate(ch, [1])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_vector_is_degenerate(self):
        # ||a||^2 and P (h'a)^2 both overflow, so the form is inf - inf = nan;
        # it raises, with no RuntimeWarning from the dots on the way
        ch = ChannelInstance(h=[0.8, -1.4, 0.3], P=10.0)
        with pytest.raises(NumericDegeneracyError, match="nan"):
            computation_rate(ch, [1e300, 0, 0])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_alone_rates_zero(self):
        # h'a = 0, so only ||a||^2 overflows: the form is inf, the rate 0
        assert computation_rate(self.ch, [0, 1e200]) == 0.0

    def test_rate_matches_objective(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 8))
            ch = make_channel(rng, n, float(rng.choice([1.0, 10.0])))
            sc = ScaledChannel.from_channel(ch)
            a_c = np.abs(rng.integers(-2, 3, n))
            if not np.any(a_c):
                a_c[0] = 1
            a = restore(sc.perm, a_c)
            obj = float(a_c @ a_c) - float(sc.t @ a_c) ** 2
            rate = computation_rate(ch, a)
            if 0.0 < obj < 1.0:
                assert rate == pytest.approx(-0.5 * math.log2(obj), rel=1e-9)
            elif obj >= 1.0:
                assert rate == 0.0


class TestRowDots:
    """``core._row_dots`` is ``np.dot`` of each row pair, bit for bit: the
    harness's ``||h||^2`` and dominance forms must stay the floats of the
    single-channel calls."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 31, 32, 33, 100, 1000, 3000])
    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1.0, 1e100, 1e150])
    def test_equals_np_dot(self, n, scale):
        rng = np.random.default_rng(n)
        h = rng.standard_normal((20, n)) * scale
        # each channel row with itself, as _scale_rows pairs them
        assert [x.hex() for x in _row_dots(h, h).tolist()] == [
            float(np.dot(row, row)).hex() for row in h
        ]
        # each row against four integer candidates, and each candidate with
        # itself, as the dominance pass pairs them; it drops zero candidates,
        # the one place (at n = 1) where the sign of a zero sum differs
        cands = rng.integers(-4, 5, size=(20, 4, n)).astype(np.float64)
        inner, norms = _row_dots(h[:, None, :], cands), _row_dots(cands, cands)
        for i, k in zip(*np.nonzero(cands.any(axis=2))):
            a = cands[i, k]
            assert float(inner[i, k]).hex() == float(np.dot(h[i], a)).hex()
            assert float(norms[i, k]).hex() == float(np.dot(a, a)).hex()


class TestUnitVectorShortcut:
    def test_holds_and_is_confirmed_by_enumeration(self):
        sc = scaled_from_t([0.8, 0.4])
        assert e1_is_optimal(sc)
        best, best_obj = brute_force_box(sc.t, 3)
        assert best_obj == pytest.approx(float(sc.q[0]), rel=1e-12)
        assert abs(best[0]) == 1 and best[1] == 0

    def test_fails_by_arithmetic(self):
        # 0.65^2 = 0.4225 > 0.5625 * 0.4375 = 0.2461
        assert not e1_is_optimal(scaled_from_t([0.75, 0.65]))

    def test_single_active_coordinate(self, rng):
        for t1 in rng.uniform(0.05, 0.95, 10):
            sc = scaled_from_t([float(t1), 0.0, 0.0])
            assert e1_is_optimal(sc)

    def test_shortcut_never_contradicts_enumeration(self, rng):
        for _ in range(150):
            n = int(rng.integers(2, 5))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 10.0]))))
            if e1_is_optimal(sc):
                _, best_obj = brute_force_box(sc.t, 3)
                assert float(sc.q[0]) <= best_obj * (1.0 + 1e-12)


class TestObjectiveLowerBound:
    def test_worked_example(self):
        assert objective_lower_bound(scaled_from_t([0.8, 0.4])) == pytest.approx(0.6, rel=1e-12)

    def test_single_coordinate(self):
        sc = scaled_from_t([0.7, 0.0, 0.0])
        assert objective_lower_bound(sc) == pytest.approx(math.sqrt(1.0 - 0.49), rel=1e-12)

    def test_dominates_global_norm_bound(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 10))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 10.0, 100.0]))))
            assert objective_lower_bound(sc) >= math.sqrt(1.0 - float(sc.t @ sc.t)) - 1e-12

    def test_bound_below_optimum_thousand_instances(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 4))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 10.0]))))
            bound = objective_lower_bound(sc)
            best = brute_force_svp(sc.t)
            assert bound**2 <= best.objective * (1.0 + 1e-12)


class TestTypeValidation:
    def test_permutation_must_be_bijection(self):
        with pytest.raises(ValueError):
            SignedPermutation(perm=[0, 0], sign=[1, 1])

    def test_signs_must_be_unit(self):
        with pytest.raises(ValueError):
            SignedPermutation(perm=[0, 1], sign=[1, 2])

    @pytest.mark.parametrize("perm, sign, match", [
        ([0.7, 1.2], [1.9, -1.5], "perm is not a permutation of 0..n-1"),
        ([0.7, 1.2], [1, -1], "perm is not a permutation of 0..n-1"),
        ([1, 0, 2.0000001], [1, 1, 1], "perm is not a permutation of 0..n-1"),
        ([0, 1], [1.9, -1.5], "sign entries must be \\+1 or -1"),
        ([0, 1], [1, 1.0000001], "sign entries must be \\+1 or -1"),
    ])
    def test_signed_permutation_rejects_fractional_entries(self, perm, sign, match):
        # a fractional entry is rejected, not truncated to an integer
        with pytest.raises(ValueError, match=match):
            SignedPermutation(perm=perm, sign=sign)

    @pytest.mark.parametrize("perm, sign", [
        ([True, False], [True, True]),
        ([1, 0], [1, True]),
        (np.array([False, True]), [1, -1]),
        ([0, 1], np.array([True, True])),
    ])
    def test_signed_permutation_rejects_booleans(self, perm, sign):
        with pytest.raises(ValueError, match="not booleans"):
            SignedPermutation(perm=perm, sign=sign)

    def test_signed_permutation_rejects_empty_vectors(self):
        with pytest.raises(ValueError, match="perm must be a nonempty 1-D real vector"):
            SignedPermutation(perm=[], sign=[])

    def test_signed_permutation_keeps_integral_floats(self):
        sp = SignedPermutation(perm=[1.0, 0.0], sign=[-1.0, 1.0])
        assert sp.perm.dtype == np.intp and sp.sign.dtype == np.int64
        assert sp.perm.tolist() == [1, 0] and sp.sign.tolist() == [-1, 1]

    def test_scaled_channel_requires_sorted_t(self):
        good = scaled_from_t([0.5, 0.4])
        with pytest.raises(ValueError):
            ScaledChannel(t=[0.4, 0.5], perm=good.perm, f=good.f, q=good.q)

    def test_scaled_channel_requires_nonnegative_t(self):
        # sorted nonincreasing, so only the sign test rejects it
        good = scaled_from_t([0.5, 0.4])
        with pytest.raises(ValueError, match="t must be sorted nonincreasing and nonnegative"):
            ScaledChannel(t=[0.5, -0.4], perm=good.perm, f=good.f, q=good.q)

    def test_scaled_channel_requires_positive_f(self):
        good = scaled_from_t([0.5, 0.4])
        with pytest.raises(ValueError):
            ScaledChannel(t=good.t, perm=good.perm, f=[1.0, 0.75, 0.0], q=good.q)

    def test_scaled_channel_requires_unit_interval_q(self):
        good = scaled_from_t([0.5, 0.4])
        with pytest.raises(ValueError):
            ScaledChannel(t=good.t, perm=good.perm, f=good.f, q=[0.75, 1.5])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, index", [
        ("t", 0), ("t", 2), ("f", 0), ("f", 1), ("f", 3), ("q", 0), ("q", 1), ("q", 2),
    ])
    def test_scaled_channel_rejects_nonfinite_entries(self, field, index, value):
        # only t has a finiteness test; the bounds on f and q reject the rest
        good = scaled_from_t([0.5, 0.4, 0.3])
        fields = {"t": good.t.copy(), "f": good.f.copy(), "q": good.q.copy()}
        fields[field][index] = value
        match = "t must contain only finite values" if field == "t" else None
        with pytest.raises(ValueError, match=match):
            ScaledChannel(perm=good.perm, **fields)

    @pytest.mark.parametrize("x", [
        np.array([1 + 2j, 3.0]), [1 + 2j, 3.0], [0.5 + 0j, 0.25], [True, False],
        np.array([True, False]), [0.5, np.bool_(True)], ["1", "2"], np.array(["0.5", "0.25"]),
        [1j, Fraction(1, 2)], [None, 1.0], ["1", "0"], [np.timedelta64(1, "ns"), 1.0],
        np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[ns]"),
        np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"),
    ])
    def test_vectors_reject_non_real_entries(self, x):
        # the float cast would drop an imaginary part, read a bool as 0 or 1,
        # or parse a string, and restore would keep a bool and drop its sign;
        # every entry point rejects them instead
        good = scaled_from_t([0.5, 0.4])
        match = "must hold real numbers"
        with pytest.raises(ValueError, match=match):
            ChannelInstance(h=x, P=1.0)
        with pytest.raises(ValueError, match=match):
            ScaledChannel(t=x, perm=good.perm, f=good.f, q=good.q)
        with pytest.raises(ValueError, match=match):
            brute_force_svp(x)
        with pytest.raises(ValueError, match=match):
            SignedPermutation(perm=x, sign=[1, 1])
        with pytest.raises(ValueError, match=match):
            computation_rate(ChannelInstance(h=[0.8, -1.4], P=10.0), x)
        with pytest.raises(ValueError, match=match):
            restore(SignedPermutation(perm=[1, 0], sign=[-1, 1]), x)

    def test_single_coordinate_factor(self):
        R = cholesky_factor(scaled_from_t([0.6]))
        np.testing.assert_allclose(R, [[0.8]], rtol=1e-12)
