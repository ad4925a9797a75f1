"""List-output search and its pipeline."""

import math

import numpy as np
import pytest

from cfcoef import (
    CandidateList,
    ChannelInstance,
    NumericDegeneracyError,
    ScaledChannel,
    brute_force_topl,
    computation_rate,
    list_search,
    list_solve,
    modified_search,
    sample_channel,
    scale_channel,
    solve,
    topl_box_bound,
    trial_rng,
)
from cfcoef import listsearch
from conftest import WIDE_H, make_channel, same_up_to_sign, scaled_from_t


def canonical_sign(v: np.ndarray) -> tuple:
    nz = np.nonzero(v)[0]
    if nz.size and v[nz[0]] < 0:
        v = -v
    return tuple(int(x) for x in v)


class TestListSearch:
    def test_worked_dense_instance(self):
        found = list_search(scaled_from_t([0.75, 0.65]), 3)
        assert found.objectives == pytest.approx([0.04, 0.16, 0.36], rel=1e-9)
        expected = [[1, 1], [2, 2], [3, 3]]
        for entry, want in zip(found, expected):
            assert same_up_to_sign(entry.a, want)

    def test_short_list_when_few_have_positive_rate(self):
        found = list_search(scaled_from_t([0.9, 0.0]), 5)
        assert len(found) == 2
        assert found.objectives == pytest.approx([0.19, 0.76], rel=1e-9)
        assert same_up_to_sign(found[0].a, [1, 0])
        assert same_up_to_sign(found[1].a, [2, 0])

    def test_single_entry_is_the_optimum(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 10.0]))))
            found = list_search(sc, 1)
            best = modified_search(sc)
            assert len(found) == 1
            assert found[0].objective == pytest.approx(best.objective, rel=1e-9)

    def test_rejects_empty_request(self):
        for L in (0, 2.7, 2.0, True):
            with pytest.raises(ValueError):
                list_search(scaled_from_t([0.5, 0.2]), L)

    @pytest.mark.parametrize("requested", [0, 2.5, True, "3"])
    def test_requested_must_be_a_count(self, requested):
        with pytest.raises(ValueError, match="requested must be an integer of at least 1"):
            CandidateList(entries=(), requested=requested)

    def test_requested_is_stored_as_python_int(self):
        requested = CandidateList(entries=(), requested=np.int64(3)).requested
        assert type(requested) is int and requested == 3

    def test_objectives_sorted_and_below_one(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 10.0, 100.0]))))
            found = list_search(sc, 8)
            objs = found.objectives
            assert all(0.0 < o < 1.0 for o in objs)
            assert all(a <= b for a, b in zip(objs, objs[1:]))

    def test_no_sign_duplicates(self, rng):
        channels = []
        for _ in range(60):
            n = int(rng.integers(2, 7))
            channels.append(ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 10.0])))))
        # a level-0 center lands exactly on an integer here, so the walk
        # meets both [1, 1, 1] and [-1, -1, -1] at one objective
        channels.append(scaled_from_t([0.625, 0.6, 0.375]))
        for sc in channels:
            found = list_search(sc, 10)
            keys = [canonical_sign(e.a) for e in found]
            assert len(keys) == len(set(keys))

    def test_prefix_property(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            sc = ScaledChannel.from_channel(make_channel(rng, n, 10.0))
            for L in (1, 2, 4):
                small = list_search(sc, L).objectives
                large = list_search(sc, L + 1).objectives
                assert small == large[: len(small)]

    def test_matches_brute_force(self, rng):
        checked = 0
        for _ in range(120):
            n = int(rng.integers(2, 6))
            P = float(rng.choice([1.0, 10.0]))
            sc = ScaledChannel.from_channel(make_channel(rng, n, P))
            B = topl_box_bound(sc.t)
            if (2 * B + 1) ** n > 200_000:
                continue
            L = int(rng.choice([1, 3, 5, 10]))
            found = list_search(sc, L)
            reference = brute_force_topl(sc.t, L)
            assert len(found) == len(reference)
            np.testing.assert_allclose(
                found.objectives, reference.objectives, rtol=1e-9
            )
            assert sorted(canonical_sign(e.a) for e in found) == sorted(
                canonical_sign(e.a) for e in reference
            )
            checked += 1
        assert checked > 60

    def test_single_source(self):
        found = list_search(scaled_from_t([0.9]), 4)
        # a=1: 0.19, a=2: 0.76; a=3 already exceeds 1
        assert found.objectives == pytest.approx([0.19, 0.76], rel=1e-9)


class TestListSolve:
    def test_worked_top_rate(self):
        # channel whose scaled vector is (0.75, 0.65)
        tnorm2 = 0.75**2 + 0.65**2
        P = 1.0
        scale2 = tnorm2 / (P * (1.0 - tnorm2))
        h = np.array([0.75, 0.65]) * math.sqrt(scale2 / tnorm2)
        ch = ChannelInstance(h=h, P=P)
        assert scale_channel(ch) == pytest.approx([0.75, 0.65], rel=1e-12)
        entries = list_solve(ch, 3)
        assert entries[0][1] == pytest.approx(0.5 * math.log2(1.0 / 0.04), rel=1e-6)
        assert entries[0][1] == pytest.approx(2.3219, abs=2e-4)

    def test_coefficient_beyond_int64_is_a_degeneracy(self):
        ch = ChannelInstance(h=WIDE_H, P=10.0)
        for call in (lambda: list_solve(ch, 4), lambda: list_search(ScaledChannel.from_channel(ch), 4)):
            with pytest.raises(NumericDegeneracyError, match="does not fit in int64"):
                call()

    def test_rates_nonincreasing(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            ch = make_channel(rng, n, float(rng.choice([1.0, 10.0])))
            rates = [rate for _, rate in list_solve(ch, 6)]
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_restored_objectives_round_trip(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            ch = make_channel(rng, n, float(rng.choice([1.0, 10.0])))
            sc = ScaledChannel.from_channel(ch)
            found = list_search(sc, 5)
            entries = list_solve(ch, 5)
            hnorm2 = float(ch.h @ ch.h)
            for (a, rate), canonical in zip(entries, found):
                af = a.astype(float)
                obj = float(af @ af) - ch.P * float(ch.h @ af) ** 2 / (1.0 + ch.P * hnorm2)
                assert obj == pytest.approx(canonical.objective, rel=1e-9)
                assert rate == pytest.approx(computation_rate(ch, a), rel=1e-12)

    @pytest.mark.parametrize("L", [0, -1, 2.7, True, "3", np.timedelta64(3)])
    def test_rejects_unusable_count_before_searching(self, monkeypatch, L):
        def no_build(*args):
            raise AssertionError("list_solve built rows for an unusable L")

        monkeypatch.setattr(listsearch, "_channel_rows", no_build)
        with pytest.raises(ValueError, match="L must be an integer of at least 1"):
            list_solve(ChannelInstance(h=[0.75, 0.65], P=1.0), L)

    def test_first_entry_matches_solve(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            ch = make_channel(rng, n, float(rng.choice([1.0, 10.0])))
            entries = list_solve(ch, 1)
            assert entries[0][1] == pytest.approx(solve(ch).rate, rel=1e-9)


# Frozen list_solve(ch, 8) outputs on trial_rng(12, n) channels, keyed by
# (n, snr_db): each entry is a in original coordinates and its rate as
# float.hex.  The lists at (2, 0), (2, 10) and (3, 0) are short.  They were
# recorded before list_solve and solve shared one row pipeline; L = 1 and
# L = 3 gave the first L entries on every instance.
PINNED_LISTS = {
    (2, 0): [
        ("-1 0", "0x1.fbd9e517b7d12p-3"),
        ("0 -1", "0x1.be76fae14ab51p-3"),
        ("-1 1", "0x1.3ff02aac0ec26p-4"),
    ],
    (2, 10): [
        ("-1 1", "0x1.5c4af33d23193p+0"),
        ("-1 0", "0x1.edf7c8245e8f4p-2"),
        ("0 -1", "0x1.a89ea5d5b9950p-2"),
        ("-2 2", "0x1.712bccf48c64cp-2"),
        ("-2 1", "0x1.8b4098cd62825p-3"),
        ("1 -2", "0x1.01758e670f1eap-4"),
    ],
    (2, 30): [
        ("1 -1", "0x1.0a84d1500c889p+2"),
        ("2 -2", "0x1.9509a2a019112p+1"),
        ("3 -3", "0x1.4a2995831b210p+1"),
        ("4 -4", "0x1.1509a2a019112p+1"),
        ("5 -5", "0x1.d7a96410fda74p+0"),
        ("6 -6", "0x1.94532b0636420p+0"),
        ("7 -7", "0x1.5b647555b174fp+0"),
        ("8 -8", "0x1.2a13454032223p+0"),
    ],
    (3, 0): [
        ("1 0 0", "0x1.eb1e1c304afc2p-1"),
        ("1 1 0", "0x1.433162f66b63dp-2"),
        ("0 -1 0", "0x1.22dc3b689e453p-4"),
        ("2 1 0", "0x1.096d782a5c418p-4"),
        ("0 0 1", "0x1.1d7ec349c1efep-10"),
    ],
    (3, 10): [
        ("1 0 0", "0x1.7571d87b86844p+0"),
        ("-2 -1 0", "0x1.3cfb9585c8fc4p+0"),
        ("3 1 0", "0x1.16061762d0f00p+0"),
        ("-1 -1 0", "0x1.506599116f993p-1"),
        ("4 1 0", "0x1.d6a0a577aadfdp-2"),
        ("2 0 0", "0x1.d5c761ee1a111p-2"),
        ("5 2 0", "0x1.26ec30de78b1cp-2"),
        ("-4 -2 0", "0x1.e7dcac2e47e1cp-3"),
    ],
    (3, 30): [
        ("3 1 0", "0x1.55d4f4546bdd5p+1"),
        ("-2 -1 0", "0x1.ccd02b80cf482p+0"),
        ("6 2 0", "0x1.aba9e8a8d7baap+0"),
        ("-5 -2 0", "0x1.aa4b2266b0d22p+0"),
        ("1 0 0", "0x1.8fa26a48f3c20p+0"),
        ("20 7 -1", "0x1.89e8676c17b43p+0"),
        ("17 6 -1", "0x1.81806704344fep+0"),
        ("-22 -8 1", "0x1.77f788088e3a5p+0"),
    ],
    (8, 0): [
        ("0 0 0 -1 0 0 0 0", "0x1.f717f746c2b46p-2"),
        ("0 0 0 -1 0 1 0 0", "0x1.9b7f3d8a5907dp-3"),
        ("0 0 0 0 0 -1 0 0", "0x1.1306aa2d38c5ep-3"),
        ("0 0 0 0 -1 0 0 0", "0x1.515053c26ed15p-4"),
        ("0 0 -1 0 0 0 0 0", "0x1.28510e4f498d2p-4"),
        ("0 0 0 1 -1 -1 0 0", "0x1.0171f0918c680p-4"),
        ("0 0 -1 1 -1 -1 0 0", "0x1.b0d87782b5369p-5"),
        ("0 0 0 -1 1 0 0 0", "0x1.83c742491f0dfp-5"),
    ],
    (8, 10): [
        ("0 0 1 -2 1 1 0 0", "0x1.43726346fd93bp-1"),
        ("0 0 0 -1 0 0 0 0", "0x1.1e60effec379ap-1"),
        ("0 1 2 -4 2 2 0 -1", "0x1.78c40070b9728p-2"),
        ("0 1 2 -5 2 3 0 -1", "0x1.7115fdbcd5820p-2"),
        ("0 0 1 -2 1 1 0 -1", "0x1.618ef92564c24p-2"),
        ("0 0 0 -1 0 1 0 0", "0x1.470daebb8b958p-2"),
        ("0 0 -1 1 -1 -1 0 0", "0x1.428104b775596p-2"),
        ("0 1 1 -2 1 1 0 0", "0x1.1c483b1a1ff1dp-2"),
    ],
    (8, 30): [
        ("0 1 2 -5 2 3 0 -1", "0x1.500870560f987p+0"),
        ("0 2 4 -9 4 5 0 -2", "0x1.c3e002e90c25cp-1"),
        ("0 -1 -2 4 -2 -2 0 1", "0x1.bda79d12b320bp-1"),
        ("0 0 1 -2 1 1 0 0", "0x1.84b3967a4b03dp-1"),
        ("0 1 3 -7 3 4 0 -1", "0x1.788d227b9eab5p-1"),
        ("0 2 5 -11 5 6 0 -2", "0x1.6233523b5cd24p-1"),
        ("0 -2 -4 10 -5 -6 0 2", "0x1.5a57563b8395fp-1"),
        ("0 -1 -2 4 -2 -3 0 1", "0x1.58f6edba4eb98p-1"),
    ],
    (16, 0): [
        ("0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0", "0x1.0086aabca761fp-2"),
        ("0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0", "0x1.fd384b7546a4dp-4"),
        ("0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0", "0x1.d8263491c05d7p-4"),
        ("0 0 0 -1 0 0 0 0 0 0 0 0 0 0 0 0", "0x1.e92ba2d011d80p-5"),
        ("0 0 0 0 0 -1 0 0 0 0 0 0 0 0 0 0", "0x1.854a8c1ea6613p-5"),
        ("-1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0", "0x1.840fafe6da6a8p-5"),
        ("0 0 0 0 0 0 0 0 0 0 0 0 0 0 -1 0", "0x1.9ef238e839c06p-6"),
        ("0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1", "0x1.182e594b77d7dp-6"),
    ],
    (16, 10): [
        ("0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0", "0x1.1928ab110c338p-2"),
        ("0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0", "0x1.14b9230ed0226p-3"),
        ("0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0", "0x1.006f29534ee12p-3"),
        ("0 0 0 -1 0 0 0 0 0 0 0 0 0 0 0 0", "0x1.08cbc72e6d567p-4"),
        ("0 0 0 0 0 -1 0 0 0 0 0 0 0 0 0 0", "0x1.a5299086572f7p-5"),
        ("-1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0", "0x1.a3d3ffdc442d2p-5"),
        ("0 0 0 0 0 0 0 0 0 0 0 0 0 0 -1 0", "0x1.c05a14fb2b5e1p-6"),
        ("0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1", "0x1.2e9919f4068d4p-6"),
    ],
    (16, 30): [
        ("-8 -2 12 -9 3 -8 13 4 -4 2 -2 -17 1 0 -6 5", "0x1.29ac65bd91ad4p-2"),
        ("0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0", "0x1.1c29f92a8040cp-2"),
        ("-4 -1 6 -4 1 -4 6 2 -2 1 -1 -8 0 0 -3 2", "0x1.d418967eb45d6p-3"),
        ("8 2 -12 9 -3 8 -12 -4 4 -2 2 17 -1 0 6 -5", "0x1.a7f4d91b91701p-3"),
        ("-4 -1 6 -4 1 -4 6 2 -2 1 -1 -8 1 0 -3 2", "0x1.7dca059284234p-3"),
        ("0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0", "0x1.1764a343e856dp-3"),
        ("-7 -2 11 -8 2 -7 11 4 -3 2 -2 -15 1 0 -5 4", "0x1.0ea7dc72a13eap-3"),
        ("0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0", "0x1.02e40a0953d97p-3"),
    ],
}



class TestPinnedListSolve:
    @pytest.mark.parametrize("L", [1, 3, 8])
    @pytest.mark.parametrize("n, snr_db", list(PINNED_LISTS))
    def test_list_solve(self, n, snr_db, L):
        ch = ChannelInstance(h=sample_channel(n, trial_rng(12, n)), P=10.0 ** (snr_db / 10.0))
        got = [(" ".join(map(str, a.tolist())), rate.hex()) for a, rate in list_solve(ch, L)]
        assert got == PINNED_LISTS[n, snr_db][:L]
