"""List-output search and its pipeline."""

import math

import numpy as np
import pytest

from cfcoef import (
    ChannelInstance,
    ScaledChannel,
    brute_force_topl,
    canonicalize,
    computation_rate,
    list_search,
    list_solve,
    modified_search,
    scale_channel,
    solve,
    topl_box_bound,
)
from conftest import make_channel, same_up_to_sign


def canonical_sign(v: np.ndarray) -> tuple:
    nz = np.nonzero(v)[0]
    if nz.size and v[nz[0]] < 0:
        v = -v
    return tuple(int(x) for x in v)


class TestListSearch:
    def test_worked_dense_instance(self):
        found = list_search(canonicalize([0.75, 0.65]), 3)
        assert found.objectives == pytest.approx([0.04, 0.16, 0.36], rel=1e-9)
        expected = [[1, 1], [2, 2], [3, 3]]
        for entry, want in zip(found, expected):
            assert same_up_to_sign(entry.a, want)

    def test_short_list_when_few_have_positive_rate(self):
        found = list_search(canonicalize([0.9, 0.0]), 5)
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
                list_search(canonicalize([0.5, 0.2]), L)

    def test_objectives_sorted_and_below_one(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 10.0, 100.0]))))
            found = list_search(sc, 8)
            objs = found.objectives
            assert all(0.0 < o < 1.0 for o in objs)
            assert all(a <= b for a, b in zip(objs, objs[1:]))

    def test_no_sign_duplicates(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            sc = ScaledChannel.from_channel(make_channel(rng, n, float(rng.choice([1.0, 10.0]))))
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
        found = list_search(canonicalize([0.9]), 4)
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

    def test_first_entry_matches_solve(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            ch = make_channel(rng, n, float(rng.choice([1.0, 10.0])))
            entries = list_solve(ch, 1)
            assert entries[0][1] == pytest.approx(solve(ch).rate, rel=1e-9)
