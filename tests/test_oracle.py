"""Brute-force reference solvers."""

import math

import numpy as np
import pytest

from cfcoef import (
    OracleInfeasibleError,
    brute_force_svp,
    brute_force_topl,
    svp_box_bound,
    topl_box_bound,
)
from conftest import same_up_to_sign, scaled_from_t


class TestBoxBounds:
    def test_shortcut_instance(self):
        # (1 - 0.64) / (1 - 0.8) = 1.8, so a half-width of 2 is certified
        assert svp_box_bound([0.8, 0.4]) == 2

    def test_dense_instance(self):
        assert svp_box_bound([0.75, 0.65]) == 6

    def test_topl_bound(self):
        assert topl_box_bound([0.9, 0.0]) == 3

    def test_rejects_unit_norm(self):
        with pytest.raises(ValueError):
            svp_box_bound([1.0, 0.0])

    def test_refuses_near_unit_norm(self):
        c = math.sqrt((1.0 - 5e-13) / 2.0)
        with pytest.raises(OracleInfeasibleError):
            svp_box_bound([c, c])


class TestBruteForceSvp:
    def test_shortcut_instance(self):
        res = brute_force_svp([0.8, 0.4])
        assert res.a.tolist() == [1, 0]
        assert res.objective == pytest.approx(0.36, rel=1e-12)

    def test_shortcut_instance_minimal_box(self):
        # the floor of the norm bound already contains the optimum here
        res = brute_force_svp([0.8, 0.4], box=1)
        assert res.objective == pytest.approx(0.36, rel=1e-12)

    def test_dense_instance(self):
        res = brute_force_svp([0.75, 0.65])
        assert res.a.tolist() == [1, 1]
        assert res.objective == pytest.approx(0.04, rel=1e-9)

    def test_decoupled(self):
        res = brute_force_svp([0.9, 0.0, 0.0])
        assert same_up_to_sign(res.a, [1, 0, 0])
        assert res.objective == pytest.approx(0.19, rel=1e-12)

    def test_zero_vector_never_returned(self):
        res = brute_force_svp([0.0, 0.0])
        assert np.any(res.a)
        assert res.objective == pytest.approx(1.0)

    def test_canonical_sign(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            t = rng.uniform(-0.6, 0.6, n) / math.sqrt(n)
            res = brute_force_svp(t)
            assert float(np.asarray(t) @ res.a) >= 0.0

    def test_invariant_under_signed_permutation(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            t = rng.uniform(-0.6, 0.6, n) / math.sqrt(n)
            sc = scaled_from_t(t)
            assert brute_force_svp(t).objective == pytest.approx(
                brute_force_svp(sc.t).objective, rel=1e-12
            )

    def test_enlarging_box_keeps_optimum(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            t = rng.uniform(-0.6, 0.6, n) / math.sqrt(n)
            B = svp_box_bound(t)
            a = brute_force_svp(t, box=B)
            b = brute_force_svp(t, box=B + 1)
            assert a.objective == pytest.approx(b.objective, rel=1e-12)

    def test_refuses_wide_boxes(self):
        c2 = (1.0 - 1e-5) / 3.0
        t = [math.sqrt(c2)] * 3
        with pytest.raises(OracleInfeasibleError):
            brute_force_svp(t)

    @pytest.mark.parametrize("oracle", [brute_force_svp,
                                        lambda t, box: brute_force_topl(t, 3, box=box)])
    @pytest.mark.parametrize("box", [-2, 0, 2.7, True])
    def test_rejects_bad_box(self, oracle, box):
        # unchecked, box=-2 runs and returns [2, 1], missing the optimum [1, 1]
        with pytest.raises(ValueError, match="box must be an integer"):
            oracle([0.75, 0.65], box=box)

    def test_refuses_point_explosion(self):
        c = math.sqrt(48.0 / 391.0)
        t = [c] * 8
        assert svp_box_bound(t) <= 50
        with pytest.raises(OracleInfeasibleError):
            brute_force_svp(t)


class TestBruteForceTopL:
    def test_worked_dense_instance(self):
        found = brute_force_topl([0.75, 0.65], 3)
        assert found.objectives == pytest.approx([0.04, 0.16, 0.36], rel=1e-9)

    def test_short_list(self):
        found = brute_force_topl([0.9, 0.0], 5)
        assert len(found) == 2
        assert found.objectives == pytest.approx([0.19, 0.76], rel=1e-9)

    def test_single_entry_matches_svp(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            t = rng.uniform(-0.55, 0.55, n) / math.sqrt(n)
            top = brute_force_topl(t, 1)
            ref = brute_force_svp(t)
            if ref.objective < 1.0:
                assert top.objectives[0] == pytest.approx(ref.objective, rel=1e-12)
            else:
                assert len(top) == 0

    def test_zero_channel_vector_yields_empty_list(self):
        assert len(brute_force_topl([0.0, 0.0], 4)) == 0

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            brute_force_topl([0.5, 0.1], 0)

    @pytest.mark.parametrize("L", [2.7, True])
    def test_rejects_non_integer_request(self, L):
        # list_search rejects a non-integer L, so the reference must not truncate it
        with pytest.raises(ValueError, match="L must be an integer"):
            brute_force_topl([0.5, 0.1], L)
