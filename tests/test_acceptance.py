"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; every tolerance is fixed here, nothing is calibrated at run
time.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from cfcoef import (
    ChannelInstance,
    ScaledChannel,
    TrialConfig,
    baseline_search,
    brute_force_topl,
    cholesky_factor,
    count_visited_nodes,
    list_search,
    modified_search,
    objective_lower_bound,
    run_trials,
    sample_channel,
    solve,
    svp_box_bound,
    topl_box_bound,
    trial_rng,
)
from cfcoef.cli import main
from cfcoef.oracle import _require_enumerable, _scan_best_two
from conftest import dominance_violations, same_up_to_sign

REL_TOL = 1e-9


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num} FAIL  {description}")
        raise
    print(f"\n[acceptance] criterion {num} PASS  {description}")


def _feasible(rng, n, P, bound_fn, max_points):
    while True:
        h = rng.standard_normal(n)
        ch = ChannelInstance(h=h, P=P)
        sc = ScaledChannel.from_channel(ch)
        B = bound_fn(sc.t)
        if B <= 50 and (2 * B + 1) ** n <= max_points:
            return ch, sc, B


def test_criterion_1_oracle_equivalence():
    with criterion(1, "modified and baseline searches match brute force on 1005 instances"):
        rng = np.random.default_rng(101)
        grid = [(n, P) for n in (2, 3, 4, 5, 6) for P in (1.0, 10.0, 100.0)]
        per_cell = 67
        checked = unique_checked = 0
        for n, P in grid:
            for _ in range(per_cell):
                _, sc, B = _feasible(rng, n, P, svp_box_bound, 2_000_000)
                _require_enumerable(B, n)
                ref_vec, ref_obj, second_obj, _ = _scan_best_two(sc.t, B)
                got = modified_search(sc)
                base = baseline_search(cholesky_factor(sc))
                assert abs(got.objective - ref_obj) <= REL_TOL * ref_obj
                assert abs(base.objective - ref_obj) <= REL_TOL * ref_obj
                checked += 1
                if second_obj > ref_obj * (1.0 + 1e-6):
                    assert same_up_to_sign(got.a, ref_vec)
                    assert same_up_to_sign(base.a, ref_vec)
                    unique_checked += 1
        assert checked == len(grid) * per_cell
        assert unique_checked > checked // 2


def test_criterion_2_top_l_equivalence():
    with criterion(2, "list search matches brute-force top-L on 504 instances"):
        rng = np.random.default_rng(202)
        sizes = (1, 3, 5, 10)
        grid = [(n, P) for n in (2, 3, 4) for P in (1.0, 10.0, 100.0)]
        count = 0
        short_lists = 0
        for n, P in grid:
            for i in range(56):
                _, sc, B = _feasible(rng, n, P, topl_box_bound, 2_000_000)
                L = sizes[i % len(sizes)]
                found = list_search(sc, L)
                reference = brute_force_topl(sc.t, L, box=B)
                assert len(found) == len(reference)
                for a, b in zip(found.objectives, reference.objectives):
                    assert abs(a - b) <= REL_TOL * max(b, 1e-300)
                short_lists += len(found) < L
                count += 1
        assert count == 504
        assert short_lists > 0  # the truncated-list branch was exercised


def test_criterion_3_cholesky_identity():
    with criterion(3, "closed-form factor reproduces the Gram matrix at 1e-12"):
        rng = np.random.default_rng(303)
        for n in (2, 8, 32, 64):
            for i in range(50):
                P = (1.0, 10.0)[i % 2]
                sc = ScaledChannel.from_channel(
                    ChannelInstance(h=rng.standard_normal(n), P=P)
                )
                R = cholesky_factor(sc)
                gram = np.eye(n) - np.outer(sc.t, sc.t)
                assert np.max(np.abs(R.T @ R - gram)) < 1e-12
                prod = float(np.prod(sc.q))
                assert abs(prod - float(sc.f[-1])) <= 1e-12 * float(sc.f[-1])


def test_criterion_4_factor_structure_invariants():
    with criterion(4, "diagonal bounds, block eigenvalues, lower bound, column chains"):
        rng = np.random.default_rng(404)
        for i in range(200):
            n = int(rng.integers(2, 17))
            P = (1.0, 10.0, 100.0)[i % 3]
            sc = ScaledChannel.from_channel(
                ChannelInstance(h=rng.standard_normal(n), P=P)
            )
            R = cholesky_factor(sc)
            r_kk = np.sqrt(sc.q)
            # diagonal bounds
            assert np.all(np.sqrt(sc.f[1:]) <= r_kk + 1e-12)
            assert np.all(r_kk <= np.sqrt(1.0 - np.square(sc.t)) + 1e-12)
            # block Gram eigenvalues (tolerance 1e-10)
            for i0 in range(n - 1):
                for j0 in range(i0 + 1, n):
                    block = R[i0 : j0 + 1, i0 : j0 + 1]
                    eig = np.sort(np.linalg.eigvalsh(block.T @ block))
                    expected = np.sort(
                        np.concatenate([[sc.f[j0 + 1] / sc.f[i0]], np.ones(j0 - i0)])
                    )
                    assert np.max(np.abs(eig - expected)) < 1e-10
            # lower bound never exceeds the achieved optimum
            achieved = modified_search(sc).objective
            assert objective_lower_bound(sc) ** 2 <= achieved * (1.0 + 1e-12)
            # column norm chains
            for i0 in range(n):
                norms = [float(np.linalg.norm(R[i0 : j0 + 1, j0])) for j0 in range(i0, n)]
                assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
                for j0 in range(i0, n):
                    expected = 1.0 - sc.t[j0] ** 2 / sc.f[i0]
                    assert abs(norms[j0 - i0] ** 2 - expected) <= 1e-10 * max(expected, 1e-12)


def test_criterion_5_shortcut_frequency_tables():
    with criterion(5, "unit-vector shortcut frequencies match the frozen references"):
        cells = [(2, 0.0, 0.8617), (8, 10.0, 0.1222), (16, 20.0, 0.0059)]
        for n, snr_db, expected in cells:
            cfg = TrialConfig(mode="e1_freq", n=n, snr_db=snr_db, trials=10_000, seed=11)
            report = run_trials(cfg)
            fraction = report.result["e1_fraction"]
            assert abs(fraction - expected) <= 0.02, (n, snr_db, fraction)
        cfg = TrialConfig(mode="e1_freq", n=100, snr_db=20.0, trials=10_000, seed=11)
        report = run_trials(cfg)
        assert report.result["hits"] <= 5, report.result


def test_criterion_6_node_ratio_tables():
    with criterion(6, "fixed-radius tree-size ratios match the frozen references"):
        cells = [(4, 0.0, 0.5259), (8, 20.0, 0.4040), (16, 0.0, 0.3204)]
        for n, snr_db, expected in cells:
            cfg = TrialConfig(mode="node_ratio", n=n, snr_db=snr_db, trials=10_000, seed=13)
            report = run_trials(cfg)
            avg = report.result["node_ratio_avg"]
            assert abs(avg - expected) <= 0.08, (n, snr_db, avg)
            assert report.result["node_ratio_max"] < 2.0, (n, snr_db)


def test_criterion_7_scaling():
    with criterion(7, "large instances solve fast and node growth is sub-quadratic"):
        P = 100.0
        nodes = {}
        for n in (100, 1_000, 10_000):
            h = sample_channel(n, trial_rng(7, n))
            sc = ScaledChannel.from_channel(ChannelInstance(h=h, P=P))
            start = time.perf_counter()
            res = modified_search(sc)
            elapsed = time.perf_counter() - start
            nodes[n] = res.nodes_visited
            if n == 10_000:
                assert elapsed < 2.0, f"search took {elapsed:.3f}s"
        slope = math.log(nodes[10_000] / nodes[100]) / math.log(100.0)
        assert slope < 2.0, (nodes, slope)


def test_criterion_8_rate_dominance():
    with criterion(8, "optimal rate dominates unit vectors and quantized candidates"):
        rng = np.random.default_rng(808)
        grid = [(n, P) for n in (4, 8, 16) for P in (1.0, 10.0, 100.0)]
        violations = 0
        total = 0
        for n, P in grid:
            for _ in range(223):
                ch = ChannelInstance(h=rng.standard_normal(n), P=P)
                out = solve(ch)
                violations += dominance_violations(ch, out.rate)
                total += 1
        assert total == 2007
        assert violations == 0


def test_criterion_9_bench_determinism(tmp_path):
    with criterion(9, "bench result fields are byte-identical across runs and parallelism"):
        outputs = []
        for tag, workers in (("a1", 1), ("b1", 1), ("a8", 8), ("b8", 8)):
            out = tmp_path / f"report_{tag}.jsonl"
            code = main([
                "bench", "--mode", "rate_avg", "--n", "4", "--snr-db", "10",
                "--trials", "240", "--seed", "123",
                "--parallel", str(workers), "--out", str(out),
            ])
            assert code == 0
            head = json.loads(out.read_text().splitlines()[0])
            outputs.append(json.dumps(head["result"], sort_keys=True).encode())
        assert len(set(outputs)) == 1
