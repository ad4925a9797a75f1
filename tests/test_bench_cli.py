"""Monte-Carlo harness determinism, report formats, and the CLI surface."""

import csv
import functools
import io
import json
import math
import multiprocessing
import re
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfcoef.bench as bench
from cfcoef import _native, search
from cfcoef import (
    ChannelInstance,
    NumericDegeneracyError,
    ScaledChannel,
    TrialConfig,
    computation_rate,
    count_visited_nodes,
    e1_is_optimal,
    emit_report,
    list_solve,
    run_trials,
    sample_channel,
    solve,
    trial_rng,
)
from cfcoef.cli import main
from cfcoef.core import _channel_rows, _scale_rows
from conftest import (
    FLOAT_LIMIT_H,
    WIDE_H,
    assert_walks_match,
    dominance_candidates,
    dominance_violations,
    scaled_from_t,
)


class TestSampling:
    def test_repeatable_per_trial(self):
        a = sample_channel(4, trial_rng(17, 0))
        b = sample_channel(4, trial_rng(17, 0))
        np.testing.assert_array_equal(a, b)

    def test_distinct_across_trials(self):
        draws = {tuple(sample_channel(4, trial_rng(17, j))) for j in range(64)}
        assert len(draws) == 64

    def test_independent_of_enumeration_order(self):
        forward = [sample_channel(3, trial_rng(5, j)) for j in range(8)]
        backward = [sample_channel(3, trial_rng(5, j)) for j in reversed(range(8))]
        for f, b in zip(forward, reversed(backward)):
            np.testing.assert_array_equal(f, b)

    @pytest.mark.parametrize("n", [True, 2.5, 0, -1])
    def test_rejects_unusable_n(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_channel(n, trial_rng(17, 0))

    def test_squared_norm_mean(self):
        # chi-squared with n degrees of freedom has mean n
        total = 0.0
        for j in range(100_000):
            h = sample_channel(8, trial_rng(99, j))
            total += float(h @ h)
        assert total / 100_000 == pytest.approx(8.0, abs=0.1)


class TestTrialConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(mode="nope", n=4, snr_db=0.0, trials=10, seed=0)

    def test_statistical_modes_need_two_sources(self):
        with pytest.raises(ValueError):
            TrialConfig(mode="e1_freq", n=1, snr_db=0.0, trials=10, seed=0)

    def test_list_mode_needs_list_size(self):
        with pytest.raises(ValueError):
            TrialConfig(mode="list", n=4, snr_db=0.0, trials=10, seed=0)

    def test_power_conversion(self):
        cfg = TrialConfig(mode="solve", n=2, snr_db=20.0, trials=1, seed=0)
        assert cfg.P == pytest.approx(100.0)

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 4000.0, -4000.0])
    def test_rejects_unusable_snr(self, snr_db):
        # 10^(dB/10) overflows above about 3083 dB and underflows to 0 below -3240
        with pytest.raises(ValueError, match="snr_db"):
            TrialConfig(mode="solve", n=2, snr_db=snr_db, trials=1, seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 2.5), ("n", True), ("trials", 10.0), ("seed", 1.5), ("seed", False),
         ("list_size", 2.5), ("list_size", True)],
    )
    def test_sizes_must_be_integers(self, field, value):
        kwargs = dict(mode="list", n=4, snr_db=0.0, trials=10, seed=0, list_size=2)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            TrialConfig(**kwargs)

    @pytest.mark.parametrize("snr_db", ["10", None, True, False, 1j, np.timedelta64(10)])
    def test_snr_must_be_a_real_number(self, snr_db):
        with pytest.raises(ValueError, match="snr_db must be a real number"):
            TrialConfig(mode="solve", n=2, snr_db=snr_db, trials=1, seed=0)

    @pytest.mark.parametrize("list_size", [0, -5])
    @pytest.mark.parametrize("mode", ["solve", "list", "e1_freq", "node_ratio", "rate_avg"])
    def test_list_size_below_one_is_rejected_in_every_mode(self, mode, list_size):
        with pytest.raises(ValueError, match="list_size"):
            TrialConfig(mode=mode, n=4, snr_db=0.0, trials=3, seed=0, list_size=list_size)
        if mode != "list":
            assert TrialConfig(mode=mode, n=4, snr_db=0.0, trials=3, seed=0).list_size is None

    def test_numpy_integers_accepted(self):
        cfg = TrialConfig(mode="list", n=np.int64(4), snr_db=0.0, trials=np.int32(10),
                          seed=np.uint64(2**64 - 1), list_size=np.int64(2))
        assert cfg.seed == 2**64 - 1

    @pytest.mark.parametrize("fmt, keep", [("json-lines", True), ("csv", False)])
    def test_numpy_scalars_give_the_same_report(self, fmt, keep):
        # NumPy scalars are stored as Python numbers, so the report serializes
        plain = TrialConfig(mode="list", n=4, trials=5, seed=3, list_size=2, snr_db=10.0)
        scalars = TrialConfig(mode="list", n=np.int64(4), trials=np.int64(5), seed=np.uint64(3),
                              list_size=np.int64(2), snr_db=np.float32(10.0))
        names = ("n", "trials", "seed", "list_size", "snr_db")
        assert [type(getattr(scalars, name)) for name in names] == [int, int, int, int, float]
        reports = [replace(run_trials(cfg, keep_per_trial=keep), wall_time=0.0)
                   for cfg in (plain, scalars)]
        assert emit_report(reports[1], fmt) == emit_report(reports[0], fmt)


class TestRunTrials:
    def test_e1_frequency_matches_reference_scale(self):
        cfg = TrialConfig(mode="e1_freq", n=2, snr_db=0.0, trials=3000, seed=1)
        report = run_trials(cfg)
        assert report.result["e1_fraction"] == pytest.approx(0.8617, abs=0.03)
        assert report.result["hits"] == int(report.result["e1_fraction"] * 3000)

    def test_node_ratio_stays_under_budget(self):
        cfg = TrialConfig(mode="node_ratio", n=4, snr_db=0.0, trials=500, seed=2)
        report = run_trials(cfg)
        assert 0.0 < report.result["node_ratio_avg"] <= report.result["node_ratio_max"]
        assert report.result["node_ratio_max"] < 2.0

    def test_rate_mode_has_no_dominance_violations(self):
        cfg = TrialConfig(mode="rate_avg", n=4, snr_db=10.0, trials=300, seed=3)
        report = run_trials(cfg)
        assert report.result["dominance_violations"] == 0
        assert report.result["rate_avg"] > 0.0

    def test_list_mode_aggregates(self):
        cfg = TrialConfig(mode="list", n=3, snr_db=10.0, trials=200, seed=4, list_size=5)
        report = run_trials(cfg)
        assert 0.0 < report.result["list_len_avg"] <= 5.0
        assert report.result["top_rate_avg"] > 0.0
        assert 0 <= report.result["short_lists"] <= 200

    def test_solve_mode_aggregates(self):
        cfg = TrialConfig(mode="solve", n=4, snr_db=0.0, trials=200, seed=5)
        report = run_trials(cfg)
        assert report.result["rate_avg"] > 0.0
        assert 0.0 <= report.result["e1_fraction"] <= 1.0

    def test_per_trial_rows_are_kept_on_request(self):
        cfg = TrialConfig(mode="e1_freq", n=2, snr_db=0.0, trials=25, seed=6)
        report = run_trials(cfg, keep_per_trial=True)
        assert len(report.per_trial) == 25
        assert report.per_trial[0]["trial"] == 0

    def test_degenerate_trials_are_recorded(self, monkeypatch):
        # WIDE_H's optimum has an entry beyond int64 at 10 dB: its trial
        # records the error solve raises, and the other trials are rated
        with pytest.raises(NumericDegeneracyError, match="int64") as first:
            solve(ChannelInstance(h=WIDE_H, P=10.0))
        for mode in ("rate_avg", "solve"):
            cfg = TrialConfig(mode=mode, n=5, snr_db=10.0, trials=10, seed=7)
            self._replace_trial(monkeypatch, cfg, 3, WIDE_H)
            report = run_trials(cfg, keep_per_trial=True)
            assert report.result["degenerate_trials"] == [3]
            assert [row["trial"] for row in report.per_trial] == [0, 1, 2, 4, 5, 6, 7, 8, 9]
            _, errors = bench._run_chunk((cfg.mode, cfg.n, cfg.P, cfg.seed, cfg.list_size, 0, cfg.trials))
            assert errors == [None] * 3 + [str(first.value)] + [None] * 6

    @staticmethod
    def _replace_trial(monkeypatch, cfg, trial, h):
        """Make ``bench._draw_rows`` draw ``h`` for one trial of ``cfg``."""
        real = bench._draw_rows

        def draw(seed, lo, hi, n):
            rows = real(seed, lo, hi, n)
            if lo <= trial < hi:
                rows[trial - lo] = h
            return rows

        monkeypatch.setattr(bench, "_draw_rows", draw)

    def test_degenerate_dominance_candidate_is_recorded(self, monkeypatch):
        # at 0 dB, h = [91329529, 0] solves to [1, 0] with a positive
        # quadratic form, but that of the quantized candidate [3, 0] (c = 3,
        # after the unit vectors and [1, 0], [2, 0]) cancels to 0.0
        ch = ChannelInstance(h=[91329529.0, 0.0], P=1.0)
        rate = solve(ch).rate
        with pytest.raises(NumericDegeneracyError) as first:
            computation_rate(ch, [3, 0])
        with pytest.raises(NumericDegeneracyError, match=re.escape(str(first.value))):
            dominance_violations(ch, rate)
        cfg = TrialConfig(mode="rate_avg", n=2, snr_db=0.0, trials=9, seed=7)
        self._replace_trial(monkeypatch, cfg, 5, ch.h)
        assert run_trials(cfg).result["degenerate_trials"] == [5]
        _, errors = bench._run_chunk((cfg.mode, cfg.n, cfg.P, cfg.seed, cfg.list_size, 0, cfg.trials))
        assert errors == [None] * 5 + [str(first.value)] + [None] * 3

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize("mode", ["rate_avg", "solve"])
    def test_degenerate_trial_in_a_later_chunk(self, monkeypatch, mode, parallel):
        # chunks of 8 trials at n = 5 serially, of 1 trial in the pool (run
        # inline): WIDE_H's trial 11 is in neither first chunk, and every
        # aggregate is that of the other trials' public rows
        monkeypatch.setattr(bench, "_CHUNK_ENTRIES", 40)
        monkeypatch.setattr(bench, "ProcessPoolExecutor", _InlinePool)
        cfg = TrialConfig(mode=mode, n=5, snr_db=10.0, trials=30, seed=7)
        self._replace_trial(monkeypatch, cfg, 11, WIDE_H)
        report = run_trials(cfg, parallel=parallel, keep_per_trial=True)
        rows, violations = _public_rows(cfg, skip=(11,))
        assert [row["trial"] for row in report.per_trial] == [j for j in range(30) if j != 11]
        assert list(report.per_trial) == rows
        assert report.result == _expected_result(cfg, rows, violations, degenerate=[11])

    @pytest.mark.parametrize("mode", ["e1_freq", "list"])
    def test_zero_channel_is_rejected(self, monkeypatch, mode):
        cfg = TrialConfig(mode=mode, n=3, snr_db=0.0, trials=12, seed=7, list_size=2)
        self._replace_trial(monkeypatch, cfg, 6, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="zero channel vector is trivial and rejected"):
            run_trials(cfg)

    def test_parallel_result_is_identical(self):
        cfg = TrialConfig(mode="rate_avg", n=3, snr_db=10.0, trials=64, seed=8)
        serial = run_trials(cfg, parallel=1)
        twice = run_trials(cfg, parallel=1)
        pooled = run_trials(cfg, parallel=2)
        assert serial.result == twice.result == pooled.result

    @pytest.mark.parametrize("parallel", [0, -2, True, 2.5, "2"])
    def test_rejects_unusable_parallel(self, parallel):
        cfg = TrialConfig(mode="e1_freq", n=2, snr_db=0.0, trials=4, seed=1)
        with pytest.raises(ValueError, match="parallel"):
            run_trials(cfg, parallel=parallel)

    @staticmethod
    def _recording_pool(monkeypatch, cpus):
        """The worker counts asked of the pool on ``cpus`` usable CPUs; a
        recorder stands in for the pool, so no worker process starts."""
        requested = []

        class RecordingPool(_InlinePool):
            def __init__(self, max_workers):
                requested.append(max_workers)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        return requested

    def test_pool_stops_at_the_first_error(self, monkeypatch):
        # 16 one-trial chunks on 2 forked workers: chunk 0 raises at once and
        # each other chunk sleeps 1 s, so draining them all would take about
        # 8 s; only the chunks already handed to a worker still run
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(bench, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=fork))
        monkeypatch.setattr(bench, "_run_chunk", _fail_first_chunk)
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = TrialConfig(mode="e1_freq", n=2, snr_db=0.0, trials=16, seed=1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="chunk 0 failed"):
            run_trials(cfg, parallel=2)
        assert time.perf_counter() - start < 4.0

    def test_pool_raises_the_first_chunk_error_in_trial_order(self, monkeypatch):
        # chunk 0 raises after 0.5 s and chunk 1 at once: the run raises chunk
        # 0's error, as a serial run does, whichever chunk fails first
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(bench, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=fork))
        monkeypatch.setattr(bench, "_run_chunk", _fail_two_chunks)
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = TrialConfig(mode="e1_freq", n=2, snr_db=0.0, trials=16, seed=1)
        with pytest.raises(ValueError, match="chunk 0 failed"):
            run_trials(cfg, parallel=2)

    def test_pool_never_outnumbers_trials(self, monkeypatch):
        requested = self._recording_pool(monkeypatch, cpus=1000)
        cfg = TrialConfig(mode="rate_avg", n=3, snr_db=10.0, trials=3, seed=8)
        capped = run_trials(cfg, parallel=64)
        run_trials(TrialConfig(mode="e1_freq", n=2, snr_db=0.0, trials=40, seed=8), parallel=2)
        assert requested == [3, 2]
        assert capped.result == run_trials(cfg, parallel=1).result

    def test_pool_never_outnumbers_cpus(self, monkeypatch):
        # 400 chunks of one trial each, on 3 usable CPUs
        requested = self._recording_pool(monkeypatch, cpus=3)
        cfg = TrialConfig(mode="e1_freq", n=2, snr_db=0.0, trials=400, seed=8)
        capped = run_trials(cfg, parallel=50_000)
        assert requested == [3]
        assert capped.result == run_trials(cfg, parallel=1).result
        # where affinity is unknown, the CPU count rules, and an unknown one means 1
        monkeypatch.delattr(bench.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: None)
        run_trials(cfg, parallel=4)
        assert requested == [3, 1]


def _fail_first_chunk(args):
    """A stand-in for ``bench._run_chunk``: the chunk from trial 0 raises, the others sleep 1 s."""
    if args[-2] == 0:
        raise ValueError("chunk 0 failed")
    time.sleep(1.0)
    return []


def _fail_two_chunks(args):
    """A stand-in for ``bench._run_chunk``: the chunk from trial 0 raises
    after 0.5 s, the chunk from trial 1 at once, the others sleep 1 s."""
    if args[-2] == 1:
        raise ZeroDivisionError("chunk 1 failed")
    time.sleep(0.5 if args[-2] == 0 else 1.0)
    if args[-2] == 0:
        raise ValueError("chunk 0 failed")
    return []


class _InlinePool:
    """Stands in for ``ProcessPoolExecutor``; runs the chunks in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _assert_same_rates(h, P):
    """``_rate`` of each chunk denominator of the rows ``h`` is the
    ``computation_rate`` of its candidate, or both raise the same error; a
    zero quantized candidate's denominator is ``+inf``."""
    t_raw, hnorm2 = _scale_rows(h, P)
    denominators = bench._dominance_denominators(h, P, hnorm2, t_raw)
    n = h.shape[1]
    assert denominators.shape == (len(h), n + 4)
    for row, t_row, forms in zip(h, t_raw, denominators.tolist()):
        zero = [not np.rint(c * t_row).any() for c in range(1, 5)]
        assert [form == math.inf for form in forms[n:]] == zero
        ch = ChannelInstance(h=row, P=P)
        candidates = dominance_candidates(ch)
        kept = [form for form, is_zero in zip(forms, [False] * n + zero) if not is_zero]
        assert len(kept) == len(candidates)
        for denom, a in zip(kept, candidates):
            try:
                rate = computation_rate(ch, a)
            except NumericDegeneracyError as exc:
                with pytest.raises(NumericDegeneracyError, match=re.escape(str(exc))):
                    bench._rate(denom)
            else:
                assert bench._rate(denom) == rate


def _public_rows(cfg, skip=()):
    """Each trial's ``per_trial`` row, and the dominance violations, from
    public calls; the trials in ``skip`` are left out."""
    rows, violations = [], 0
    for j in range(cfg.trials):
        if j in skip:
            continue
        ch = ChannelInstance(h=sample_channel(cfg.n, trial_rng(cfg.seed, j)), P=cfg.P)
        if cfg.mode == "e1_freq":
            rows.append({"trial": j, "hit": int(e1_is_optimal(ScaledChannel.from_channel(ch)))})
        elif cfg.mode == "node_ratio":
            nodes = count_visited_nodes(ScaledChannel.from_channel(ch))
            norm = cfg.n * math.sqrt(1.0 + cfg.P * float(np.dot(ch.h, ch.h)))
            rows.append({"trial": j, "nodes": nodes, "ratio": nodes / norm})
        elif cfg.mode == "list":
            entries = list_solve(ch, cfg.list_size)
            rows.append({"trial": j, "length": len(entries), "top_rate": entries[0][1] if entries else 0.0})
        else:
            out = solve(ch)
            if cfg.mode == "rate_avg":
                rows.append({"trial": j, "rate": out.rate})
                violations += dominance_violations(ch, out.rate)
            else:
                rows.append({"trial": j, "rate": out.rate, "nodes": out.nodes_visited,
                             "shortcut": int(out.used_shortcut)})
    return rows, violations


def _expected_result(cfg, rows, violations, degenerate=()):
    """The ``result`` of a run whose kept ``per_trial`` rows are ``rows``:
    each mean is ``math.fsum`` over the rows in trial order."""

    def mean(name):
        return math.fsum(row[name] for row in rows) / len(rows)

    result = {"degenerate_trials": list(degenerate)}
    if cfg.mode == "e1_freq":
        result.update(e1_fraction=mean("hit"), hits=sum(row["hit"] for row in rows))
    elif cfg.mode == "node_ratio":
        result.update(node_ratio_avg=mean("ratio"), node_ratio_max=max(row["ratio"] for row in rows),
                      nodes_avg=mean("nodes"))
    elif cfg.mode == "rate_avg":
        result.update(rate_avg=mean("rate"), dominance_violations=violations)
    elif cfg.mode == "list":
        result.update(list_len_avg=mean("length"), top_rate_avg=mean("top_rate"),
                      short_lists=sum(row["length"] < cfg.list_size for row in rows))
    else:
        result.update(rate_avg=mean("rate"), nodes_avg=mean("nodes"), e1_fraction=mean("shortcut"))
    return result


class TestChunkedTrials:
    """``run_trials`` builds each chunk of trials as 2-D arrays; every
    ``per_trial`` row must still equal the public per-trial calls exactly."""

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize("mode, n, snr_db, trials", [
        ("e1_freq", 2, 0.0, 1),
        ("e1_freq", 3, 0.0, 29),
        ("e1_freq", 200, 10.0, 19),
        ("node_ratio", 5, 10.0, 37),
        ("node_ratio", 150, 0.0, 11),
        ("rate_avg", 8, 20.0, 45),
        ("rate_avg", 140, 20.0, 10),
        ("solve", 1, 10.0, 19),
        ("solve", 130, 30.0, 21),
        ("list", 3, 10.0, 23),
        ("list", 3, 0.0, 23),
    ])
    def test_rows_match_public_calls(self, mode, n, snr_db, trials, parallel):
        # a serial run is one chunk; on two workers the chunks hold
        # max(1, trials // 16) trials, so 37 and 45 end in a shorter chunk;
        # n >= 128 reaches the walk's numpy opening scan
        cfg = TrialConfig(mode=mode, n=n, snr_db=snr_db, trials=trials, seed=31 + n,
                          list_size=4 if mode == "list" else None)
        report = run_trials(cfg, parallel=parallel, keep_per_trial=True)
        rows, violations = _public_rows(cfg)
        assert list(report.per_trial) == rows
        assert report.result == _expected_result(cfg, rows, violations)


    @pytest.mark.parametrize("parallel", [1, 2])
    def test_pinned_list_result(self, parallel):
        # frozen before list mode shared the chunk builder of the other
        # modes; the chunk's rows now share their steps with list_solve, so
        # test_rows_match_public_calls alone would not see a change in both
        cfg = TrialConfig(mode="list", n=6, snr_db=20.0, trials=64, seed=5, list_size=4)
        report = run_trials(cfg, parallel=parallel)
        assert json.dumps(report.result, sort_keys=True) == (
            '{"degenerate_trials": [], "list_len_avg": 4.0, "short_lists": 0, '
            '"top_rate_avg": 1.1468810402170517}'
        )

    @pytest.mark.parametrize("entries, rows", [(40, 5), (4, 1)])
    @pytest.mark.parametrize("mode", ["e1_freq", "rate_avg", "list"])
    def test_chunk_entries_are_capped(self, monkeypatch, mode, entries, rows):
        # a serial run of 61 trials would be one chunk of 61 rows; a cap of
        # `entries` channel entries at n = 7 allows `rows`, and at least one
        cfg = TrialConfig(mode=mode, n=7, snr_db=10.0, trials=61, seed=4,
                          list_size=3 if mode == "list" else None)
        real, sizes = bench._run_chunk, []

        def recording(args):
            sizes.append(args[-1] - args[-2])
            return real(args)

        monkeypatch.setattr(bench, "_run_chunk", recording)
        monkeypatch.setattr(bench, "_CHUNK_ENTRIES", entries)
        report = run_trials(cfg, keep_per_trial=True)
        assert max(sizes) == rows and sum(sizes) == cfg.trials
        assert list(report.per_trial) == _public_rows(cfg)[0]


    def test_chunk_sizes(self, monkeypatch):
        # a serial run is one chunk, capped at _CHUNK_ENTRIES // n rows; the
        # pool (run inline here) gets chunks of trials // (parallel * 8) rows
        real, sizes = bench._run_chunk, []

        def recording(args):
            sizes.append(args[-1] - args[-2])
            return real(args)

        monkeypatch.setattr(bench, "_run_chunk", recording)
        monkeypatch.setattr(bench, "ProcessPoolExecutor", _InlinePool)
        cfg = TrialConfig(mode="e1_freq", n=7, snr_db=10.0, trials=61, seed=4)
        reference = run_trials(cfg).result
        assert sizes == [61]
        sizes.clear()
        assert run_trials(cfg, parallel=2).result == reference
        assert sizes == [3] * 20 + [1]
        sizes.clear()
        monkeypatch.setattr(bench, "_CHUNK_ENTRIES", 40)
        assert run_trials(cfg).result == reference
        assert sizes == [5] * 12 + [1]


class TestDominanceDenominators:
    """Each chunk denominator gives the rate ``computation_rate`` gives its
    candidate.  ``test_rows_match_public_calls`` compares the chunk's counts
    with ``computation_rate``'s; this checks every candidate's rate."""

    @pytest.mark.parametrize("n", [2, 3, 8, 33, 300])
    @pytest.mark.parametrize("kind", ["gaussian", "integer", "tiny"])
    def test_rates_match_computation_rate(self, kind, n):
        rng = np.random.default_rng(n)
        h = rng.standard_normal((3 if n == 300 else 12, n))
        if kind == "integer":
            h = np.rint(3.0 * h)
            h[~h.any(axis=1), 0] = 1.0
        elif kind == "tiny":
            h *= 1e-100
        for snr_db in (0.0, 10.0, 20.0, 40.0, 60.0):
            _assert_same_rates(h, 10.0 ** (snr_db / 10.0))

    def test_degenerate_candidate(self):
        # the candidate [3, 0] of this channel cancels to 0.0 at 0 dB
        h = np.array([[91329529.0, 0.0]])
        with pytest.raises(NumericDegeneracyError):
            computation_rate(ChannelInstance(h=h[0], P=1.0), [3, 0])
        _assert_same_rates(h, 1.0)


def _ulps(x, k):
    """``x`` and its ``k`` nearest floats on either side."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = float(np.nextafter(lo, 0.0)), float(np.nextafter(hi, math.inf))
        out += [lo, hi]
    return out


class TestDominanceCounts:
    """``_dominance_counts`` decides most rows from a form threshold; every
    count and error must be those of the scalar ``_rate`` test on each
    candidate in order."""

    @staticmethod
    def _assert_counts(rows, rates):
        width = max(map(len, rows))
        denominators = np.array([row + [math.inf] * (width - len(row)) for row in rows])
        errors = [None] * len(rows)
        counts = bench._dominance_counts(denominators, list(rates), errors)
        for row, rate, count, err in zip(rows, rates, counts, errors):
            try:
                expected = sum(bench._rate(d) > rate + 1e-9 for d in row)
            except NumericDegeneracyError as exc:
                assert err == str(exc)
            else:
                assert (count, err) == (expected, None)
        return counts

    def test_candidates_around_the_threshold(self, monkeypatch):
        rows, rates = [], []
        for rate in (0.0, 1e-12, 0.3, 1.7, 12.5, 300.0, 510.0, 530.0):
            beat = 2.0 ** (-2 * (rate + 1e-9))
            # the threshold, the forms whose rate is rate + 1e-9, and 1
            for centre in (min(1.0, beat * (1 + 2.0**-20)), beat, 1.0):
                rows.append(_ulps(centre, 4))
                rates.append(rate)
        counts = self._assert_counts(rows, rates)
        assert any(counts) and not all(counts)
        # only the candidates below the threshold take a _rate call
        rate = 1.7
        limit = 2.0 ** (-2 * (rate + 1e-9)) * (1 + 2.0**-20)
        rated = []
        monkeypatch.setattr(bench, "_rate", lambda denom: rated.append(denom) or 0.0)
        counts = bench._dominance_counts(np.array([[limit, 2.0, limit / 2, math.inf]]), [rate], [None])
        assert counts == [0] and rated == [limit / 2]

    def test_subnormal_threshold(self):
        # 2**(-2*(rate + 1e-9)) is 16383.4 steps of the smallest subnormal,
        # and times (1 + 2**-20) rounds down to the form d of 16383 steps, whose
        # rate beats: the threshold's floor sends the row to the scalar test
        d = 16383 * 5e-324
        rate = -0.5 * (math.log2(16383.4) - 1074) - 1e-9
        assert 2.0 ** (-2 * (rate + 1e-9)) * (1 + 2.0**-20) == d
        assert self._assert_counts([[d, 1.0]], [rate]) == [1]

    def test_degenerate_and_infinite_candidates(self):
        rate = 0.8
        beating = 2.0 ** (-2 * rate) / 2
        rows = [
            [beating, 0.0, beating],  # counts one, then raises on 0.0
            [0.5, -1.0],
            [math.nan, beating],
            [math.inf] * 6,
            [beating, math.inf, beating],
        ]
        counts = self._assert_counts(rows, [rate] * len(rows))
        assert counts[3:] == [0, 2]

    def test_rows_with_an_error_are_skipped(self):
        denominators = np.array([[0.0, 0.1], [0.1, 0.2]])
        errors = ["int64", None]
        assert bench._dominance_counts(denominators, [math.nan, 0.0], errors) == [0, 2]
        assert errors == ["int64", None]


_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1]

# chunks at the start, in the middle, across the two-word trial index 2**32,
# and beyond 2**33
_SPANS = [(0, 4), (13, 29), (2**32 - 3, 2**32 + 3), (2**33 + 7, 2**33 + 10)]


def _public_draws(seed, lo, hi, n):
    return np.stack([sample_channel(n, trial_rng(seed, j)) for j in range(lo, hi)])


def _draws_by_form(seed, lo, hi, n):
    """``bench._draw_rows`` by the compiled draw, where it loads, and by the Python loop."""
    compiled = bench._draw_rows(seed, lo, hi, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_drawer", None)
        return compiled, bench._draw_rows(seed, lo, hi, n)


def _public_seed_words(seed, lo, hi):
    return np.stack([np.random.SeedSequence([seed, j]).generate_state(4, np.uint64)
                     for j in range(lo, hi)])


class TestChunkDrawer:
    """A chunk seeds all its trials in one vectorized pass; its draws, by the
    compiled draw (``cfcoef._native``) and by the Python loop, must be bit
    for bit those of the public ``trial_rng`` streams.  CI requires the
    compiled draw to load, so that these check two forms."""

    @pytest.mark.parametrize("n", [1, 8, 1000])
    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_rows_match_trial_rng(self, seed, n):
        for lo, hi in _SPANS:
            want = _public_draws(seed, lo, hi, n).view(np.uint64)
            for rows in _draws_by_form(seed, lo, hi, n):
                assert rows.shape == (hi - lo, n) and rows.dtype == np.float64
                np.testing.assert_array_equal(rows.view(np.uint64), want)

    def test_a_million_entries_match_trial_rng(self):
        # about 7 draws in 1,000 leave the ziggurat's fast path for its
        # wedge or its tail, which read next_double
        seed, n = 2**63 + 12345, 1000
        np.testing.assert_array_equal(bench._draw_rows(seed, 0, 1000, n).view(np.uint64),
                                      _public_draws(seed, 0, 1000, n).view(np.uint64))

    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        for lo, hi in _SPANS:
            words = bench._seed_words(seed, lo, hi)
            assert words.dtype == np.uint64
            np.testing.assert_array_equal(words, _public_seed_words(seed, lo, hi))

    def test_seed_words_answer_pcg64_alone(self):
        words = np.ascontiguousarray(bench._seed_words(3, 0, 2))
        seq = bench._SeedWords(words[1])
        np.testing.assert_array_equal(seq.generate_state(4, np.uint64), words[1])
        drawn = np.random.Generator(np.random.PCG64(seq)).standard_normal(5)
        np.testing.assert_array_equal(drawn, sample_channel(5, trial_rng(3, 1)))
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64), (4, np.int64)):
            with pytest.raises(ValueError, match="4 uint64 seed words"):
                seq.generate_state(n_words, dtype)
        with pytest.raises(ValueError, match="4 uint64 seed words"):
            seq.generate_state(4)
        with pytest.raises(ValueError, match="4 uint64 seed words"):
            np.random.MT19937(seq)

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(1, 5), st.integers(1, 9))
    def test_any_seed_and_trial(self, seed, lo, m, n):
        np.testing.assert_array_equal(bench._seed_words(seed, lo, lo + m),
                                      _public_seed_words(seed, lo, lo + m))
        want = _public_draws(seed, lo, lo + m, n).view(np.uint64)
        for rows in _draws_by_form(seed, lo, lo + m, n):
            np.testing.assert_array_equal(rows.view(np.uint64), want)

    @pytest.mark.parametrize("broken", ["missing archive", "link error", "missing compiler"])
    def test_fallback_when_the_draw_cannot_be_built(self, monkeypatch, tmp_path, broken):
        compiler, archive = _native._COMPILER, tmp_path / "libnpyrandom.a"
        if broken == "link error":
            archive.write_text("not an archive")
        elif broken == "missing compiler":
            compiler, archive = str(tmp_path / "no-such-cc"), _native._npyrandom()
        configs = [TrialConfig(mode=mode, n=6, snr_db=20.0, trials=40, seed=3,
                               list_size=4 if mode == "list" else None) for mode in bench.MODES]
        expected = [_dump(run_trials(cfg, parallel=p, keep_per_trial=True)) for cfg in configs for p in (1, 2)]
        monkeypatch.setattr(_native, "_COMPILER", compiler)
        monkeypatch.setattr(_native, "_CACHE", tmp_path / "cache")
        monkeypatch.setattr(_native, "_npyrandom", lambda: archive)
        monkeypatch.setattr(_native, "_drawer", _native._UNLOADED)
        assert _native.drawer() is None
        assert [_dump(run_trials(cfg, parallel=p, keep_per_trial=True))
                for cfg in configs for p in (1, 2)] == expected
        assert list(tmp_path.rglob("_draw.*")) == []

    @pytest.mark.parametrize("broken", ["draw", "walk"])
    def test_one_failed_build_leaves_the_other(self, monkeypatch, tmp_path, broken):
        # the walk and the draw are two libraries in one cache
        if _native.walker() is None or _native.drawer() is None:
            pytest.skip("the compiled walk and draw do not both load here")
        if broken == "draw":
            (tmp_path / "bad.a").write_text("not an archive")
            monkeypatch.setattr(_native, "_npyrandom", lambda: tmp_path / "bad.a")
        else:
            # one missing symbol fails the whole walk library
            stem, symbols = _native._WALK
            monkeypatch.setattr(_native, "_WALK", (stem, {**symbols, "cf_no_such_symbol": (None, ())}))
        monkeypatch.setattr(_native, "_CACHE", tmp_path / "cache")
        monkeypatch.setattr(_native, "_walker", _native._UNLOADED)
        monkeypatch.setattr(_native, "_drawer", _native._UNLOADED)
        assert (_native.walker() is None, _native.drawer() is None) == (broken == "walk", broken == "draw")
        assert list((tmp_path / "cache").glob("*.tmp")) == []


class TestEmitReport:
    def make_report(self, **kw):
        cfg = TrialConfig(mode=kw.pop("mode", "e1_freq"), n=2, snr_db=0.0,
                          trials=kw.pop("trials", 30), seed=9)
        return run_trials(cfg, **kw)

    def test_jsonl_schema(self):
        report = self.make_report()
        head = json.loads(emit_report(report).splitlines()[0])
        assert {"mode", "n", "snr_db", "trials", "seed", "result", "wall_time"} <= set(head)
        assert head["result"]["hits"] == report.result["hits"]

    def test_jsonl_per_trial_rows(self):
        report = self.make_report(keep_per_trial=True)
        lines = emit_report(report).splitlines()
        assert len(lines) == 1 + 30

    def test_byte_stability(self):
        report = self.make_report()
        assert emit_report(report) == emit_report(report)
        again = self.make_report()
        first = json.loads(emit_report(report).splitlines()[0])
        second = json.loads(emit_report(again).splitlines()[0])
        assert first["result"] == second["result"]

    def test_csv_round_trip(self):
        report = self.make_report()
        text = emit_report(report, fmt="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0][:7] == ["mode", "n", "snr_db", "trials", "seed", "list_size", "wall_time"]
        record = {k: json.loads(v) for k, v in zip(rows[0], rows[1])}
        assert record["result.e1_fraction"] == report.result["e1_fraction"]
        assert record["trials"] == 30
        assert record["result.degenerate_trials"] == []

    def test_csv_refuses_per_trial(self):
        report = self.make_report(keep_per_trial=True)
        with pytest.raises(ValueError):
            emit_report(report, fmt="csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.make_report(), fmt="xml")


class TestCli:
    def test_solve_inline(self, capsys):
        snr = 10.0 * math.log10(3.0)
        assert main(["solve", "--h", "1 0", "--snr-db", str(snr)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["rate"] == pytest.approx(1.0, rel=1e-9)
        assert [abs(x) for x in record["a"]] == [1, 0]

    def test_solve_from_file(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("3.0 4.0\n")
        assert main(["solve", "--h-file", str(path), "--snr-db", "0"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["h"] == [3.0, 4.0]

    def test_solve_random_channel(self, capsys):
        assert main(["solve", "--n", "4", "--seed", "11", "--snr-db", "10"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert len(record["h"]) == 4
        assert record["rate"] >= 0.0

    def test_list_subcommand(self, capsys):
        assert main(["list", "--h", "1 0.1", "--snr-db", "10", "--l", "3"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["l"] == 3
        rates = [e["rate"] for e in record["entries"]]
        assert rates == sorted(rates, reverse=True)

    def test_bench_to_file(self, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main([
            "bench", "--mode", "e1_freq", "--n", "2", "--snr-db", "0",
            "--trials", "50", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        head = json.loads(out.read_text().splitlines()[0])
        assert head["trials"] == 50

    def test_bench_per_trial_rows(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        code = main([
            "bench", "--mode", "node_ratio", "--n", "2", "--snr-db", "0",
            "--trials", "12", "--seed", "1", "--per-trial", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 13
        assert json.loads(lines[1])["trial"] == 0

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "bench", "--mode", "rate_avg", "--n", "2", "--snr-db", "0",
            "--trials", "20", "--seed", "1", "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0][0] == "mode"

    def test_bench_solve_mode(self, capsys):
        code = main([
            "bench", "--mode", "solve", "--n", "4", "--snr-db", "0",
            "--trials", "30", "--seed", "5",
        ])
        assert code == 0
        head = json.loads(capsys.readouterr().out.splitlines()[0])
        assert head["mode"] == "solve"
        cfg = TrialConfig(mode="solve", n=4, snr_db=0.0, trials=30, seed=5)
        assert head["result"] == json.loads(json.dumps(run_trials(cfg).result))

    def test_bench_list_mode_requires_l(self, capsys):
        code = main([
            "bench", "--mode", "list", "--n", "2", "--snr-db", "0",
            "--trials", "5", "--seed", "1",
        ])
        assert code == 2
        assert "list_size" in capsys.readouterr().err

    def test_oracle_check_passes(self, capsys):
        code = main([
            "oracle-check", "--n", "3", "--snr-db", "10", "--trials", "25", "--seed", "2",
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mismatches"] == []
        assert record["checked"] + record["refused"] == 25

    def test_oracle_check_fails_when_nothing_was_checked(self, capsys):
        # at n=6, 30 dB the brute-force oracle refuses every instance
        argv = ["oracle-check", "--n", "6", "--snr-db", "30", "--trials", "20", "--seed", "7"]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().out)
        assert (record["checked"], record["refused"], record["mismatches"]) == (0, 20, [])

    def test_oracle_check_reports_a_mismatch(self, monkeypatch, capsys):
        # the search's answer on the fifth instance, trial 4, is made worse
        import cfcoef.cli as cli

        real, calls = cli.modified_search, []

        def worse(sc):
            calls.append(sc)
            found = real(sc)
            return replace(found, objective=found.objective + 0.25) if len(calls) == 5 else found

        monkeypatch.setattr(cli, "modified_search", worse)
        argv = ["oracle-check", "--n", "3", "--snr-db", "10", "--trials", "6", "--seed", "2"]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().out)
        assert (record["checked"], record["refused"]) == (6, 0)
        [mismatch] = record["mismatches"]
        assert mismatch["trial"] == 4
        assert mismatch["search"] == pytest.approx(mismatch["oracle"] + 0.25, rel=1e-12)

    @pytest.mark.parametrize("n, trials", [("3", "0"), ("3", "-4"), ("0", "5"), ("0", "0")])
    def test_oracle_check_rejects_an_empty_sweep(self, n, trials, capsys):
        argv = ["oracle-check", "--n", n, "--snr-db", "10", "--trials", trials]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["solve", "--h", "1 2"],
        ["list", "--h", "1 2", "--l", "2"],
        ["bench", "--mode", "solve", "--n", "2", "--trials", "1"],
        ["oracle-check", "--n", "2", "--trials", "1"],
    ])
    @pytest.mark.parametrize("snr_db", ["4000", "-4000", "nan", "-inf"])
    def test_unusable_snr_is_an_error(self, argv, snr_db, capsys):
        assert main(argv + [f"--snr-db={snr_db}"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [["solve"], ["list", "--l", "2"]])
    def test_overflowing_channel_is_an_error(self, argv, capsys):
        # at 3070 dB only the builder's tail sums overflow
        for h, snr_db in (("1e200 1e200", "0"), (" ".join(map(repr, FLOAT_LIMIT_H)), "3070")):
            assert main(argv + ["--h", h, "--snr-db", snr_db]) == 2
            assert capsys.readouterr().err.startswith("error: P*||h||^2 is not finite")

    @pytest.mark.parametrize("argv", [["solve"], ["list", "--l", "2"]])
    def test_degenerate_channel_is_an_error(self, argv, capsys):
        # at 600 dB the rate's quadratic form evaluates to 0.0
        assert main(argv + ["--h", "1 1", "--snr-db", "600"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: quadratic form evaluated to 0.0")

    @pytest.mark.parametrize("argv", [["solve"], ["solve", "--no-shortcut"], ["list", "--l", "4"]])
    def test_coefficient_beyond_int64_is_an_error(self, argv, capsys):
        h = " ".join(map(repr, WIDE_H))
        assert main(argv + ["--h", h, "--snr-db", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not fit in int64" in captured.err

    def test_per_trial_csv_is_rejected_before_any_trial(self, monkeypatch, capsys):
        import cfcoef.cli as cli

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trials", no_trials)
        argv = ["bench", "--mode", "rate_avg", "--n", "8", "--snr-db", "10", "--trials", "4000",
                "--format", "csv", "--per-trial"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: per-trial rows are only supported by json-lines\n"

    @pytest.mark.parametrize("parallel", ["0", "-2"])
    def test_unusable_parallel_is_an_error(self, parallel, capsys):
        argv = ["bench", "--mode", "e1_freq", "--n", "2", "--snr-db", "0", "--trials", "3"]
        assert main(argv + [f"--parallel={parallel}"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unusable_list_size_is_an_error(self, capsys):
        argv = ["bench", "--mode", "e1_freq", "--n", "4", "--snr-db", "1", "--trials", "3", "--l", "-5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: list_size must be at least 1")

    def test_missing_channel_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["solve", "--snr-db", "10"])


class TestNodeRatioMeter:
    def test_node_ratio_uses_visited_counter(self):
        from cfcoef import ChannelInstance, ScaledChannel, count_visited_nodes

        cfg = TrialConfig(mode="node_ratio", n=4, snr_db=0.0, trials=6, seed=21)
        report = run_trials(cfg, keep_per_trial=True)
        for row in report.per_trial:
            h = sample_channel(4, trial_rng(21, row["trial"]))
            sc = ScaledChannel.from_channel(ChannelInstance(h=h, P=1.0))
            assert row["nodes"] == count_visited_nodes(sc)


def _dump(report) -> str:
    return json.dumps([report.result, report.per_trial], sort_keys=True)


class TestCompiledWalk:
    """The chunk walk's compiled form (``cfcoef._native``) against the Python
    walk; CI requires it to load, so that these compare two forms."""

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize("mode, n, snr_db", [
        ("solve", 1, 10.0),
        ("solve", 8, 20.0),
        ("solve", 130, 30.0),
        ("list", 6, 20.0),
        ("e1_freq", 8, 10.0),
        ("node_ratio", 4, 0.0),
        ("node_ratio", 140, 10.0),
        ("rate_avg", 8, 20.0),
        ("rate_avg", 40, 40.0),
    ])
    def test_reports_match_the_python_walk(self, monkeypatch, mode, n, snr_db, parallel):
        cfg = TrialConfig(mode=mode, n=n, snr_db=snr_db, trials=70, seed=17 + n,
                          list_size=4 if mode == "list" else None)
        native = _dump(run_trials(cfg, parallel=parallel, keep_per_trial=True))
        monkeypatch.setattr(_native, "_walker", None)
        assert _dump(run_trials(cfg, parallel=parallel, keep_per_trial=True)) == native

    @pytest.mark.parametrize("n, snr_db, modes", [
        (8, 30.0, (True, False)), (6, 40.0, (True, False)), (16, 40.0, (True,)),
    ])
    def test_gaussian_chunks_match_the_python_walk(self, n, snr_db, modes):
        # about one walk in 2,000 here forms a square whose libm pow and x*x
        # differ in the last bit, so a build that lets the compiler fold
        # pow(x, 2.0) into x*x fails here
        h = bench._draw_rows(5, 0, 2000, n)
        _, _, t, _, _, f, q = _channel_rows(h, 10.0 ** (snr_db / 10.0))
        for shrink in modes:
            assert_walks_match(t, f, q, shrink)

    @pytest.mark.parametrize("t_raw", [
        [0.84, 0.5257142857142859],
        [0.75, 0.5, 0.375],
        [0.75, 0.4375, 0.4375],
        [0.875, 0.3125, 0.3125, 0.1875],
    ])
    def test_tied_centres_match_the_python_walk(self, t_raw):
        # exact .5 centres, which the walk rounds toward zero: in the opening
        # climb (the first row) and in the main loop (the others)
        sc = scaled_from_t(t_raw)
        for shrink in (True, False):
            assert_walks_match(sc.t[None], sc.f[None], sc.q[None], shrink)

    def test_integer_centre_steps_up_first(self):
        # a hand-made row with integer centres: there the zig-zag tries the
        # centre + 1 before the centre - 1, and on this row that order
        # decides which of two vectors of equal objective is the incumbent
        t, f, q = np.array([[3.0, 1.5, 1.0, 1.0]]), np.ones((1, 5)), np.array([[0.87, 0.19, 0.34, 0.16]])
        assert_walks_match(t, f, q, shrink=True)

    @pytest.mark.parametrize("t0, q1", [(1.3794676827539902, 0.856004277745317),
                                        (1.4010717752718165, 0.8391414310803135)])
    def test_opening_squares_like_python(self, t0, q1):
        # hand-made rows on which the opening climb's test at level 1,
        # q[1] + q[0]*(1 - t[0])**2 < q[0], comes out one way with libm pow
        # and the other with (1 - t[0])*(1 - t[0])
        t, f, q = np.array([[t0, 1.0]]), np.array([[1.0, 1.0, 1.0]]), np.array([[1.0, q1]])
        assert (q1 + (1.0 - t0) ** 2 < 1.0) != (q1 + (1.0 - t0) * (1.0 - t0) < 1.0)
        for shrink in (True, False):
            assert_walks_match(t, f, q, shrink)

    @pytest.mark.parametrize("t, f, q, error", [
        # the opening climb hands over at level 1 and never reads level 2;
        # the walk later steps a[2] to 1 and descends to a centre
        # t[1]*t[2]/f[2] that is not finite
        ([0.6, 0.5, 0.4], [1.0, 0.9, 0.0, 0.0], [0.9, 0.1, 0.1], ZeroDivisionError),
        ([0.6, 0.5, 0.4], [1.0, 0.9, 5e-324, 5e-324], [0.9, 0.1, 0.1], OverflowError),
        ([0.6, 0.5, math.nan], [1.0, 0.9, 0.5, 0.5], [0.9, 0.1, 0.1], ValueError),
        # the opening climb's own centre at level 1 is infinite
        ([0.6, 0.5, 0.4], [1.0, 5e-324, 0.5, 0.5], [0.9, 0.5, 0.95], OverflowError),
    ])
    def test_hand_back_keeps_python_errors(self, t, f, q, error):
        # hand-made rows, where the Python walk raises: the compiled walk
        # must hand them back, so that the same error is raised
        t, f, q = np.array([t]), np.array([f]), np.array([q])
        with pytest.raises(error):
            search._constrained_walk(t[0], f[0], q[0], True)
        with pytest.raises(error):
            search._walk_rows(t, f, q, [0], shrink=True)

    @pytest.mark.parametrize("shrink", [True, False])
    def test_hand_back_at_two_to_the_53_in_the_zig_zag(self, shrink):
        # a hand-made row whose level 1 zig-zags around the centre 2**53 - 6
        # and reaches 2**53 on its sixth step, past which a double cannot
        # hold every integer (2**53 + 1 rounds to 2**53): the compiled walk
        # hands the row back, and the counts agree
        f2 = 0.25 / (2.0**53 - 6)
        t, f, q = np.array([[1e-20, 0.5, 0.5]]), np.array([[1.0, 1.0, f2, f2]]), np.array([[1.0, 0.01, 0.3]])
        assert_walks_match(t, f, q, shrink)

    def test_hand_back_beyond_two_to_the_53(self, monkeypatch):
        # WIDE_H's walk at 10 dB reaches entries beyond 2**53 (its optimum is
        # beyond int64): the compiled walk hands that row back to the Python
        # walk, and walks the other row itself
        h = np.array([WIDE_H, sample_channel(5, trial_rng(3, 0))])
        _, _, t, _, _, f, q = _channel_rows(h, 10.0)
        real, calls = search._constrained_walk, []

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(search, "_constrained_walk", recording)
        best, moved, nodes, last, wide = search._walk_rows(t, f, q, [0, 1], shrink=True)
        assert len(calls) == (1 if _native.walker() is not None else 2)
        refs = [real(t[r], f[r], q[r], True) for r in range(2)]
        for r, (_, incumbents, tests) in enumerate(refs):
            assert moved[r] and (last[r], nodes[r]) == (incumbents[-1], tests)
        # row 0's best is beyond int64: it carries solve's int64 error instead
        assert max(refs[0][0]) > 2**63 and best[0].tolist() == [0] * 5
        assert list(wide) == [0] and "does not fit in int64" in wide[0]
        assert best[1].tolist() == refs[1][0]
        # and the chunk records solve's int64 error with either form
        cfg = TrialConfig(mode="solve", n=5, snr_db=10.0, trials=6, seed=7)
        TestRunTrials._replace_trial(monkeypatch, cfg, 2, WIDE_H)
        native = _dump(run_trials(cfg, keep_per_trial=True))
        assert json.loads(native)[0]["degenerate_trials"] == [2]
        monkeypatch.setattr(_native, "_walker", None)
        assert _dump(run_trials(cfg, keep_per_trial=True)) == native

    def test_a_new_build_prunes_the_stale_libraries(self, tmp_path):
        # a walk library of another source goes; the draw's library and a
        # build still in flight stay
        cache = tmp_path / "cache"
        cache.mkdir()
        kept = ["_draw.0123456789abcdef.so", "_walk.k2x9q7.tmp"]
        for name in ["_walk.0123456789abcdef.so", *kept]:
            (cache / name).write_text("")
        if _native._load(_native._COMPILER, cache, *_native._WALK) is None:
            pytest.skip("the compiled walk does not build here")
        built = [path.name for path in cache.glob("_walk.*.so")]
        assert len(built) == 1 and built[0] != "_walk.0123456789abcdef.so"
        assert sorted(path.name for path in cache.iterdir()) == sorted(built + kept)

    @pytest.mark.parametrize("rows, shapes", [
        ([2], ((2, 3), (2, 4), (2, 3))),
        ([-1], ((2, 3), (2, 4), (2, 3))),
        ([0], ((2, 3), (2, 3), (2, 3))),
        ([0], ((2, 3), (2, 4), (1, 3))),
    ])
    def test_rows_and_shapes_are_checked(self, rows, shapes):
        # the compiled walk reads the rows through raw pointers
        t, f, q = (np.full(shape, 0.5) for shape in shapes)
        with pytest.raises(ValueError, match="rows"):
            search._walk_rows(t, f, q, rows, shrink=True)

    def test_strided_rows_are_read_as_listed(self):
        # a reversed or strided view of row indices is walked row by row as
        # listed, not read from the view's memory as if it were contiguous
        h = bench._draw_rows(9, 0, 12, 6)
        _, _, t, _, _, f, q = _channel_rows(h, 100.0)
        rows = np.arange(12)[::-3]
        got = search._walk_rows(t, f, q, rows, shrink=True)
        want = search._walk_rows(t, f, q, rows.tolist(), shrink=True)
        for a, b in zip(got[:4], want[:4]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("broken", ["missing compiler", "cache under a file"])
    def test_fallback_when_the_walk_cannot_be_built(self, monkeypatch, tmp_path, broken):
        compiler, cache = _native._COMPILER, tmp_path / "cache"
        if broken == "missing compiler":
            compiler = str(tmp_path / "no-such-cc")
        else:
            (tmp_path / "file").write_text("")
            cache = tmp_path / "file" / "cache"
        assert _native._load(compiler, cache, *_native._WALK) is None
        configs = [TrialConfig(mode="rate_avg", n=8, snr_db=20.0, trials=60, seed=3),
                   TrialConfig(mode="node_ratio", n=4, snr_db=0.0, trials=60, seed=3)]
        expected = [_dump(run_trials(cfg, keep_per_trial=True)) for cfg in configs]
        monkeypatch.setattr(_native, "_COMPILER", compiler)
        monkeypatch.setattr(_native, "_CACHE", cache)
        monkeypatch.setattr(_native, "_walker", _native._UNLOADED)
        assert _native.walker() is None
        assert [_dump(run_trials(cfg, keep_per_trial=True)) for cfg in configs] == expected
        assert list(tmp_path.rglob("_walk.*")) == []
