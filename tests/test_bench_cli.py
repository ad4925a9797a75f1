"""Monte-Carlo harness determinism, report formats, and the CLI surface."""

import csv
import io
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfcoef.bench as bench
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
    scale_channel,
    solve,
    trial_rng,
)
from cfcoef.cli import main
from cfcoef.core import _scale_rows


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

    def test_numpy_integers_accepted(self):
        cfg = TrialConfig(mode="list", n=np.int64(4), snr_db=0.0, trials=np.int32(10),
                          seed=np.uint64(2**64 - 1), list_size=np.int64(2))
        assert cfg.seed == 2**64 - 1


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
        # the failure is injected into the solve step each trial runs
        real = bench._solve_row
        trial_3 = sample_channel(4, trial_rng(7, 3))

        def flaky(h, *rest):
            if np.array_equal(h, trial_3):
                raise NumericDegeneracyError("synthetic failure")
            return real(h, *rest)

        monkeypatch.setattr(bench, "_solve_row", flaky)
        cfg = TrialConfig(mode="rate_avg", n=4, snr_db=0.0, trials=10, seed=7)
        report = run_trials(cfg)
        assert report.result["degenerate_trials"] == [3]

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
            bench._dominance_violations(ch, rate)
        cfg = TrialConfig(mode="rate_avg", n=2, snr_db=0.0, trials=9, seed=7)
        self._replace_trial(monkeypatch, cfg, 5, ch.h)
        assert run_trials(cfg).result["degenerate_trials"] == [5]

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

    def test_pool_never_outnumbers_trials(self, monkeypatch):
        # a recorder stands in for the pool, so no worker process starts
        requested = []

        class RecordingPool(_InlinePool):
            def __init__(self, max_workers):
                requested.append(max_workers)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
        cfg = TrialConfig(mode="rate_avg", n=3, snr_db=10.0, trials=3, seed=8)
        capped = run_trials(cfg, parallel=64)
        run_trials(TrialConfig(mode="e1_freq", n=2, snr_db=0.0, trials=40, seed=8), parallel=2)
        assert requested == [3, 2]
        assert capped.result == run_trials(cfg, parallel=1).result


class _InlinePool:
    """Stands in for ``ProcessPoolExecutor``; runs the chunks in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def _dominance_candidates(ch):
    """Every unit vector, then each nonzero ``round(c * t_raw)`` for c in 1..4."""
    t_raw = scale_channel(ch)
    quantized = [np.rint(c * t_raw).astype(np.int64) for c in range(1, 5)]
    return list(np.eye(ch.n, dtype=np.int64)) + [a for a in quantized if a.any()]


def _assert_same_rates(h, P):
    """``_rate`` of each chunk denominator of the rows ``h`` is the
    ``computation_rate`` of its candidate, or both raise the same error."""
    t_raw, hnorm2 = _scale_rows(h, P)
    for row, denominators in zip(h, bench._dominance_denominators(h, P, hnorm2, t_raw)):
        ch = ChannelInstance(h=row, P=P)
        candidates = _dominance_candidates(ch)
        assert len(denominators) == len(candidates)
        for denom, a in zip(denominators, candidates):
            try:
                rate = computation_rate(ch, a)
            except NumericDegeneracyError as exc:
                with pytest.raises(NumericDegeneracyError, match=re.escape(str(exc))):
                    bench._rate(denom)
            else:
                assert bench._rate(denom) == rate


def _public_rows(cfg):
    """Each trial's ``per_trial`` row, and the dominance violations, from public calls."""
    rows, violations = [], 0
    for j in range(cfg.trials):
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
                violations += bench._dominance_violations(ch, out.rate)
            else:
                rows.append({"trial": j, "rate": out.rate, "nodes": out.nodes_visited,
                             "shortcut": int(out.used_shortcut)})
    return rows, violations


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
        assert report.result["degenerate_trials"] == []
        if mode == "rate_avg":
            assert report.result["dominance_violations"] == violations


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
    candidate.  ``test_rows_match_public_calls`` compares the chunk with
    ``_dominance_violations``, which shares its code, so a float drift in
    the batched forms would show only here."""

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


_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]

# chunks at the start, in the middle, and across the two-word trial index 2**32
_SPANS = [(0, 4), (13, 29), (2**32 - 3, 2**32 + 3)]


def _public_draws(seed, lo, hi, n):
    return np.stack([sample_channel(n, trial_rng(seed, j)) for j in range(lo, hi)])


def _public_seed_words(seed, lo, hi):
    return np.stack([np.random.SeedSequence([seed, j]).generate_state(4, np.uint64)
                     for j in range(lo, hi)])


class TestChunkDrawer:
    """A chunk seeds all its trials in one vectorized pass; its draws must
    be bit for bit those of the public ``trial_rng`` streams."""

    @pytest.mark.parametrize("n", [1, 8, 1000])
    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_rows_match_trial_rng(self, seed, n):
        for lo, hi in _SPANS:
            rows = bench._draw_rows(seed, lo, hi, n)
            assert rows.shape == (hi - lo, n) and rows.dtype == np.float64
            np.testing.assert_array_equal(rows.view(np.uint64),
                                          _public_draws(seed, lo, hi, n).view(np.uint64))

    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        for lo, hi in _SPANS:
            words = bench._seed_words(seed, lo, hi)
            assert words.dtype == np.uint64
            np.testing.assert_array_equal(words, _public_seed_words(seed, lo, hi))

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**33 - 1), st.integers(1, 5))
    def test_any_seed_and_trial(self, seed, lo, m):
        np.testing.assert_array_equal(bench._seed_words(seed, lo, lo + m),
                                      _public_seed_words(seed, lo, lo + m))
        np.testing.assert_array_equal(bench._draw_rows(seed, lo, lo + m, 3).view(np.uint64),
                                      _public_draws(seed, lo, lo + m, 3).view(np.uint64))


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
        assert main(argv + ["--h", "1e200 1e200", "--snr-db", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: P*||h||^2 is not finite")

    @pytest.mark.parametrize("parallel", ["0", "-2"])
    def test_unusable_parallel_is_an_error(self, parallel, capsys):
        argv = ["bench", "--mode", "e1_freq", "--n", "2", "--snr-db", "0", "--trials", "3"]
        assert main(argv + [f"--parallel={parallel}"]) == 2
        assert capsys.readouterr().err.startswith("error:")

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
