"""Monte-Carlo harness determinism, report formats, and the CLI surface."""

import csv
import io
import json
import math

import numpy as np
import pytest

import cfcoef.bench as bench
from cfcoef import (
    NumericDegeneracyError,
    TrialConfig,
    emit_report,
    run_trials,
    sample_channel,
    trial_rng,
)
from cfcoef.cli import main


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
        real = bench.solve

        def flaky(ch, use_shortcut=True):
            if abs(float(ch.h[0]) - sample_channel(4, trial_rng(7, 3))[0]) < 1e-15:
                raise NumericDegeneracyError("synthetic failure")
            return real(ch, use_shortcut)

        monkeypatch.setattr(bench, "solve", flaky)
        cfg = TrialConfig(mode="rate_avg", n=4, snr_db=0.0, trials=10, seed=7)
        report = run_trials(cfg)
        assert report.result["degenerate_trials"] == [3]

    def test_parallel_result_is_identical(self):
        cfg = TrialConfig(mode="rate_avg", n=3, snr_db=10.0, trials=64, seed=8)
        serial = run_trials(cfg, parallel=1)
        twice = run_trials(cfg, parallel=1)
        pooled = run_trials(cfg, parallel=2)
        assert serial.result == twice.result == pooled.result


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
