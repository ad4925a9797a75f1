"""Tests of the benchmark's own code.  Run: python3 -m pytest -q perfbench"""

import dataclasses
import json

import numpy as np
import pytest

import run

run.import_program()

import cfcoef as cf  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def short_phases(monkeypatch):
    monkeypatch.setattr(run, "WARMUP_S", 0.05)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def run_main(capsys, workload, trace, seed=3, seconds="0.3"):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_manifest_lists_the_workloads():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    lines, result = run_main(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_inputs_and_fingerprints(workload):
    wl = WORKLOADS[workload]
    first, again, other = wl.inputs(11, 12), wl.inputs(11, 12), wl.inputs(12, 12)
    if workload == "mc_harness":
        assert first == again and first != other
    else:
        assert all(np.array_equal(a[0], b[0]) and a[1] == b[1] for a, b in zip(first, again))
        assert not all(np.array_equal(a[0], b[0]) for a, b in zip(first, other))
    inputs = wl.inputs(11)
    _, failed, prints = run.run_checks(wl, inputs, {}, set(), 11)
    _, failed_again, prints_again = run.run_checks(wl, inputs, {}, set(), 11)
    assert failed == failed_again == []
    assert prints == prints_again


def _kept(wl, inputs, count):
    return {i: wl.op(inputs[i]) for i in range(count)}


def test_relay_small_check_counts_a_wrong_objective():
    wl = WORKLOADS["relay_small"]
    inputs = wl.inputs(5, 6)
    kept = _kept(wl, inputs, 6)
    kept[4] = dataclasses.replace(kept[4], objective=kept[4].objective * (1 + 1e-6))
    assert wl.check(inputs, kept, 5)[1] == [4]


def test_relay_large_check_counts_a_dominated_vector():
    wl = WORKLOADS["relay_large"]
    inputs = wl.inputs(5, 3)
    kept = _kept(wl, inputs, 3)
    h, P = inputs[1]
    a = np.zeros(h.size, dtype=np.int64)
    a[int(np.argmin(np.abs(h)))] = 1
    rate = cf.computation_rate(cf.ChannelInstance(h=h, P=P), a)
    kept[1] = dataclasses.replace(kept[1], a=a, rate=rate)
    kept[2] = dataclasses.replace(kept[2], rate=kept[2].rate + 1e-6)
    assert wl.check(inputs, kept, 5)[1] == [1, 2]


def test_coord_list_check_counts_a_missing_head_and_bad_order():
    wl = WORKLOADS["coord_list"]
    inputs = wl.inputs(5, 3)
    kept = _kept(wl, inputs, 3)
    kept[0] = kept[0][1:]
    kept[2] = kept[2][::-1]
    assert wl.check(inputs, kept, 5)[1] == [0, 2]


def test_mc_harness_check_counts_degenerate_and_unequal_results():
    wl = WORKLOADS["mc_harness"]
    inputs = wl.inputs(5, 3)
    kept = _kept(wl, inputs, 3)
    result, size = kept[0][0]
    kept[0][0] = ({**result, "hits": result["hits"] + 1}, size)
    result, size = kept[2][1]
    kept[2][1] = ({**result, "degenerate_trials": [7]}, size)
    assert wl.check(inputs, kept, 5)[1] == [0, 2]


def test_wrong_answers_are_counted_in_the_result_line(capsys, monkeypatch):
    wl = WORKLOADS["relay_large"]
    right = wl.op

    def wrong(inp):
        out = right(inp)
        return dataclasses.replace(out, rate=out.rate * 0.5)

    monkeypatch.setattr(wl, "op", wrong)
    _, result = run_main(capsys, "relay_large", 0)
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"]
    _, result = run_main(capsys, "relay_large", 1)
    assert not result["correct"] and result["failed"] >= 1
