"""cfcoef benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload relay_small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` replays each operation from its public calls with a span
around each call and reports the per-layer metrics instead.  Metric
names, units and workloads are read from ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WARMUP_S = 0.5
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def import_program():
    """Put the checkout's ``src/`` first on the path and import cfcoef from it."""
    if not (SRC / "cfcoef" / "__init__.py").is_file():
        raise SystemExit(f"error: cfcoef sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cfcoef

    if Path(cfcoef.__file__).resolve().parent != SRC / "cfcoef":
        raise SystemExit(f"error: cfcoef imported from {cfcoef.__file__}, not {SRC}")


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def warm_up(wl, inputs) -> None:
    deadline = time.perf_counter() + WARMUP_S
    i = 0
    while True:
        wl.op(inputs[i % len(inputs)])
        i += 1
        if time.perf_counter() >= deadline:
            return


def timed_loop(wl, inputs, seconds: float):
    """Closed loop: the next operation starts only after the previous returns.

    Returns per-call CPU and wall times (ns), outputs of the first
    ``wl.keep`` inputs, and the set of inputs whose call raised.
    """
    cpu_ns = time.thread_time_ns
    cpu, wall = [], []
    kept = {}
    raised = set()
    npool = len(inputs)
    keep = wl.keep
    op = wl.op
    i = 0
    deadline = clock() + int(seconds * 1e9)
    w1 = 0
    while w1 < deadline:
        inp = inputs[i % npool]
        w0 = clock()
        c0 = cpu_ns()
        try:
            out = op(inp)
        except Exception:
            if not raised:
                traceback.print_exc(file=sys.stderr)
            raised.add(i % npool)
            out = None
        c1 = cpu_ns()
        w1 = clock()
        cpu.append(c1 - c0)
        wall.append(w1 - w0)
        if i < keep and out is not None:
            kept[i] = out
        i += 1
    return cpu, wall, kept, raised


def calls_on(index: int, calls: int, npool: int) -> int:
    """How many of ``calls`` cycling calls landed on pool input ``index``."""
    return calls // npool + (1 if index < calls % npool else 0)


def run_checks(wl, inputs, kept, raised, seed):
    """Fill in kept outputs the loop did not reach, then check them."""
    for i in range(min(wl.keep, len(inputs))):
        if i not in kept and i not in raised:
            kept[i] = wl.op(inputs[i])
    return wl.check(inputs, kept, seed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(name: str, seed: int) -> float:
    """Median CPU time of a fresh process to import cfcoef and finish one operation.

    The child reports its own CPU time, counted from its start, when the
    operation returns.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        with subprocess.Popen(
            [sys.executable, str(HERE / "cold_start.py"), name, str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            out = proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"cold start of {name} failed with exit code {code}")
        times.append(float(out))
    return statistics.median(times)


def untraced_run(wl, inputs, args):
    cpu, wall, kept, raised = timed_loop(wl, inputs, args.seconds)
    rss = peak_rss_mb()
    npool = len(inputs)
    calls = len(cpu)
    attempted = sum(calls_on(i, calls, npool) * wl.size(inputs[i]) for i in range(min(calls, npool)))
    checked, bad, fingerprint = run_checks(wl, inputs, kept, raised, args.seed)
    bad_inputs = {i for i in bad if isinstance(i, int)} | raised
    failed = sum(calls_on(i, calls, npool) * wl.size(inputs[i]) for i in bad_inputs)
    failed += sum(1 for i in bad if not isinstance(i, int))
    metrics = {
        "latency_p50_us": percentile(cpu, 0.50) / 1e3,
        "latency_p99_us": percentile(cpu, 0.99) / 1e3,
        "ops_per_s": attempted / (sum(cpu) / 1e9),
        "setup_s": setup_seconds(wl.name, args.seed),
        "peak_rss_mb": rss,
    }
    notes = [
        f"latency samples: {calls} (one per call of the operation); operations: {attempted}",
        f"wall clock: p50 {percentile(wall, 0.50) / 1e3:.3f} us, p99 {percentile(wall, 0.99) / 1e3:.3f} us, "
        f"{attempted / (sum(wall) / 1e9):.3f} operations/s",
        f"failed_fraction: {failed / max(attempted, 1):.6g} ({failed}/{attempted})",
        f"outputs checked: {checked}",
    ]
    notes += [f"fingerprint {k}: {v} (first {wl.keep} inputs)" for k, v in fingerprint.items()]
    return attempted, failed, metrics, notes


def layer_metrics(tr, untraced_ns_per_op: float) -> dict:
    """Per-layer metrics from the spans and counts of a traced run."""
    st = tr.self_time()
    c = tr.counts

    def calls(name):
        return st.get(name, (0, 0))[0]

    def self_ns(name):
        return st.get(name, (0, 0))[1]

    def per(num, den):
        return num / den if den else 0.0

    def us(name):
        return per(self_ns(name), calls(name)) / 1e3

    op_ns = tr.durations("op")
    ops = len(op_ns)
    solves = c["solve.ops"]
    serial_us = per(self_ns("bench.run_trials_serial"), c["bench.trials"]) / 1e3
    parallel_us = per(self_ns("bench.run_trials_parallel"), c["bench.trials"]) / 1e3
    children_ns = sum(op_ns) - self_ns("op")
    return {
        "core.channel_instance_us": us("core.channel_instance"),
        "core.from_channel_us": us("core.from_channel"),
        "core.e1_is_optimal_us": us("core.e1_is_optimal"),
        "core.e1_hit_ratio": per(c["core.e1_hits"], calls("core.e1_is_optimal")),
        "core.restore_us": us("core.restore"),
        "core.computation_rate_us": us("core.computation_rate"),
        "core.rate_calls_per_op": per(calls("core.computation_rate"), ops),
        "search.modified_search_us": us("search.modified_search"),
        "search.nodes_per_op": per(c["search.nodes"], solves),
        "search.ns_per_node": per(self_ns("search.modified_search"), c["search.nodes"]),
        "search.incumbents_per_op": per(c["search.incumbents"], solves),
        "search.count_visited_nodes_us": us("search.count_visited_nodes"),
        "search.visited_nodes_per_trial": per(c["search.visited_nodes"], calls("search.count_visited_nodes")),
        "listsearch.list_search_us": us("listsearch.list_search"),
        "listsearch.entries_per_op": per(c["listsearch.entries"], calls("listsearch.list_search")),
        "listsearch.fill_ratio": per(c["listsearch.entries"], c["listsearch.requested"]),
        "bench.trial_rng_us": us("bench.trial_rng"),
        "bench.us_per_trial_serial": serial_us,
        "bench.us_per_trial_parallel": parallel_us,
        "bench.parallel_efficiency": per(serial_us, 2 * parallel_us),
        "bench.emit_report_ms": us("bench.emit_report") / 1e3,
        "bench.report_bytes": per(c["bench.report_bytes"], c["bench.reports"]),
        "trace.glue_us": (untraced_ns_per_op - per(children_ns, ops)) / 1e3,
    }


def traced_run(wl, inputs, args):
    tr = Tracer()
    untraced = []  # ns of each untraced reference call
    untraced_ops = 0
    attempted = failed = 0
    i = 0
    deadline = clock() + int(args.seconds * 1e9)
    while clock() < deadline:
        inp = inputs[i % len(inputs)]
        try:
            ops, bad, ref_ns = wl.trace_step(tr, inp)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ops = bad = wl.size(inp)
        else:
            untraced.append(ref_ns)
            untraced_ops += ops
        attempted += ops
        failed += bad
        i += 1
    if not untraced:
        raise SystemExit("error: every traced step raised")
    untraced_per_op = sum(untraced) / untraced_ops
    metrics = layer_metrics(tr, untraced_per_op)
    op_ns = tr.durations("op")
    # means, because a harness trial is timed untraced only inside a whole run_trials call
    metrics["trace.overhead_fraction"] = statistics.fmean(op_ns) / untraced_per_op - 1.0

    checked, bad_idx, fingerprint = run_checks(wl, inputs, {}, set(), args.seed)
    failed += len(bad_idx)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    tr.write(path)

    notes = [
        f"traced operations: {len(op_ns)}; replay mismatches and failures: {failed}",
        f"untraced us per operation: {untraced_per_op / 1e3:.3f}",
        f"{'span':32s} {'calls':>9s} {'self us/call':>13s} {'self us/op':>11s}",
    ]
    for name, (n, ns) in sorted(tr.self_time().items(), key=lambda kv: -kv[1][1]):
        notes.append(f"{name:32s} {n:9d} {ns / n / 1e3:13.3f} {ns / len(op_ns) / 1e3:11.3f}")
    notes.append(f"outputs checked: {checked}")
    notes += [f"fingerprint {k}: {v} (first {wl.keep} inputs)" for k, v in fingerprint.items()]
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    warm_up(wl, inputs)
    run = traced_run if args.trace else untraced_run
    attempted, failed, values, notes = run(wl, inputs, args)

    declared = manifest["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6f} {m['unit']}")
    for line in notes:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
