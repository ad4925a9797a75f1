"""The benchmark's workloads: inputs, timed operations, traced replays, output checks.

Every workload is a closed loop with one caller.  Its inputs are drawn up
front from the workload seed; the library only ever sees the generated
``h`` and ``P`` (or, for the Monte-Carlo harness, the generated
``TrialConfig``).  Each workload provides:

* ``inputs(seed)``: the input pool, cycled by the timed loop;
* ``op(inp)``: one untraced operation, the unit the end-to-end metrics time;
* ``size(inp)``: how many operations one call of ``op`` counts as;
* ``check(inputs, kept, seed)``: output checks on the kept outputs, run
  after the timed phase, returning ``(checked, failed_indices, fingerprint)``;
* ``trace_step(tr, inp)``: a traced replay of one input from public calls,
  compared with the untraced call; returns ``(ops, failed_ops, untraced_ns)``
  where ``untraced_ns`` is the time of the untraced call covering ``ops``.
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np

import cfcoef as cf
from tracing import Tracer, clock

RATE_SLACK = 1e-9
REL_TOL = 1e-9
# brute-force boxes larger than this are not enumerated by the checks
ORACLE_POINTS = 400_000


def workload_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(name.encode())]))


def db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def objectives(h: np.ndarray, P: float, A) -> np.ndarray:
    """``a' G a`` for each integer row ``a`` of ``A``, computed without the library."""
    Af = np.atleast_2d(A).astype(np.float64)
    inner = Af @ h
    return np.einsum("ij,ij->i", Af, Af) - P * inner * inner / (1.0 + P * float(h @ h))


def _replay_solve(tr: Tracer, op: int, ch):
    """``solve`` replayed from its public steps, each in a span under ``op``."""
    tr.counts["solve.ops"] += 1
    sc = tr.call(op, "core.from_channel", cf.ScaledChannel.from_channel, ch)
    if tr.call(op, "core.e1_is_optimal", cf.e1_is_optimal, sc):
        tr.counts["core.e1_hits"] += 1
        a_canonical = np.zeros(sc.n, dtype=np.int64)
        a_canonical[0] = 1
        objective, nodes = float(sc.q[0]), 0
    else:
        found = tr.call(op, "search.modified_search", cf.modified_search, sc)
        tr.counts["search.nodes"] += found.nodes_visited
        tr.counts["search.incumbents"] += len(found.incumbents) - 1
        a_canonical, objective, nodes = found.a, found.objective, found.nodes_visited
    a = tr.call(op, "core.restore", cf.restore, sc.perm, a_canonical)
    rate = tr.call(op, "core.computation_rate", cf.computation_rate, ch, a)
    return a, rate, objective, nodes


def _same_solve(replayed, out) -> bool:
    a, rate, objective, nodes = replayed
    return (
        np.array_equal(a, out.a)
        and rate == out.rate
        and objective == out.objective
        and nodes == out.nodes_visited
    )


class Relay:
    """``solve`` on generated channels; ``n`` cycles through ``ns``."""

    def __init__(self, name, ns, snr_db, pool, keep):
        self.name, self.ns, self.snr_db = name, tuple(ns), float(snr_db)
        self.pool, self.keep = pool, keep

    def inputs(self, seed, count=None):
        rng = workload_rng(seed, self.name)
        P = db_to_linear(self.snr_db)
        return [(rng.standard_normal(self.ns[i % len(self.ns)]), P) for i in range(count or self.pool)]

    @staticmethod
    def op(inp):
        h, P = inp
        return cf.solve(cf.ChannelInstance(h=h, P=P))

    @staticmethod
    def size(inp) -> int:
        return 1

    def trace_step(self, tr: Tracer, inp):
        h, P = inp
        op = tr.open("op")
        ch = tr.call(op, "core.channel_instance", cf.ChannelInstance, h, P)
        replayed = _replay_solve(tr, op, ch)
        tr.close(op)
        start = clock()
        out = self.op(inp)
        untraced = clock() - start
        return 1, 0 if _same_solve(replayed, out) else 1, untraced


class RelaySmall(Relay):
    def check(self, inputs, kept, seed):
        """Objective equals the brute-force optimum to ``REL_TOL`` relative.

        Where the oracle's proven box is too large to enumerate (n = 8 at
        10 dB), the box is shrunk to the largest entry of the returned
        vector: no vector in it may beat the reported objective.
        """
        failed = []
        checked = 0
        for i, out in kept.items():
            h, P = inputs[i]
            t = cf.ScaledChannel.from_channel(cf.ChannelInstance(h=h, P=P)).t
            box = cf.svp_box_bound(t)
            if (2 * box + 1) ** t.size > ORACLE_POINTS:
                box = max(1, int(np.abs(out.a).max()))
                if (2 * box + 1) ** t.size > ORACLE_POINTS:
                    continue
            ref = cf.brute_force_svp(t, box=box).objective
            checked += 1
            if abs(out.objective - ref) > REL_TOL * ref:
                failed.append(i)
        return checked, failed, {}


class RelayLarge(Relay):
    def check(self, inputs, kept, seed):
        """The rate beats every unit vector and ``round(c*t)`` for c in 1..4."""
        failed = []
        nodes = 0
        for i, out in kept.items():
            h, P = inputs[i]
            nodes += out.nodes_visited
            hh = float(h @ h)
            unit = 1.0 - P * h * h / (1.0 + P * hh)  # objectives of the unit vectors
            t_raw = h * math.sqrt(P / (1.0 + P * hh))
            cands = np.array([np.rint(c * t_raw) for c in range(1, 5)], dtype=np.int64)
            lowest = min(unit.min(), objectives(h, P, cands[np.any(cands, axis=1)]).min(initial=1.0))
            best = -0.5 * math.log2(lowest) if lowest < 1.0 else 0.0
            rate = cf.computation_rate(cf.ChannelInstance(h=h, P=P), out.a)
            if out.rate < best - RATE_SLACK or rate != out.rate:
                failed.append(i)
        return len(kept), failed, {"search.nodes_total": nodes}


class CoordList:
    """``list_solve(ch, L)`` on generated channels."""

    oracle_n = 3
    oracle_instances = 20

    def __init__(self, name, n, snr_db, L, pool, keep):
        self.name, self.n, self.snr_db, self.L = name, n, float(snr_db), L
        self.pool, self.keep = pool, keep

    def inputs(self, seed, count=None):
        rng = workload_rng(seed, self.name)
        P = db_to_linear(self.snr_db)
        return [(rng.standard_normal(self.n), P) for _ in range(count or self.pool)]

    def op(self, inp):
        h, P = inp
        return cf.list_solve(cf.ChannelInstance(h=h, P=P), self.L)

    @staticmethod
    def size(inp) -> int:
        return 1

    def check(self, inputs, kept, seed):
        """Rates nonincreasing and the head attains ``solve``'s objective.

        ``brute_force_topl`` cannot enumerate n = 8 at 20 dB (its box has
        about 41**8 points), so the oracle comparison runs on extra seeded
        instances with n = 3 at the same SNR and list size.
        """
        failed = []
        entries = 0
        for i, out in kept.items():
            h, P = inputs[i]
            entries += len(out)
            rates = [r for _, r in out]
            best = cf.solve(cf.ChannelInstance(h=h, P=P))
            head = objectives(h, P, out[0][0])[0] if out else 1.0
            if any(x < y for x, y in zip(rates, rates[1:])) or abs(head - best.objective) > REL_TOL * best.objective:
                failed.append(i)
        checked = len(kept)
        rng = workload_rng(seed, self.name + ".oracle")
        P = db_to_linear(self.snr_db)
        for j in range(self.oracle_instances):
            ch = cf.ChannelInstance(h=rng.standard_normal(self.oracle_n), P=P)
            t = cf.ScaledChannel.from_channel(ch).t
            got = [r for _, r in cf.list_solve(ch, self.L)]
            ref = [-0.5 * math.log2(c.objective) for c in cf.brute_force_topl(t, self.L)]
            checked += 1
            if len(got) != len(ref) or any(abs(x - y) > REL_TOL * max(1.0, y) for x, y in zip(got, ref)):
                failed.append(("oracle", j))
        return checked, failed, {"listsearch.entries_total": entries}

    def trace_step(self, tr: Tracer, inp):
        h, P = inp
        op = tr.open("op")
        ch = tr.call(op, "core.channel_instance", cf.ChannelInstance, h, P)
        sc = tr.call(op, "core.from_channel", cf.ScaledChannel.from_channel, ch)
        found = tr.call(op, "listsearch.list_search", cf.list_search, sc, self.L)
        replayed = []
        for cand in found.entries:
            a = tr.call(op, "core.restore", cf.restore, sc.perm, cand.a)
            replayed.append((a, tr.call(op, "core.computation_rate", cf.computation_rate, ch, a)))
        tr.close(op)
        tr.counts["listsearch.entries"] += len(found)
        tr.counts["listsearch.requested"] += self.L
        start = clock()
        out = self.op(inp)
        untraced = clock() - start
        same = len(out) == len(replayed) and all(
            np.array_equal(a, b) and r == s for (a, r), (b, s) in zip(replayed, out)
        )
        return 1, 0 if same else 1, untraced


def _draw(seed, j, n):
    return cf.sample_channel(n, cf.trial_rng(seed, j))


class MonteCarlo:
    """``run_trials`` then ``emit_report`` over fixed configs.

    One call of ``op`` is one round: every configuration once, each with
    its own seed.  Its operations are the trials of the round.  The timed
    rounds run serially: with both cores busy, CPU time per round swung
    by a fifth between runs on a shared host.  The process pool of
    ``workers`` runs in the checks and in the traced run.
    """

    workers = 2
    configs = (
        ("e1_freq", 8, 10.0, 1000),
        ("node_ratio", 4, 0.0, 1000),
        ("rate_avg", 8, 20.0, 400),
    )

    def __init__(self, name, pool, keep):
        self.name, self.pool, self.keep = name, pool, keep

    def inputs(self, seed, count=None):
        rng = workload_rng(seed, self.name)
        return [
            tuple(
                cf.TrialConfig(mode=mode, n=n, snr_db=snr_db, trials=trials, seed=int(rng.integers(2**63)))
                for mode, n, snr_db, trials in self.configs
            )
            for _ in range(count or self.pool)
        ]

    def op(self, configs):
        out = []
        for cfg in configs:
            report = cf.run_trials(cfg)
            out.append((report.result, len(cf.emit_report(report))))
        return out

    @staticmethod
    def size(configs) -> int:
        return sum(cfg.trials for cfg in configs)

    def check(self, inputs, kept, seed):
        """No degenerate trial, no dominance violation, and in the first
        round a ``result`` byte-identical to that of the process pool."""
        failed = []
        nodes = 0
        for i, results in kept.items():
            bad = False
            for cfg, (result, _) in zip(inputs[i], results):
                bad = bad or bool(result["degenerate_trials"]) or bool(result.get("dominance_violations", 0))
                if i == 0:
                    pooled = cf.run_trials(cfg, parallel=self.workers).result
                    bad = bad or json.dumps(pooled, sort_keys=True) != json.dumps(result, sort_keys=True)
                if cfg.mode == "node_ratio":
                    nodes += round(result["nodes_avg"] * cfg.trials)
            if bad:
                failed.append(i)
        return len(kept), failed, {"search.visited_nodes_total": nodes}

    def _replay_trial(self, tr: Tracer, cfg, j):
        """One trial of ``run_trials`` replayed from public calls."""
        op = tr.open("op")
        h = tr.call(op, "bench.trial_rng", _draw, cfg.seed, j, cfg.n)
        ch = tr.call(op, "core.channel_instance", cf.ChannelInstance, h, cfg.P)
        if cfg.mode == "e1_freq":
            sc = tr.call(op, "core.from_channel", cf.ScaledChannel.from_channel, ch)
            value = int(tr.call(op, "core.e1_is_optimal", cf.e1_is_optimal, sc))
            tr.counts["core.e1_hits"] += value
        elif cfg.mode == "node_ratio":
            sc = tr.call(op, "core.from_channel", cf.ScaledChannel.from_channel, ch)
            value = tr.call(op, "search.count_visited_nodes", cf.count_visited_nodes, sc)
            tr.counts["search.visited_nodes"] += value
        else:
            _, rate, _, _ = _replay_solve(tr, op, ch)
            value = (rate, self._violations(tr, op, ch, rate))
        tr.close(op)
        return value

    @staticmethod
    def _violations(tr: Tracer, op: int, ch, best: float) -> int:
        """The harness's dominance check: n unit vectors and round(c*t), c in 1..4."""
        count = 0
        unit = np.zeros(ch.n, dtype=np.int64)
        for i in range(ch.n):
            unit[i] = 1
            count += tr.call(op, "core.computation_rate", cf.computation_rate, ch, unit) > best + RATE_SLACK
            unit[i] = 0
        t_raw = tr.call(op, "core.scale_channel", cf.scale_channel, ch)
        for c in range(1, 5):
            cand = np.rint(c * t_raw).astype(np.int64)
            if np.any(cand):
                count += tr.call(op, "core.computation_rate", cf.computation_rate, ch, cand) > best + RATE_SLACK
        return int(count)

    def trace_step(self, tr: Tracer, configs):
        ops = failed = untraced = 0
        for cfg in configs:
            o, f, u = self._trace_config(tr, cfg)
            ops, failed, untraced = ops + o, failed + f, untraced + u
        return ops, failed, untraced

    def _trace_config(self, tr: Tracer, cfg):
        """Parallel and serial runs, the report, and a traced replay of every trial."""
        parallel = tr.call(None, "bench.run_trials_parallel", cf.run_trials, cfg, self.workers)
        serial = tr.call(None, "bench.run_trials_serial", cf.run_trials, cfg, 1)
        _, _, start, end = tr.spans[-1]
        text = tr.call(None, "bench.emit_report", cf.emit_report, parallel)
        tr.counts["bench.trials"] += cfg.trials
        tr.counts["bench.reports"] += 1
        tr.counts["bench.report_bytes"] += len(text.encode())

        values = [self._replay_trial(tr, cfg, j) for j in range(cfg.trials)]
        result = serial.result
        if cfg.mode == "e1_freq":
            same = sum(values) == result["hits"]
        elif cfg.mode == "node_ratio":
            same = sum(values) == round(result["nodes_avg"] * cfg.trials)
        else:
            same = (
                math.fsum(v[0] for v in values) / cfg.trials == result["rate_avg"]
                and sum(v[1] for v in values) == result["dominance_violations"]
            )
        same = (
            same
            and not result["degenerate_trials"]
            and not result.get("dominance_violations", 0)
            and json.dumps(result, sort_keys=True) == json.dumps(parallel.result, sort_keys=True)
        )
        return cfg.trials, 0 if same else cfg.trials, end - start


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        RelaySmall("relay_small", ns=(2, 4, 8), snr_db=10.0, pool=12288, keep=60),
        RelayLarge("relay_large", ns=(1000,), snr_db=30.0, pool=2048, keep=256),
        CoordList("coord_list", n=8, snr_db=20.0, L=8, pool=8192, keep=256),
        MonteCarlo("mc_harness", pool=100, keep=3),
    )
}
