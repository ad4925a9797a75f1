"""Monte-Carlo benchmark harness with reproducible per-trial RNG streams.

Every trial ``j`` of a run draws its channel from a generator seeded by
the pair ``(seed, j)``, so results do not depend on execution order or on
the degree of parallelism; aggregation is a deterministic reduction over
trial index.  Supported modes:

* ``e1_freq``     - how often the O(n) unit-vector shortcut applies,
* ``node_ratio``  - fixed-radius tree size relative to ``n*sqrt(1+P*||h||^2)``,
* ``rate_avg``    - average optimal computation rate (with per-trial
  dominance checks against unit vectors and quantized candidates),
* ``list``        - list-output pipeline statistics,
* ``solve``       - per-trial solve statistics (rate, nodes, shortcut use).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ChannelInstance,
    NumericDegeneracyError,
    ScaledChannel,
    _is_integer,
    computation_rate,
    e1_is_optimal,
    scale_channel,
)
from .listsearch import list_solve
from .search import count_visited_nodes, solve

__all__ = [
    "MODES",
    "TrialConfig",
    "TrialReport",
    "trial_rng",
    "sample_channel",
    "run_trials",
    "emit_report",
]

MODES = ("solve", "list", "e1_freq", "node_ratio", "rate_avg")

# statistical modes aggregate over random channels and need two sources
_STATISTICAL_MODES = ("list", "e1_freq", "node_ratio", "rate_avg")

_RATE_SLACK = 1e-9


@dataclass(frozen=True)
class TrialConfig:
    """Configuration of one Monte-Carlo run."""

    mode: str
    n: int
    snr_db: float
    trials: int
    seed: int
    list_size: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("n", "trials", "seed", "list_size"):
            value = getattr(self, name)
            if not _is_integer(value) and not (name == "list_size" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        min_n = 2 if self.mode in _STATISTICAL_MODES else 1
        if self.n < min_n:
            raise ValueError(f"n must be at least {min_n} for mode {self.mode!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.mode == "list" and (self.list_size is None or self.list_size < 1):
            raise ValueError("list mode requires list_size >= 1")

    @property
    def P(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


@dataclass(frozen=True)
class TrialReport:
    """Aggregates of a run plus optional per-trial rows.

    ``result`` holds only deterministic values (identical for identical
    configs at any parallelism); ``wall_time`` is measurement noise and is
    kept outside of it.
    """

    mode: str
    n: int
    snr_db: float
    trials: int
    seed: int
    list_size: int | None
    result: dict
    wall_time: float
    per_trial: tuple = field(default=())


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic generator for one trial, derived from ``(seed, trial)``."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial)]))


def sample_channel(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. standard normal channel gains."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return rng.standard_normal(n)


def _dominance_violations(ch: ChannelInstance, best_rate: float) -> int:
    """Candidates that would beat the reported optimum (there should be none).

    Checks every unit vector and the quantized candidates
    ``round(c * t_raw)`` for ``c`` in 1..4.
    """
    violations = 0
    n = ch.n
    unit = np.zeros(n, dtype=np.int64)
    for i in range(n):
        unit[i] = 1
        if computation_rate(ch, unit) > best_rate + _RATE_SLACK:
            violations += 1
        unit[i] = 0
    t_raw = scale_channel(ch)
    for c in range(1, 5):
        cand = np.rint(c * t_raw).astype(np.int64)
        if np.any(cand):
            if computation_rate(ch, cand) > best_rate + _RATE_SLACK:
                violations += 1
    return violations


def _run_one(args) -> tuple:
    """One trial; returns (trial index, mode-specific value, error or None)."""
    mode, n, P, seed, list_size, j = args
    rng = trial_rng(seed, j)
    h = sample_channel(n, rng)
    ch = ChannelInstance(h=h, P=P)
    try:
        if mode == "e1_freq":
            sc = ScaledChannel.from_channel(ch)
            value = (1 if e1_is_optimal(sc) else 0,)
        elif mode == "node_ratio":
            sc = ScaledChannel.from_channel(ch)
            nodes = count_visited_nodes(sc)
            norm = n * math.sqrt(1.0 + P * float(np.dot(h, h)))
            value = (nodes, nodes / norm)
        elif mode == "rate_avg":
            out = solve(ch)
            value = (out.rate, _dominance_violations(ch, out.rate))
        elif mode == "list":
            entries = list_solve(ch, list_size)
            top = entries[0][1] if entries else 0.0
            value = (len(entries), top)
        else:  # solve
            out = solve(ch)
            value = (out.rate, out.nodes_visited, 1 if out.used_shortcut else 0)
        return j, value, None
    except NumericDegeneracyError as exc:
        return j, None, str(exc)


def _aggregate(cfg: TrialConfig, rows: list) -> tuple:
    ok = [(j, v) for j, v, err in rows if err is None]
    degenerate = [j for j, _, err in rows if err is not None]
    m = len(ok)
    result: dict = {"degenerate_trials": degenerate}
    per_trial = []
    if cfg.mode == "e1_freq":
        hits = sum(v[0] for _, v in ok)
        result.update(e1_fraction=hits / m if m else 0.0, hits=hits)
        per_trial = [{"trial": j, "hit": v[0]} for j, v in ok]
    elif cfg.mode == "node_ratio":
        ratios = [v[1] for _, v in ok]
        result.update(
            node_ratio_avg=math.fsum(ratios) / m if m else 0.0,
            node_ratio_max=max(ratios) if ratios else 0.0,
            nodes_avg=math.fsum(v[0] for _, v in ok) / m if m else 0.0,
        )
        per_trial = [{"trial": j, "nodes": v[0], "ratio": v[1]} for j, v in ok]
    elif cfg.mode == "rate_avg":
        result.update(
            rate_avg=math.fsum(v[0] for _, v in ok) / m if m else 0.0,
            dominance_violations=sum(v[1] for _, v in ok),
        )
        per_trial = [{"trial": j, "rate": v[0]} for j, v in ok]
    elif cfg.mode == "list":
        result.update(
            list_len_avg=math.fsum(v[0] for _, v in ok) / m if m else 0.0,
            top_rate_avg=math.fsum(v[1] for _, v in ok) / m if m else 0.0,
            short_lists=sum(1 for _, v in ok if v[0] < cfg.list_size),
        )
        per_trial = [{"trial": j, "length": v[0], "top_rate": v[1]} for j, v in ok]
    else:  # solve
        result.update(
            rate_avg=math.fsum(v[0] for _, v in ok) / m if m else 0.0,
            nodes_avg=math.fsum(v[1] for _, v in ok) / m if m else 0.0,
            e1_fraction=sum(v[2] for _, v in ok) / m if m else 0.0,
        )
        per_trial = [
            {"trial": j, "rate": v[0], "nodes": v[1], "shortcut": v[2]}
            for j, v in ok
        ]
    return result, per_trial


def run_trials(cfg: TrialConfig, parallel: int = 1, keep_per_trial: bool = False) -> TrialReport:
    """Run the configured mode over all trials and aggregate.

    ``parallel`` > 1 distributes trials over worker processes; because each
    trial reseeds from ``(seed, trial)`` and the reduction is performed in
    trial order, the ``result`` field is identical at any parallelism.
    """
    start = time.perf_counter()
    args = [(cfg.mode, cfg.n, cfg.P, cfg.seed, cfg.list_size, j) for j in range(cfg.trials)]
    if parallel > 1:
        chunk = max(1, cfg.trials // (parallel * 8))
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            rows = list(pool.map(_run_one, args, chunksize=chunk))
    else:
        rows = [_run_one(arg) for arg in args]
    result, per_trial = _aggregate(cfg, rows)
    wall = time.perf_counter() - start
    return TrialReport(
        mode=cfg.mode,
        n=cfg.n,
        snr_db=cfg.snr_db,
        trials=cfg.trials,
        seed=cfg.seed,
        list_size=cfg.list_size,
        result=result,
        wall_time=wall,
        per_trial=tuple(per_trial) if keep_per_trial else (),
    )


def _headline(report: TrialReport) -> dict:
    return {
        "mode": report.mode,
        "n": report.n,
        "snr_db": report.snr_db,
        "trials": report.trials,
        "seed": report.seed,
        "list_size": report.list_size,
        "result": report.result,
        "wall_time": report.wall_time,
    }


def emit_report(report: TrialReport, fmt: str = "json-lines") -> str:
    """Serialize a report; byte-stable for identical inputs.

    ``json-lines`` puts the headline record on the first line and one
    record per retained trial on the following lines.  ``csv`` emits a
    single header/value row pair with the result fields flattened into
    ``result.<name>`` columns (values JSON-encoded so they round-trip
    exactly).
    """
    if fmt == "json-lines":
        lines = [json.dumps(_headline(report), sort_keys=True)]
        lines.extend(json.dumps(row, sort_keys=True) for row in report.per_trial)
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        if report.per_trial:
            raise ValueError("per-trial rows are only supported by json-lines")
        head = _headline(report)
        result = head.pop("result")
        cols = list(head.keys()) + [f"result.{k}" for k in sorted(result)]
        vals = [json.dumps(v) for v in head.values()]
        vals += [json.dumps(result[k]) for k in sorted(result)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        writer.writerow(vals)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")
