"""Monte-Carlo benchmark harness with reproducible per-trial RNG streams.

Every trial ``j`` of a run draws its channel from a generator seeded by
the pair ``(seed, j)``, so results do not depend on execution order or on
the degree of parallelism; aggregation is a deterministic reduction over
trial index.

Trials run in chunks of at most ``_CHUNK_ENTRIES`` channel entries: a
serial run is as few chunks as that cap allows, and a pooled run gives each
worker about eight.  A chunk derives every trial's PCG64 state from
``SeedSequence([seed, j])`` in one vectorized pass and draws its channels
into one ``(m, n)`` array, bit for bit the draws of :func:`trial_rng`,
which remains the one-trial reference.  The chunk checks its channels (they
skip :class:`ChannelInstance`), builds all its canonical rows with the
builder call ``solve`` and ``list_solve`` make, and tests the first unit
vector on all of them in one more call; ``rate_avg`` evaluates every row's
dominance candidates as arrays too.  Only the search and the map back run
per trial, and each trial's record is written once, under its
``per_trial`` names.  Each row is the same float the single-channel calls
give, so the ``result`` bytes and per-trial rows do not depend on the
chunk size.
Supported modes:

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
from itertools import compress

import numpy as np

from .core import (
    ChannelInstance,
    NumericDegeneracyError,
    _channel_rows,
    _check_channels,
    _e1_optimal,
    _is_integer,
    _quadratic_forms,
    _rate,
    _scale_rows,
)
from .listsearch import _list_row
from .search import _solve_row, _visited_nodes

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

# the multiples c of t_raw whose roundings are dominance candidates, as a column
_MULTIPLES = np.arange(1.0, 5.0)[:, None]

# Most channel entries (rows times n) one chunk of trials holds.  Building a
# chunk keeps about fifteen arrays of that size alive at once, so this bounds
# a chunk's working set to a few MB at any n and trial count.
_CHUNK_ENTRIES = 1 << 16

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init`` and its ``count`` successive products by ``mult`` mod 2**32, as a column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# numpy's SeedSequence with its 4-word pool: the hash constants run through
# the same sequence for every input, 16 steps to mix the pool and 8 to emit
# the state words.  PCG64 then seeds itself with two 128-bit LCG steps.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_OTHER_WORDS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _snr_power(snr_db: float) -> float:
    """Linear SNR ``P = 10^(dB/10)``; ``ValueError`` unless finite and positive."""
    try:
        P = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        P = math.inf
    if not (math.isfinite(P) and P > 0.0):
        raise ValueError(f"snr_db={snr_db!r} gives no finite positive linear SNR")
    return P


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
        _snr_power(self.snr_db)

    @property
    def P(self) -> float:
        return _snr_power(self.snr_db)


@dataclass(frozen=True)
class TrialReport:
    """Aggregates of a run plus optional per-trial rows.

    ``result`` holds only deterministic values (identical for identical
    configs at any parallelism); ``wall_time`` is measurement noise and is
    kept outside of it.
    """

    config: TrialConfig
    result: dict
    wall_time: float
    per_trial: tuple = field(default=())


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic generator for one trial, derived from ``(seed, trial)``.

    This is the reference stream: ``run_trials`` derives the same PCG64
    state for a whole chunk of trials at once and draws the same values.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial)]))


def sample_channel(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. standard normal channel gains."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return rng.standard_normal(n)


def _hash(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of ``words``: row ``i`` takes
    ``constants[i]`` as its xor constant and ``constants[i + 1]`` as its
    multiplier (a 1-D ``words`` is broadcast over the rows)."""
    words = (words ^ constants[:-1]) * constants[1:]
    return words ^ (words >> 16)


def _seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """``SeedSequence([seed, j]).generate_state(4, np.uint64)`` for trials ``lo..hi-1``.

    The entropy words are those of the two integers (``0`` is one word), in
    little-endian 32-bit words, zero-padded to the pool of four; every hash
    and mix step runs once over the whole ``(words, trials)`` array.
    """
    seed = int(seed)
    trials = np.arange(lo, hi, dtype=np.uint64)
    words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    pool = np.zeros((4, hi - lo), dtype=np.uint32)
    pool[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    pool[len(words)] = trials & _MASK32
    pool[len(words) + 1] = trials >> 32
    pool = _hash(pool, _POOL_HASH[:5])
    # each word in turn, hashed with the next three constants, mixes into
    # the three other words
    for src, dst in enumerate(_OTHER_WORDS):
        k = 4 + 3 * src
        mixed = pool[dst] * _MIX_L - _hash(pool[src], _POOL_HASH[k:k + 4]) * _MIX_R
        pool[dst] = mixed ^ (mixed >> 16)
    state = _hash(np.concatenate((pool, pool)), _STATE_HASH).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


def _draw_rows(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """The ``(hi-lo, n)`` channels of trials ``lo..hi-1``, bit for bit those of
    ``sample_channel(n, trial_rng(seed, j))``.

    One generator is reused: each trial sets the PCG64 ``(state, inc)`` that
    seeding from its :func:`_seed_words` gives and draws its row in place.
    """
    h = np.empty((hi - lo, n))
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(h, _seed_words(seed, lo, hi).tolist()):
        # PCG64 seeds from (initstate, initseq), the two word pairs: inc is
        # 2*initseq + 1, and state takes two LCG steps from 0 with
        # initstate added between them
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=row)
    return h


def _dominance_denominators(h: np.ndarray, P: float, hnorm2: np.ndarray, t_raw: np.ndarray) -> list:
    """Per channel row, the quadratic forms of the dominance candidates.

    The candidates are every unit vector, then each nonzero quantized
    ``round(c * t_raw)`` for ``c`` in 1..4, in that order.  Each value is the
    float :func:`~cfcoef.core.computation_rate` evaluates: for ``e_i`` the
    inner product ``h . e_i`` is exactly ``h_i``, so one array expression
    serves every row; the four quantized candidates of every row go through
    :func:`~cfcoef.core._quadratic_forms` as one ``(m, 4, n)`` array, whose
    dots sum in the same order as the single-channel call.
    """
    rows = (1.0 - P * h * h / (1.0 + P * hnorm2)[:, None]).tolist()
    cands = np.rint(_MULTIPLES * t_raw[:, None, :]).astype(np.int64)
    forms = _quadratic_forms(h, P, hnorm2, cands.astype(np.float64))
    for row, form, nonzero in zip(rows, forms.tolist(), cands.any(axis=2).tolist()):
        row.extend(compress(form, nonzero))
    return rows


def _count_beating(denominators: list, best_rate: float) -> int:
    """Candidates whose rate beats ``best_rate``; the first degenerate one raises."""
    return sum(_rate(denom) > best_rate + _RATE_SLACK for denom in denominators)


def _dominance_violations(ch: ChannelInstance, best_rate: float) -> int:
    """Candidates that would beat the reported optimum (there should be none).

    Checks every unit vector and the quantized candidates
    ``round(c * t_raw)`` for ``c`` in 1..4.
    """
    t_raw, hnorm2 = _scale_rows(ch.h[None], ch.P)
    return _count_beating(_dominance_denominators(ch.h[None], ch.P, hnorm2, t_raw)[0], best_rate)


def _run_chunk(args) -> list:
    """Trials ``lo..hi-1`` of a run as ``(record, error or None)`` rows.

    Every trial draws its channel from its own ``(seed, trial)`` stream into
    one ``(m, n)`` array (see :func:`_draw_rows`).  The chunk checks those
    channels (they skip :class:`ChannelInstance`), builds every canonical row
    and tests the first unit vector on each, one call apiece.  Per trial, the
    row steps of ``solve`` and ``list_solve`` search, map back and fill its
    ``per_trial`` record; ``rate_avg`` adds the dominance count as ``beating``.
    """
    mode, n, P, seed, list_size, lo, hi = args
    h = _draw_rows(seed, lo, hi, n)
    _check_channels(h)
    t_raw, hnorm2, t, order, sign, f, q = _channel_rows(h, P)
    hnorm2_list = hnorm2.tolist()
    hits = _e1_optimal(t, f).tolist()

    def row(i):
        return h[i], P, hnorm2_list[i], t[i], order[i], sign[i], f[i], q[i]

    if mode == "e1_freq":
        def fields(i):
            return {"hit": int(hits[i])}
    elif mode == "node_ratio":
        norms = [n * math.sqrt(1.0 + P * x) for x in hnorm2_list]

        def fields(i):
            nodes = _visited_nodes(t[i], f[i], q[i])
            return {"nodes": nodes, "ratio": nodes / norms[i]}
    elif mode == "list":
        def fields(i):
            entries = _list_row(*row(i), list_size)
            return {"length": len(entries), "top_rate": entries[0][1] if entries else 0.0}
    elif mode == "rate_avg":
        denominators = _dominance_denominators(h, P, hnorm2, t_raw)

        def fields(i):
            rate = _solve_row(*row(i), hits[i]).rate
            return {"rate": rate, "beating": _count_beating(denominators[i], rate)}
    else:
        def fields(i):
            res = _solve_row(*row(i), hits[i])
            return {"rate": res.rate, "nodes": res.nodes_visited, "shortcut": int(res.used_shortcut)}
    rows = []
    for i, j in enumerate(range(lo, hi)):
        try:
            rows.append(({"trial": j, **fields(i)}, None))
        except NumericDegeneracyError as exc:
            rows.append(({"trial": j}, str(exc)))
    return rows


def _aggregate(cfg: TrialConfig, rows: list) -> tuple:
    """``(result, per_trial)`` of a run's rows; ``rate_avg`` pops each ``beating`` count."""
    records = [record for record, err in rows if err is None]

    def mean(name):
        return math.fsum(record[name] for record in records) / len(records) if records else 0.0

    degenerate = [record["trial"] for record, err in rows if err is not None]
    result: dict = {"degenerate_trials": degenerate}
    if cfg.mode == "e1_freq":
        result.update(e1_fraction=mean("hit"), hits=sum(record["hit"] for record in records))
    elif cfg.mode == "node_ratio":
        result.update(
            node_ratio_avg=mean("ratio"),
            node_ratio_max=max((record["ratio"] for record in records), default=0.0),
            nodes_avg=mean("nodes"),
        )
    elif cfg.mode == "rate_avg":
        result.update(
            rate_avg=mean("rate"),
            dominance_violations=sum(record.pop("beating") for record in records),
        )
    elif cfg.mode == "list":
        result.update(
            list_len_avg=mean("length"),
            top_rate_avg=mean("top_rate"),
            short_lists=sum(1 for record in records if record["length"] < cfg.list_size),
        )
    else:  # solve
        result.update(
            rate_avg=mean("rate"),
            nodes_avg=mean("nodes"),
            e1_fraction=mean("shortcut"),
        )
    return result, records


def run_trials(cfg: TrialConfig, parallel: int = 1, keep_per_trial: bool = False) -> TrialReport:
    """Run the configured mode over all trials and aggregate.

    A serial run is one chunk of all its trials, and ``parallel`` > 1 splits
    the run into chunks of ``max(1, trials // (parallel * 8))`` trials and
    distributes them over ``min(parallel, trials)`` worker processes.  Either
    way a chunk is capped at ``_CHUNK_ENTRIES // n`` trials so that its
    arrays stay small.  Because each trial reseeds from ``(seed, trial)``,
    every per-trial value is computed from that trial's channel alone, and
    the reduction is performed in trial order, the ``result`` field is
    identical at any parallelism and chunk size.

    The pool pays a fixed cost to start its workers, about 30 ms of wall
    time on a 2-core machine, so small runs finish sooner serially: 1,000
    ``e1_freq`` trials at n=8 took a median of 7 ms serially and 40 ms on
    two workers.

    Raises
    ------
    ValueError
        If ``parallel`` is not an integer >= 1.
    """
    if not _is_integer(parallel) or parallel < 1:
        raise ValueError(f"parallel must be an integer >= 1, got {parallel!r}")
    start = time.perf_counter()
    # each chunk pays a fixed cost (seed hashing, the generator, the builder),
    # so a serial run pays it as few times as the cap allows
    size = cfg.trials if parallel == 1 else cfg.trials // (parallel * 8)
    size = max(1, min(size, _CHUNK_ENTRIES // cfg.n))
    chunks = [
        (cfg.mode, cfg.n, cfg.P, cfg.seed, cfg.list_size, lo, min(lo + size, cfg.trials))
        for lo in range(0, cfg.trials, size)
    ]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=min(parallel, cfg.trials)) as pool:
            parts = list(pool.map(_run_chunk, chunks))
    else:
        parts = [_run_chunk(chunk) for chunk in chunks]
    rows = [row for part in parts for row in part]
    result, per_trial = _aggregate(cfg, rows)
    wall = time.perf_counter() - start
    return TrialReport(
        config=cfg,
        result=result,
        wall_time=wall,
        per_trial=tuple(per_trial) if keep_per_trial else (),
    )


def _headline(report: TrialReport) -> dict:
    cfg = report.config
    return {
        "mode": cfg.mode,
        "n": cfg.n,
        "snr_db": cfg.snr_db,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "list_size": cfg.list_size,
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
