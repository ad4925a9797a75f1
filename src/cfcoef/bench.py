"""Monte-Carlo benchmark harness with reproducible per-trial RNG streams.

Every trial ``j`` of a run draws its channel from a generator seeded by
the pair ``(seed, j)``, so results do not depend on execution order or on
the degree of parallelism; aggregation is a deterministic reduction over
trial index.

Trials run in chunks of at most ``_CHUNK_ENTRIES`` channel entries: a
serial run is as few chunks as that cap allows, and a pooled run gives each
worker about eight.  A chunk's front has two forms with the same bytes.
The compiled front (:mod:`cfcoef._native`, ``_draw.c``) hashes every
trial's ``SeedSequence([seed, j])`` into its PCG64 seed words, seeds a C
port of PCG64 from them and fills the trial's row by numpy's own normal
kernel, all in one call; after the channel check (they skip
:class:`ChannelInstance`) and numpy's ``||h||^2``, one more call builds
every canonical row by the float operations of the builder that ``solve``
and ``list_solve`` call and tests the first unit vector on each.  Where
that library does not load, the whole front runs in numpy: each trial
draws its row from its own :func:`trial_rng`, and the builder and the test
run as ``solve`` runs them.  Either way the draws are bit for bit those of
:func:`trial_rng`, which remains the one-trial reference, and the rows
those of ``solve``.  The ``solve``, ``rate_avg`` and ``node_ratio``
searches walk all the chunk's rows in one call of the compiled walk
(:func:`~cfcoef.search._walk_rows`; ``list`` searches per trial).
``solve`` and ``rate_avg`` map back and form every answer of the chunk in
one pass and take one rate per trial, and ``rate_avg`` evaluates every
row's dominance candidates as arrays and rates them only where a form
threshold cannot decide the count (``list`` maps back per trial).  A chunk
answers by column, one per field of its mode; the ``per_trial`` records are
built only when kept.  Each value is the same float the single-channel calls
give, so the ``result`` bytes and per-trial rows do not depend on the chunk size.
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
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import _native
from .core import (
    _OVERFLOW,
    NumericDegeneracyError,
    _channel_rows,
    _check_channels,
    _e1_optimal,
    _is_integer,
    _is_real,
    _quadratic_forms,
    _rate,
    _require_count,
    _row_dots,
    _unit_form,
)
from .listsearch import _list_row
from .search import _walk_rows

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
            # NumPy scalars are stored as Python numbers, which the report serializes
            object.__setattr__(self, name, value if value is None else int(value))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        min_n = 2 if self.mode in _STATISTICAL_MODES else 1
        if self.n < min_n:
            raise ValueError(f"n must be at least {min_n} for mode {self.mode!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.list_size is not None and self.list_size < 1:
            raise ValueError(f"list_size must be at least 1, got {self.list_size!r}")
        if self.mode == "list" and self.list_size is None:
            raise ValueError("list mode requires list_size >= 1")
        if not _is_real(self.snr_db):
            raise ValueError(f"snr_db must be a real number, got {self.snr_db!r}")
        _snr_power(self.snr_db)
        object.__setattr__(self, "snr_db", float(self.snr_db))

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

    This is the reference stream: ``run_trials`` draws the same values, by
    the compiled chunk front for a whole chunk of trials at once where it
    loads and by this generator per trial otherwise.

    Raises
    ------
    ValueError
        If ``seed`` or ``trial`` is not a non-negative integer.
    """
    for name, value in (("seed", seed), ("trial", trial)):
        if not _is_integer(value) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial)]))


def sample_channel(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. standard normal channel gains."""
    _require_count(n, "n")
    return rng.standard_normal(n)


def _draw_rows(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """The ``(hi-lo, n)`` channels of trials ``lo..hi-1``, bit for bit those of
    ``sample_channel(n, trial_rng(seed, j))``.  Where the compiled chunk front
    (:mod:`cfcoef._native`) loads, one call hashes every trial's
    ``SeedSequence([seed, j])`` words, seeds its ``PCG64`` from them and draws
    its row; otherwise each row is drawn from :func:`trial_rng` itself.
    """
    h = np.empty((hi - lo, n))
    lib = _native.drawer()
    if lib is not None:
        lib.cf_draw_rows(seed, lo, hi - lo, n, h.ctypes.data)
        return h
    for j, row in enumerate(h, lo):
        trial_rng(seed, j).standard_normal(out=row)
    return h


def _chunk_rows(h: np.ndarray, P: float) -> tuple:
    """:func:`~cfcoef.core._channel_rows` of the checked ``(m, n)`` channels
    ``h`` followed by :func:`~cfcoef.core._e1_optimal` of its rows, as
    ``(t_raw, hnorm2, t, order, sign, f, q, hits)``, bit for bit.

    Where the compiled chunk front loads, ``hnorm2`` still comes from
    :func:`~cfcoef.core._row_dots` and one call of ``cf_channel_rows``
    forms the rest by the same float operations in the same order; an
    overflow is the same ``ValueError``.  That call reads the raw buffer
    of ``h`` and writes ``order`` as int64 (numpy's ``intp`` on 64-bit
    platforms).  Otherwise the numpy builder and test run, the reference.
    Either way ``h`` is read as a C-contiguous float64 array, a copy for
    any other layout or dtype (a chunk's own array is one), since BLAS sums
    ``||h||^2`` of a strided row in another order than of a contiguous one.
    """
    h = np.ascontiguousarray(h, dtype=np.float64)
    lib = _native.drawer()
    if lib is None:
        rows = _channel_rows(h, P)
        return (*rows, _e1_optimal(rows[2], rows[5]))
    m, n = h.shape
    with np.errstate(over="ignore"):
        hnorm2 = _row_dots(h, h)
    t_raw, t, q = np.empty((m, n)), np.empty((m, n)), np.empty((m, n))
    order, sign = np.empty((m, n), dtype=np.int64), np.empty((m, n), dtype=np.int64)
    f, hits = np.empty((m, n + 1)), np.empty(m, dtype=np.bool_)
    if lib.cf_channel_rows(m, n, P, *(a.ctypes.data for a in (h, hnorm2, t_raw, t, order, sign, f, q, hits))):
        raise ValueError(_OVERFLOW)
    return t_raw, hnorm2, t, order, sign, f, q, hits


def _solve_rows(h, P, hnorm2, t, order, sign, f, q, hits) -> tuple:
    """``solve`` on every row of a chunk as ``(rates, nodes, errors)`` lists.

    The rows whose unit-vector test failed are walked, in one
    :func:`~cfcoef.search._walk_rows` call.  The rows answered by
    the first unit vector, from the test or from the walk, are formed by one
    :func:`~cfcoef.core._unit_form` pass; the other answers are mapped back by
    one scatter and formed by one :func:`~cfcoef.core._quadratic_forms` call.
    Each row then takes one ``_rate``, so every rate is the float of
    :func:`~cfcoef.search._solve_row`.  ``errors[i]`` is the message of the
    first ``NumericDegeneracyError`` that ``solve`` raises on row ``i``, an
    entry beyond int64 before a degenerate form; ``rates[i]`` is then nan.
    """
    m, n = t.shape
    rows = np.flatnonzero(~hits)
    best, moved, tests, _, wide = _walk_rows(t, f, q, rows, shrink=True)
    nodes, errors = np.zeros(m, dtype=np.int64), [None] * m
    nodes[rows] = tests
    for r, message in wide.items():
        errors[rows[r]] = message
    fits = moved.copy()
    fits[list(wide)] = False
    walked = rows[fits]
    a = np.zeros((walked.size, n), dtype=np.int64)
    a[np.arange(walked.size)[:, None], order[walked]] = sign[walked] * best[fits]
    unit = hits.copy()
    unit[rows[~moved]] = True
    forms = np.full(m, np.nan)
    with np.errstate(over="ignore"):
        forms[unit] = _unit_form(h[unit, order[unit, 0]], P, hnorm2[unit])
    forms[walked] = _quadratic_forms(h[walked], P, hnorm2[walked], a[:, None, :].astype(np.float64))[:, 0]
    rates = [math.nan] * m
    for i, form in enumerate(forms.tolist()):
        if errors[i] is None:
            try:
                rates[i] = _rate(form)
            except NumericDegeneracyError as exc:
                errors[i] = str(exc)
    return rates, nodes.tolist(), errors


def _dominance_denominators(h: np.ndarray, P: float, hnorm2: np.ndarray, t_raw: np.ndarray) -> np.ndarray:
    """The quadratic forms of each channel row's dominance candidates, shape ``(m, n + 4)``.

    The candidates are every unit vector, then ``round(c * t_raw)`` for ``c``
    in 1..4, in that order; a zero quantized candidate has no rate and its
    entry is ``+inf``, which never beats and never degenerates.  Each other
    value is the float :func:`~cfcoef.core.computation_rate` evaluates: the
    unit vectors' forms come from :func:`~cfcoef.core._unit_form` over every
    row at once; the four quantized candidates of every row go through
    :func:`~cfcoef.core._quadratic_forms` as one ``(m, 4, n)`` array, whose
    dots sum in the same order as the single-channel call.
    """
    cands = np.rint(_MULTIPLES * t_raw[:, None, :])
    forms = _quadratic_forms(h, P, hnorm2, cands)
    forms[~cands.any(axis=2)] = np.inf
    return np.concatenate((_unit_form(h, P, hnorm2[:, None]), forms), axis=1)


def _dominance_counts(denominators: np.ndarray, rates: list, errors: list) -> list:
    """Per row ``i``, the candidates of ``denominators[i]`` whose rate beats
    ``rates[i] + _RATE_SLACK``; rows with an error in ``errors`` are skipped.

    Only the candidates below ``min(1, 2**(-2*(rate + slack)) * (1 + 2**-20))``,
    floored at ``2**-1000`` so that it is a normal float, are rated, in row
    order, so the first degenerate one (a nan or nonpositive form is below
    any threshold) records its own message in ``errors``.  Proof that no
    other candidate beats: a form of 1 or more rates 0.0.  A form ``d``
    below 1 and at or above the threshold has ``-0.5*log2(d)`` at least
    ``0.5*log2(1 + 2**-20)``, about 7e-7, below ``rate + slack`` (the floor
    only raises the threshold), and ``exp2``, ``log2`` and the roundings err
    by far less, about 1e-13 at the largest rates a float form allows.
    """
    limits = np.exp2(-2.0 * (np.array(rates) + _RATE_SLACK)) * (1.0 + 2.0**-20)
    rows, cols = np.nonzero(~(denominators >= np.clip(limits, 2.0**-1000, 1.0)[:, None]))
    counts = [0] * len(rates)
    for i, denom in zip(rows.tolist(), denominators[rows, cols].tolist()):
        if errors[i] is None:
            try:
                counts[i] += _rate(denom) > rates[i] + _RATE_SLACK
            except NumericDegeneracyError as exc:
                errors[i] = str(exc)
    return counts


def _run_chunk(args) -> tuple:
    """Trials ``lo..hi-1`` of a run as ``(columns, errors)``: a list of Python
    values per field of the mode, and each trial's error message or None (a
    trial with a message holds placeholder values).

    The chunk draws its channels (see :func:`_draw_rows`), checks them (they
    skip :class:`ChannelInstance`), and builds every canonical row and tests
    the first unit vector on each (see :func:`_chunk_rows`).  ``node_ratio``
    counts its nodes in one fixed-radius :func:`~cfcoef.search._walk_rows` call;
    ``list`` runs ``list_solve``'s row step per trial; ``solve`` and
    ``rate_avg`` rate the chunk with :func:`_solve_rows`, and ``rate_avg``
    adds the dominance count as ``beating``.
    """
    mode, n, P, seed, list_size, lo, hi = args
    h = _draw_rows(seed, lo, hi, n)
    _check_channels(h)
    t_raw, hnorm2, t, order, sign, f, q, hits = _chunk_rows(h, P)
    m = hi - lo
    if mode == "e1_freq":
        return {"hit": hits.astype(int).tolist()}, [None] * m
    if mode == "node_ratio":
        nodes = _walk_rows(t, f, q, np.arange(m), shrink=False)[2] - 1
        # correctly rounded operations: the floats of k / (n * math.sqrt(1.0 + P * x))
        ratios = nodes / (n * np.sqrt(1.0 + P * hnorm2))
        return {"nodes": nodes.tolist(), "ratio": ratios.tolist()}, [None] * m
    if mode == "list":
        lengths, tops, errors = [0] * m, [0.0] * m, [None] * m
        for i, x in enumerate(hnorm2.tolist()):
            try:
                entries = _list_row(h[i], P, x, t[i], order[i], sign[i], f[i], q[i], list_size)
            except NumericDegeneracyError as exc:
                errors[i] = str(exc)
            else:
                lengths[i] = len(entries)
                tops[i] = entries[0][1] if entries else 0.0
        return {"length": lengths, "top_rate": tops}, errors
    rates, nodes, errors = _solve_rows(h, P, hnorm2, t, order, sign, f, q, hits)
    if mode == "rate_avg":
        beating = _dominance_counts(_dominance_denominators(h, P, hnorm2, t_raw), rates, errors)
        return {"rate": rates, "beating": beating}, errors
    return {"rate": rates, "nodes": nodes, "shortcut": hits.astype(int).tolist()}, errors


def _aggregate(cfg: TrialConfig, parts: list, keep_per_trial: bool) -> tuple:
    """``(result, per_trial)`` of a run's :func:`_run_chunk` answers, in trial order.

    The trials with an error are dropped; each mean is ``math.fsum`` of the
    kept values in trial order.  ``per_trial`` is built only if ``keep_per_trial``.
    """
    errors = list(chain.from_iterable(chunk_errors for _, chunk_errors in parts))
    cols = {name: list(chain.from_iterable(columns[name] for columns, _ in parts)) for name in parts[0][0]}
    degenerate, kept = [], range(len(errors))
    if errors.count(None) != len(errors):
        degenerate = [j for j, err in enumerate(errors) if err is not None]
        kept = [j for j, err in enumerate(errors) if err is None]
        cols = {name: [col[j] for j in kept] for name, col in cols.items()}

    def mean(name):
        return math.fsum(cols[name]) / len(kept) if kept else 0.0

    result: dict = {"degenerate_trials": degenerate}
    if cfg.mode == "e1_freq":
        result.update(e1_fraction=mean("hit"), hits=sum(cols["hit"]))
    elif cfg.mode == "node_ratio":
        result.update(node_ratio_avg=mean("ratio"), node_ratio_max=max(cols["ratio"], default=0.0),
                      nodes_avg=mean("nodes"))
    elif cfg.mode == "rate_avg":
        result.update(rate_avg=mean("rate"), dominance_violations=sum(cols.pop("beating")))
    elif cfg.mode == "list":
        result.update(list_len_avg=mean("length"), top_rate_avg=mean("top_rate"),
                      short_lists=sum(1 for length in cols["length"] if length < cfg.list_size))
    else:  # solve
        result.update(rate_avg=mean("rate"), nodes_avg=mean("nodes"), e1_fraction=mean("shortcut"))
    if not keep_per_trial:
        return result, ()
    names = ("trial", *cols)
    return result, tuple(dict(zip(names, row)) for row in zip(kept, *cols.values()))


def run_trials(cfg: TrialConfig, parallel: int = 1, keep_per_trial: bool = False) -> TrialReport:
    """Run the configured mode over all trials and aggregate.

    A serial run is one chunk of all its trials, and ``parallel`` > 1 splits
    the run into chunks of ``max(1, trials // (parallel * 8))`` trials and
    distributes them over ``min(parallel, chunks, usable CPUs)`` processes.  Either
    way a chunk is capped at ``_CHUNK_ENTRIES // n`` trials so that its
    arrays stay small.  Because each trial reseeds from ``(seed, trial)``,
    every per-trial value is computed from that trial's channel alone, and
    the reduction is performed in trial order, the ``result`` field is
    identical at any parallelism and chunk size.

    The pool pays a fixed cost to start its workers, so small runs finish
    sooner serially; README's "Determinism" section gives a measurement.  In
    the pool, the first chunk to raise ends the run: the chunks not yet
    started are cancelled, the running ones end, and the error of the first
    failed chunk in trial order, the serial run's error, is raised.

    Raises
    ------
    ValueError
        If ``parallel`` is not an integer of at least 1.
    """
    _require_count(parallel, "parallel")
    start = time.perf_counter()
    # each chunk pays a fixed cost (seed hashing, the draw, the builder),
    # so a serial run pays it as few times as the cap allows
    size = cfg.trials if parallel == 1 else cfg.trials // (parallel * 8)
    size = max(1, min(size, _CHUNK_ENTRIES // cfg.n))
    chunks = [
        (cfg.mode, cfg.n, cfg.P, cfg.seed, cfg.list_size, lo, min(lo + size, cfg.trials))
        for lo in range(0, cfg.trials, size)
    ]
    if parallel > 1:
        # with fork, the pool starts every worker at once: no more than chunks or usable CPUs
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with ProcessPoolExecutor(max_workers=min(parallel, len(chunks), cpus or 1)) as pool:
            futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
            wait(futures, return_when=FIRST_EXCEPTION)
            # after an error the chunks not yet started are dropped and the
            # running ones end; chunks start in trial order, so the first
            # failed chunk precedes every dropped one, and its error is the
            # one a serial run raises
            pool.shutdown(cancel_futures=True)
            parts = [fut.result() for fut in futures]
    else:
        parts = [_run_chunk(chunk) for chunk in chunks]
    result, per_trial = _aggregate(cfg, parts, keep_per_trial)
    wall = time.perf_counter() - start
    return TrialReport(config=cfg, result=result, wall_time=wall, per_trial=per_trial)


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
