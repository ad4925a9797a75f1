"""Command-line harness: single solves, list solves, benchmarks, oracle sweeps."""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .bench import (
    MODES, TrialConfig, _snr_power, emit_report, run_trials, sample_channel, trial_rng,
)
from .core import ChannelInstance, NumericDegeneracyError, ScaledChannel, _require_count
from .listsearch import list_solve
from .oracle import OracleInfeasibleError, brute_force_svp
from .search import modified_search, solve

_REL_TOL = 1e-9


def _parse_h(args) -> np.ndarray:
    """Channel from --h, --h-file, or a seeded random draw with --n."""
    if args.h is not None:
        parts = [p for p in re.split(r"[,\s]+", args.h.strip()) if p]
        return np.array([float(p) for p in parts])
    if args.h_file is not None:
        with open(args.h_file, "r", encoding="utf-8") as fh:
            return np.array([float(tok) for tok in fh.read().split()])
    if args.n is not None:
        return sample_channel(args.n, trial_rng(args.seed, 0))
    raise SystemExit("provide a channel via --h, --h-file, or --n with --seed")


def _add_channel_args(sub) -> None:
    sub.add_argument("--h", help="inline channel entries, comma or space separated")
    sub.add_argument("--h-file", help="file of whitespace-separated channel entries")
    sub.add_argument("--n", type=int, help="dimension for a random channel draw")
    sub.add_argument("--seed", type=int, default=0, help="seed for the random draw")
    sub.add_argument("--snr-db", type=float, required=True, help="SNR in dB; P = 10^(dB/10)")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    ch = ChannelInstance(h=_parse_h(args), P=_snr_power(args.snr_db))
    res = solve(ch, use_shortcut=not args.no_shortcut)
    record = {
        "n": ch.n,
        "snr_db": args.snr_db,
        "h": ch.h.tolist(),
        "a": res.a.tolist(),
        "rate": res.rate,
        "objective": res.objective,
        "nodes_visited": res.nodes_visited,
        "used_shortcut": res.used_shortcut,
    }
    _emit(json.dumps(record, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_list(args) -> int:
    ch = ChannelInstance(h=_parse_h(args), P=_snr_power(args.snr_db))
    entries = list_solve(ch, args.l)
    record = {
        "n": ch.n,
        "snr_db": args.snr_db,
        "h": ch.h.tolist(),
        "l": args.l,
        "entries": [{"a": a.tolist(), "rate": rate} for a, rate in entries],
    }
    _emit(json.dumps(record, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_bench(args) -> int:
    # emit_report would reject the pair too, but only after every trial ran
    if args.per_trial and args.format != "json-lines":
        raise ValueError("per-trial rows are only supported by json-lines")
    cfg = TrialConfig(
        mode=args.mode,
        n=args.n,
        snr_db=args.snr_db,
        trials=args.trials,
        seed=args.seed,
        list_size=args.l,
    )
    report = run_trials(cfg, parallel=args.parallel, keep_per_trial=args.per_trial)
    _emit(emit_report(report, fmt=args.format), args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    """Search-versus-oracle equivalence sweep over random channels."""
    _require_count(args.trials, "trials")
    _require_count(args.n, "n")
    checked = 0
    refused = 0
    mismatches = []
    P = _snr_power(args.snr_db)
    for j in range(args.trials):
        h = sample_channel(args.n, trial_rng(args.seed, j))
        ch = ChannelInstance(h=h, P=P)
        sc = ScaledChannel.from_channel(ch)
        try:
            reference = brute_force_svp(sc.t)
        except OracleInfeasibleError:
            refused += 1
            continue
        found = modified_search(sc)
        checked += 1
        if abs(found.objective - reference.objective) > _REL_TOL * reference.objective:
            mismatches.append(
                {"trial": j, "search": found.objective, "oracle": reference.objective}
            )
    record = {
        "mode": "oracle-check",
        "n": args.n,
        "snr_db": args.snr_db,
        "trials": args.trials,
        "seed": args.seed,
        "checked": checked,
        "refused": refused,
        "mismatches": mismatches,
    }
    _emit(json.dumps(record, sort_keys=True) + "\n", args.out)
    return 1 if mismatches or checked == 0 else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcoef",
        description="Optimal compute-and-forward coefficient vectors via sphere decoding",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="optimal vector and rate for one channel")
    _add_channel_args(p_solve)
    p_solve.add_argument("--no-shortcut", action="store_true",
                         help="skip the O(n) unit-vector optimality test")
    p_solve.add_argument("--out", help="write the JSON record here instead of stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_list = subs.add_parser("list", help="L best vectors and rates for one channel")
    _add_channel_args(p_list)
    p_list.add_argument("--l", type=int, required=True, help="list size L")
    p_list.add_argument("--out", help="write the JSON record here instead of stdout")
    p_list.set_defaults(func=_cmd_list)

    p_bench = subs.add_parser("bench", help="seeded Monte-Carlo statistics")
    p_bench.add_argument("--mode", required=True, choices=MODES)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--snr-db", type=float, required=True)
    p_bench.add_argument("--trials", type=int, required=True)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--l", type=int, default=None, help="list size for list mode")
    p_bench.add_argument("--parallel", type=int, default=1, help="worker processes")
    p_bench.add_argument("--format", choices=["json-lines", "csv"], default="json-lines")
    p_bench.add_argument("--per-trial", action="store_true",
                         help="keep one json-lines record per trial")
    p_bench.add_argument("--out", help="write the report here instead of stdout")
    p_bench.set_defaults(func=_cmd_bench)

    p_check = subs.add_parser("oracle-check",
                              help="compare the search against brute force enumeration")
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--snr-db", type=float, required=True)
    p_check.add_argument("--trials", type=int, required=True)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", help="write the JSON record here instead of stdout")
    p_check.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NumericDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
