"""Command-line interface.

One subcommand per experiment: ``quote`` and ``settle`` for the pool and
batch primitives, ``backtest`` / ``sweep-fees`` / ``sweep-noise`` for the
counterfactual return studies, ``attack`` for the operator-vs-arbitrageur
profit bounds, ``mc-risk`` for the spread Monte Carlo, and ``split-demo``
for the trade-splitting path-dependence table.

A command computes and prints its human-readable table to stdout, and
returns its :class:`Outputs`.  When ``--out-dir`` is given, :func:`main`
alone writes them: every numeric result as CSV/JSON alongside a
``manifest.json`` recording the command, resolved parameters, input digests,
seed, and tool version, so identical manifests reproduce outputs byte for
byte (no wall-clock state enters any output).  A failing command writes
nothing to ``--out-dir`` and does not create it.

Exit codes: 0 success, 2 input validation, 3 failed rebalance pin check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from fmamm import __version__
from fmamm.amm import (
    ConvergenceError,
    Reserves,
    cpamm_average_price,
    effective_price,
    pre_fee_price,
)
from fmamm.arbitrage import cpamm_arbitrage_profit, malicious_operator_attack
from fmamm.backtest import (
    NO_NOISE,
    NoiseScenario,
    ScenarioConfig,
    _check_seed,
    balanced_reserves,
    block_grid_series,
    risk_monte_carlo,
    run_fmamm_backtest,
    sweep_run_id,
)
from fmamm.batch import load_order_batches, settle_batch, split_trade_experiment
from fmamm.market_data import (
    _sha256,
    cumulative_roi,
    format_number,
    formatted_chunks,
    load_price_series,
)
from fmamm.uniswap import load_swap_records, per_block_swap_volume, run_baseline

__all__ = ["main"]

# external labeling estimate: share of a typical venue's volume that is noise
# trading rather than arbitrage or attack flow; used only to annotate the
# noise sweep's second volume label, never in any computation
NOISE_SHARE_OF_VOLUME = 0.6

# mc-risk peaks at about 74 bytes per draw under tracemalloc (measured at
# 1e5 draws), so the largest run accepted stays under 1 GB
MAX_DRAWS = 10**7


def _file_sha256(path) -> str | None:
    """A regular file's SHA-256; None for a pipe, FIFO or device, which a
    second read would find drained or block on."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    with open(path, "rb") as fh:
        return _sha256(fh)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Outputs(NamedTuple):
    """What a command leaves for ``--out-dir``.

    ``files`` maps a file name to a JSON payload or a ``write(path)``
    callable.  ``runs`` maps a run id to its value column, marked at each
    of ``marks``, the block grid's own timestamps shared by every run.  The
    manifest records ``parameters`` (by default the command-line arguments),
    the config and ``inputs`` by digest, and ``seed``; ``inputs`` maps each
    input path to the SHA-256 its loader took, or to None for ``main`` to
    hash the file if it is a regular one (anything else is recorded as null).
    """

    files: dict
    runs: dict | None = None
    marks: np.ndarray | None = None
    parameters: dict | None = None
    inputs: dict | None = None
    seed: int | None = None


def _write_runs(out: Path, marks: np.ndarray, runs: dict) -> None:
    """Each run's ``<run_id>_returns.csv`` and the plot-ready ``long.csv``
    (run_id,timestamp,metric,value), all from one formatting of each column:
    the shared ``marks``, and each run's values and :func:`cumulative_roi`.

    Run ids are plain labels (no comma or quote), so they go in unquoted.  A
    run's ``cumulative_roi`` rows wait in memory until its ``value`` rows are out.
    """
    with open(out / "long.csv", "w", newline="") as long:
        long.write("run_id,timestamp,metric,value\r\n")
        for run_id, values in runs.items():
            pending: list[str] = []
            with open(out / f"{run_id}_returns.csv", "w", newline="") as fh:
                fh.write("timestamp,value,cumulative_roi\r\n")
                for ts, vs, rs in formatted_chunks(marks, values, cumulative_roi(values)):
                    fh.write("".join([f"{t},{v},{r}\r\n" for t, v, r in zip(ts, vs, rs)]))
                    long.write("".join([f"{run_id},{t},value,{v}\r\n" for t, v in zip(ts, vs)]))
                    pending.append("".join(
                        [f"{run_id},{t},cumulative_roi,{r}\r\n" for t, r in zip(ts, rs)]))
            long.writelines(pending)


def _write_comparison(path, timestamps, roi_difference) -> None:
    """``comparison.csv``: the ROI gap between two venues marked on one grid."""
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,roi_difference\r\n")
        for ts, ds in formatted_chunks(timestamps, roi_difference):
            fh.write("".join([f"{t},{d}\r\n" for t, d in zip(ts, ds)]))


def _reserves(args) -> Reserves:
    return Reserves(args.y, args.x_reserve)


def cmd_quote(args) -> Outputs:
    reserves = _reserves(args)
    sign = args.side_sign if args.side_sign is not None else (1.0 if args.trade >= 0 else -1.0)
    base = pre_fee_price(reserves, args.trade, args.fee)
    effective = effective_price(reserves, args.trade, args.fee, sign)
    print(f"pre-fee price    {base:.6f}")
    print(f"effective price  {effective:.6f}")
    if args.trade != 0.0 and args.trade < reserves.x:
        print(f"cpamm average    {cpamm_average_price(reserves, args.trade):.6f}")
    return Outputs({"quote.json": {
        "pre_fee_price": base, "effective_price": effective, "net_trade": args.trade,
        "fee": args.fee, "order_sign": sign, "y": reserves.y, "x": reserves.x}})


def cmd_settle(args) -> Outputs:
    reserves = _reserves(args)
    batches = load_order_batches(args.orders)
    reports = []
    for batch in batches:
        reserves, report = settle_batch(reserves, batch, args.fee)
        reports.append(report.to_dict())
        fills = ", ".join(
            f"{f.order_id}@{f.price:.6f}" for f in report.fills
        )
        print(
            f"block {batch.block_index}: net {report.net_trade:+.6f} "
            f"matched {report.matched_volume:.6f} pre-fee {report.pre_fee_price:.6f} | {fills}"
        )
    print(f"final reserves: y={reserves.y!r} x={reserves.x!r}")
    return Outputs({"settlements.json": {"reports": reports,
                                         "final_reserves": {"y": reserves.y, "x": reserves.x}}},
                   inputs={args.orders: None})


def _load_scenario(args, inputs: dict, needs_swaps=False):
    """The config, its block grid (the dense series is dropped once sampled)
    and start reserves; the price CSV's digest goes into ``inputs``."""
    cfg = ScenarioConfig.from_json(args.config)
    if needs_swaps and (cfg.swap_csv is None or cfg.pool_fee is None):
        raise ValueError(f"{args.config}: {args.command} needs config keys 'swap_csv' and "
                         "'pool_fee' to infer per-block baseline volume")
    prices = load_price_series(cfg.price_csv, cfg.pair, inputs)
    p0 = float(prices.prices[0])
    if not p0 * cfg.initial_x < math.inf:
        raise ValueError(f"{args.config}: config key 'initial_x' {cfg.initial_x!r} at the "
                         f"first price {p0!r} overflows the numeraire reserve")
    return cfg, block_grid_series(prices, cfg.mu, cfg.gamma), balanced_reserves(p0, cfg.initial_x)


def cmd_backtest(args) -> Outputs:
    inputs = {}
    cfg, grid, initial = _load_scenario(args, inputs)
    # every input is checked before anything is printed
    records = None if cfg.swap_csv is None else load_swap_records(cfg.swap_csv, inputs)
    result = run_fmamm_backtest(grid, cfg.fee, NO_NOISE, initial)
    print(f"{cfg.pair}: {grid.p_stars.size} blocks, fee {cfg.fee}")
    print(f"fm_amm terminal roi {result.terminal_roi:+.6%} ({result.n_rebalances} rebalances)")
    runs = {"fm_amm": result.values}
    summary = {"config": asdict(cfg), "fm_amm": result.summary}
    files = {"summary.json": summary}
    if records is not None:
        baseline = run_baseline(records, grid.marks, cfg.baseline_liquidity,
                                cfg.compound_cadence)
        # both venues are marked on the run's block grid
        baseline_roi = cumulative_roi(baseline)
        gap = cumulative_roi(result.values) - baseline_roi
        gap_pp = float(100.0 * gap[-1])
        print(f"uniswap terminal roi {baseline_roi[-1]:+.6%}")
        print(f"difference {gap_pp:+.4f}pp (fm_amm minus uniswap)")
        runs["uniswap_v3_full_range"] = baseline
        summary["uniswap_v3_full_range"] = {"terminal_roi": float(baseline_roi[-1])}
        summary["terminal_difference_pp"] = gap_pp
        files["comparison.csv"] = lambda path: _write_comparison(path, grid.marks.timestamps, gap)
    return Outputs(files, runs, grid.marks.timestamps, asdict(cfg), inputs, cfg.seed)


def cmd_sweep_fees(args) -> Outputs:
    """One zero-noise backtest per distinct fee of ``fee_grid``, on the same
    path and start state; a run keeps its values and the numbers printed."""
    inputs = {}
    cfg, grid, initial = _load_scenario(args, inputs)
    runs, rows = {}, []
    for tau in dict.fromkeys(cfg.fee_grid):
        result = run_fmamm_backtest(grid, tau, NO_NOISE, initial)
        runs[sweep_run_id("fee", tau)] = result.values
        rows.append({"fee": tau, "terminal_roi": result.terminal_roi,
                     "n_rebalances": result.n_rebalances})
    print(f"{cfg.pair}: zero-noise terminal roi by fee")
    for row in rows:
        print(f"  fee {format_number(row['fee']):<8} roi {row['terminal_roi']:+.6%}  "
              f"rebalances {row['n_rebalances']}")
    return Outputs({"summary.json": {"config": asdict(cfg), "rows": rows}},
                   runs, grid.marks.timestamps, asdict(cfg), inputs, cfg.seed)


def cmd_sweep_noise(args) -> Outputs:
    inputs = {}
    cfg, grid, initial = _load_scenario(args, inputs, needs_swaps=True)
    volume = per_block_swap_volume(load_swap_records(cfg.swap_csv, inputs),
                                   grid.marks.timestamps, cfg.pool_fee)
    # one backtest per distinct fraction, with zero first unless listed, so
    # each entry is reported against the zero-noise floor
    fractions = list(dict.fromkeys(cfg.noise_fractions))
    if 0.0 not in fractions:
        fractions.insert(0, 0.0)
    runs, rois = {}, {}
    for fraction in fractions:
        scenario = NoiseScenario(fraction, cfg.noise_direction, cfg.seed)
        result = run_fmamm_backtest(grid, cfg.fee, scenario, initial, volume)
        runs[sweep_run_id("noise", fraction)] = result.values
        rois[fraction] = result.terminal_roi
    print(f"{cfg.pair}: terminal roi by noise fraction (fee {cfg.fee}, {cfg.noise_direction})")
    print(f"  (fractions are of TOTAL baseline volume; the share of its noise volume "
          f"assumes ~{NOISE_SHARE_OF_VOLUME:.0%} of volume is noise)")
    rows = []
    for fraction, roi in rois.items():
        diff_pp = 100.0 * (roi - rois[0.0])
        noise_share = fraction / NOISE_SHARE_OF_VOLUME
        print(f"  fraction {format_number(fraction):<6} (~{noise_share:.0%} of noise volume) "
              f"roi {roi:+.6%}  vs zero-noise {diff_pp:+.4f}pp")
        rows.append({"fraction": fraction, "approx_noise_volume_share": noise_share,
                     "terminal_roi": roi, "diff_vs_zero_noise_pp": diff_pp})
    return Outputs({"summary.json": {"config": asdict(cfg), "rows": rows}},
                   runs, grid.marks.timestamps, asdict(cfg), inputs, cfg.seed)


def cmd_attack(args) -> Outputs:
    reserves = _reserves(args)
    x_op, op_profit = malicious_operator_attack(reserves, args.p_star)
    x_arb, arb_profit = cpamm_arbitrage_profit(reserves, args.p_star)
    print(f"batch-operator attack:  trade {x_op:+.6f}  profit {op_profit:.6f}")
    print(f"cpamm arbitrageur:      trade {x_arb:+.6f}  profit {arb_profit:.6f}")
    ratio = op_profit / arb_profit if arb_profit > 0 else 0.5
    print(f"operator/cpamm profit ratio: {ratio:.6f}")
    return Outputs({"attack.json": {
        "p_star": args.p_star, "y": reserves.y, "x": reserves.x,
        "operator_trade": x_op, "operator_profit": op_profit,
        "cpamm_trade": x_arb, "cpamm_profit": arb_profit, "ratio": ratio}})


def cmd_mc_risk(args) -> Outputs:
    reserves = _reserves(args)
    base_price = args.base_price
    if base_price is None:
        base_price = reserves.spot_price
    elif not 0.0 < base_price < math.inf:
        raise ValueError(f"--base-price must be positive and finite, got {base_price!r}")
    if not 2 <= args.n_draws <= MAX_DRAWS:
        bound = "at least 2 for a paired se" if args.n_draws < 2 else f"at most {MAX_DRAWS=}"
        raise ValueError(f"--n-draws: n_draws must be {bound}, got {args.n_draws}")
    _check_seed(args.seed, "--seed")
    base = np.full(args.n_draws, base_price)
    result = risk_monte_carlo(base, args.epsilon_sd, reserves, args.fee, seed=args.seed)
    print(f"mean objective, base prices:   {result.mean_value_base:.6f}")
    print(f"mean objective, spread prices: {result.mean_value_spread:.6f}")
    z = "n/a" if result.z_score is None else f"{result.z_score:.2f}"
    print(f"difference {result.difference:.6f} (paired se {result.paired_se:.6f}, "
          f"z {z}, n {result.n_draws})")
    return Outputs({"mc_risk.json": asdict(result)}, seed=args.seed)


def cmd_split_demo(args) -> Outputs:
    reserves = _reserves(args)
    # every row before the first line, so a failing n prints nothing
    finals = [split_trade_experiment(reserves, args.trade, n) for n in args.n]
    print(f"splitting a trade of {args.trade} into n sequential batches:")
    for n, final in zip(args.n, finals):
        print(f"  n {n:<8d} final numeraire reserve {final.y:.6f}")
    rows = [{"n": n, "final_y": final.y, "final_x": final.x} for n, final in zip(args.n, finals)]
    if args.trade < reserves.x:
        limit = reserves.y * reserves.x / (reserves.x - args.trade)
        print(f"  constant-product limit       {limit:.6f}")
    return Outputs({"split_demo.json": {"rows": rows}})


def _add_reserves_args(parser) -> None:
    parser.add_argument("--y", type=float, required=True, help="numeraire reserve")
    parser.add_argument("--x-reserve", type=float, required=True, help="asset reserve")


def _add_out_dir(parser) -> None:
    parser.add_argument("--out-dir", default=None, help="write CSV/JSON outputs and a manifest here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmamm",
        description="Batch-settled function-maximizing AMM simulator",
    )
    parser.add_argument("--version", action="version", version=f"fmamm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quote", help="price a net batch trade")
    _add_reserves_args(p)
    p.add_argument("--trade", type=float, required=True, help="signed net trade in asset units")
    p.add_argument("--fee", type=float, default=0.0)
    p.add_argument("--buy", dest="side_sign", action="store_const", const=1.0,
                   help="price the buy side of the batch")
    p.add_argument("--sell", dest="side_sign", action="store_const", const=-1.0,
                   help="price the sell side of the batch")
    _add_out_dir(p)
    p.set_defaults(func=cmd_quote, side_sign=None)

    p = sub.add_parser("settle", help="settle JSON-lines order batches")
    _add_reserves_args(p)
    p.add_argument("--orders", required=True, help="JSON-lines file of {block, trader_kind, amount}")
    p.add_argument("--fee", type=float, default=0.0)
    _add_out_dir(p)
    p.set_defaults(func=cmd_settle)

    p = sub.add_parser("backtest", help="zero-noise counterfactual backtest from a scenario config")
    p.add_argument("--config", required=True, help="scenario JSON path")
    _add_out_dir(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("sweep-fees", help="zero-noise backtest per fee in the config grid")
    p.add_argument("--config", required=True)
    _add_out_dir(p)
    p.set_defaults(func=cmd_sweep_fees)

    p = sub.add_parser("sweep-noise", help="backtest per noise fraction of baseline volume")
    p.add_argument("--config", required=True)
    _add_out_dir(p)
    p.set_defaults(func=cmd_sweep_noise)

    p = sub.add_parser("attack", help="censoring-operator vs cpamm arbitrage profits")
    _add_reserves_args(p)
    p.add_argument("--p-star", type=float, required=True, help="external price")
    _add_out_dir(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("mc-risk", help="value-function Monte Carlo under a price spread")
    _add_reserves_args(p)
    p.add_argument("--fee", type=float, default=0.003)
    p.add_argument("--epsilon-sd", type=float, required=True, help="spread size in price units")
    p.add_argument("--base-price", type=float, default=None,
                   help="degenerate base price (default: pool spot)")
    p.add_argument("--n-draws", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_out_dir(p)
    p.set_defaults(func=cmd_mc_risk)

    p = sub.add_parser("split-demo", help="path dependence of split trades")
    _add_reserves_args(p)
    p.add_argument("--trade", type=float, required=True)
    p.add_argument("--n", type=int, nargs="+", default=[1, 10, 100, 10_000])
    _add_out_dir(p)
    p.set_defaults(func=cmd_split_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outputs = args.func(args)
        if args.out_dir is None:
            return 0
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if outputs.runs:
            _write_runs(out, outputs.marks, outputs.runs)
        for name, payload in outputs.files.items():
            if callable(payload):
                payload(out / name)
            else:
                _write_json(out / name, payload)
        config = getattr(args, "config", None)
        inputs = {config: None} if config is not None else {}
        inputs.update(outputs.inputs or {})
        parameters = outputs.parameters
        if parameters is None:
            parameters = {k: v for k, v in vars(args).items() if not callable(v)}
        _write_json(out / "manifest.json", {
            "command": args.command, "config": config, "parameters": parameters,
            "inputs": {str(p): digest or _file_sha256(p) for p, digest in inputs.items()},
            "seed": outputs.seed, "version": __version__})
        return 0
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
