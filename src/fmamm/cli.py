"""Command-line interface.

One subcommand per experiment: ``quote`` and ``settle`` for the pool and
batch primitives, ``backtest`` / ``sweep-fees`` / ``sweep-noise`` for the
counterfactual return studies, ``attack`` for the operator-vs-arbitrageur
profit bounds, ``mc-risk`` for the spread Monte Carlo, and ``split-demo``
for the trade-splitting path-dependence table.

A command computes and returns its :class:`Outputs`; :func:`main` prints
its stdout lines once it has returned, so a failing command prints no result
line, and then, when ``--out-dir`` is given, alone writes the rest: every
numeric result as CSV/JSON alongside a ``manifest.json`` recording the
command, resolved parameters, input digests, seed, and tool version, so
identical manifests reproduce outputs byte for byte (no wall-clock state
enters any output).  A failing command writes nothing to ``--out-dir`` and
does not create it.

This module alone turns numbers into out-dir CSV text.  Each writer walks
its columns :data:`CSV_CHUNK_ROWS` rows at a time and holds one chunk of
numbers and text: timestamps print as :func:`format_numbers`, every other
float as its ``repr`` (:func:`_repr_floats`), each column chunk by one
``orjson`` call, whose shortest round-trip digits are ``repr``'s.

Exit codes: 0 success, 2 input validation, 3 failed rebalance pin check.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np
import orjson

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
    cumulative_roi,
    format_number,
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

CSV_CHUNK_ROWS = 1 << 12


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Outputs(NamedTuple):
    """What a command leaves for :func:`main`: its stdout ``lines`` (at
    least one), and the rest for ``--out-dir``.

    ``files`` maps a file name to its JSON payload.  ``runs`` maps a run id
    to its value column, marked at each of ``marks``, the block grid's own
    timestamps shared by every run.  ``compared`` names two of the runs
    whose ROI gap goes into ``comparison.csv``.  The manifest records
    ``parameters`` (by default the command-line arguments), the config and
    ``inputs`` by digest, and ``seed``; ``inputs`` maps each input path to
    the SHA-256 of the bytes its loader parsed, or to None for an input that
    is not a regular file.
    """

    lines: list[str]
    files: dict
    runs: dict | None = None
    marks: np.ndarray | None = None
    parameters: dict | None = None
    inputs: dict | None = None
    seed: int | None = None
    compared: tuple[str, str] | None = None


def format_numbers(values) -> list[str]:
    """:func:`~fmamm.market_data.format_number` of each value.

    A column of integral values below 2**53 in magnitude (the usual epoch
    timestamps) converts to ``int64`` and is printed by one ``orjson`` call.
    """
    values = np.asarray(values, dtype=np.float64)
    if (np.abs(values) < 2**53).all() and (values == np.trunc(values)).all():
        return _dumped(values.astype(np.int64))
    return list(map(format_number, values.tolist()))


def _dumped(values: np.ndarray) -> list[str]:
    """``orjson``'s text of each element of a contiguous 1-D ``int64`` or
    ``float64`` array."""
    if not values.size:
        return []
    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")


def _repr_floats(column) -> list[str]:
    """``repr`` of each value of a float column.

    ``orjson`` prints the same shortest round-trip digits as ``repr`` (Ryū)
    at about an eighth of its cost, but in fixed point where ``repr`` uses an
    exponent, and ``null`` for NaN and infinities.  So each element that
    ``repr`` writes in exponent form, a nonzero magnitude outside
    ``[1e-4, 1e16)``, or that is not finite gets ``repr`` itself.
    """
    column = np.ascontiguousarray(column, dtype=np.float64)
    text = _dumped(column)
    magnitude = np.abs(column)
    odd = np.flatnonzero(((magnitude < 1e-4) & (column != 0.0)) | (magnitude >= 1e16)
                         | np.isnan(column))
    for i, value in zip(odd.tolist(), column[odd].tolist()):
        text[i] = repr(value)
    return text


def _rows(*parts) -> str:
    """The CSV text of a chunk's rows: each part is a column of field texts
    (lists of one length) or a constant piece (a ``str``), laid out in order
    on every row, so ``_rows(ts, ",", vs, "\\r\\n")`` equals the rows
    ``f"{t},{v}\\r\\n"``.  Every cell goes into one list, the constants by
    repeating one row's template and each column by one slice assignment,
    and the list is joined once."""
    width = len(parts)
    count = next(len(part) for part in parts if not isinstance(part, str))
    cells = [part if isinstance(part, str) else None for part in parts] * count
    for k, part in enumerate(parts):
        if not isinstance(part, str):
            cells[k::width] = part
    return "".join(cells)


def _write_runs(out: Path, marks: np.ndarray, runs: dict) -> None:
    """Each run's ``<run_id>_returns.csv`` and the plot-ready ``long.csv``
    (run_id,timestamp,metric,value), a chunk at a time.  Each run's values
    and :func:`cumulative_roi` are formatted once; the shared ``marks`` are
    formatted once per run, and again for ``comparison.csv``.

    Run ids are plain labels (no comma or quote), so they go in unquoted.  A
    run's ``cumulative_roi`` rows of ``long.csv`` follow all its ``value``
    rows, so they wait as bytes in an unnamed temporary file in ``out``,
    which is appended once the run is written.
    """
    with open(out / "long.csv", "w", newline="") as long:
        long.write("run_id,timestamp,metric,value\r\n")
        for run_id, values in runs.items():
            with (open(out / f"{run_id}_returns.csv", "w", newline="") as fh,
                  tempfile.TemporaryFile(dir=out) as spool):
                fh.write("timestamp,value,cumulative_roi\r\n")
                for lo in range(0, len(marks), CSV_CHUNK_ROWS):
                    rows = slice(lo, lo + CSV_CHUNK_ROWS)
                    ts, vs = format_numbers(marks[rows]), _repr_floats(values[rows])
                    rs = _repr_floats(cumulative_roi(values, rows))
                    fh.write(_rows(ts, ",", vs, ",", rs, "\r\n"))
                    long.write(_rows(f"{run_id},", ts, ",value,", vs, "\r\n"))
                    del vs  # freed before the ROI rows are built
                    spool.write(_rows(f"{run_id},", ts, ",cumulative_roi,", rs, "\r\n").encode())
                long.flush()
                spool.seek(0)
                shutil.copyfileobj(spool, long.buffer)


def _write_comparison(path, marks: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``comparison.csv``: the ROI gap ``cumulative_roi(a) - cumulative_roi(b)``
    between two value columns marked at ``marks``, derived a chunk at a time."""
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,roi_difference\r\n")
        for lo in range(0, len(marks), CSV_CHUNK_ROWS):
            rows = slice(lo, lo + CSV_CHUNK_ROWS)
            gap = cumulative_roi(a, rows) - cumulative_roi(b, rows)
            fh.write(_rows(format_numbers(marks[rows]), ",", _repr_floats(gap), "\r\n"))


def _reserves(args) -> Reserves:
    return Reserves(args.y, args.x_reserve)


def cmd_quote(args) -> Outputs:
    reserves = _reserves(args)
    sign = args.side_sign if args.side_sign is not None else (1.0 if args.trade >= 0 else -1.0)
    base = pre_fee_price(reserves, args.trade, args.fee)
    effective = effective_price(reserves, args.trade, args.fee, sign)
    lines = [f"pre-fee price    {base:.6f}", f"effective price  {effective:.6f}"]
    if args.trade != 0.0 and args.trade < reserves.x:
        lines.append(f"cpamm average    {cpamm_average_price(reserves, args.trade):.6f}")
    return Outputs(lines, {"quote.json": {
        "pre_fee_price": base, "effective_price": effective, "net_trade": args.trade,
        "fee": args.fee, "order_sign": sign, "y": reserves.y, "x": reserves.x}})


def cmd_settle(args) -> Outputs:
    reserves = _reserves(args)
    inputs = {}
    batches = load_order_batches(args.orders, inputs)
    lines, reports = [], []
    for batch in batches:
        reserves, report = settle_batch(reserves, batch, args.fee)
        reports.append(report.to_dict())
        fills = ", ".join(
            f"{f.order_id}@{f.price:.6f}" for f in report.fills
        )
        lines.append(
            f"block {batch.block_index}: net {report.net_trade:+.6f} "
            f"matched {report.matched_volume:.6f} pre-fee {report.pre_fee_price:.6f} | {fills}"
        )
    lines.append(f"final reserves: y={reserves.y!r} x={reserves.x!r}")
    final = {"y": reserves.y, "x": reserves.x}
    return Outputs(lines, {"settlements.json": {"reports": reports, "final_reserves": final}},
                   inputs=inputs)


def _load_scenario(args, inputs: dict, needs_swaps=False):
    """The config, its block grid (the dense series is dropped once sampled)
    and start reserves; the config's and the price CSV's digests go into
    ``inputs``."""
    cfg = ScenarioConfig.from_json(args.config, inputs)
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
    records = None if cfg.swap_csv is None else load_swap_records(cfg.swap_csv, inputs)
    result = run_fmamm_backtest(grid, cfg.fee, NO_NOISE, initial)
    lines = [f"{cfg.pair}: {grid.p_stars.size} blocks, fee {cfg.fee}",
             f"fm_amm terminal roi {result.terminal_roi:+.6%} ({result.n_rebalances} rebalances)"]
    runs = {"fm_amm": result.values}
    summary = {"config": asdict(cfg), "fm_amm": result.summary}
    files = {"summary.json": summary}
    if records is not None:
        baseline = run_baseline(records, grid.marks, cfg.baseline_liquidity,
                                cfg.compound_cadence)
        # both venues are marked on the run's block grid
        baseline_roi = float(cumulative_roi(baseline, slice(-1, None))[0])
        gap_pp = 100.0 * (result.terminal_roi - baseline_roi)
        lines += [f"uniswap terminal roi {baseline_roi:+.6%}",
                  f"difference {gap_pp:+.4f}pp (fm_amm minus uniswap)"]
        runs["uniswap_v3_full_range"] = baseline
        summary["uniswap_v3_full_range"] = {"terminal_roi": baseline_roi}
        summary["terminal_difference_pp"] = gap_pp
    # comparison.csv is fm_amm minus uniswap, when there is a baseline
    return Outputs(lines, files, runs, grid.marks.timestamps, asdict(cfg), inputs, cfg.seed,
                   None if records is None else tuple(runs))


def cmd_sweep_fees(args) -> Outputs:
    """One zero-noise backtest per distinct fee of ``fee_grid``, on the same
    path and start state; a run keeps its values and the numbers printed."""
    inputs = {}
    cfg, grid, initial = _load_scenario(args, inputs)
    runs, rows, lines = {}, [], [f"{cfg.pair}: zero-noise terminal roi by fee"]
    for tau in dict.fromkeys(cfg.fee_grid):
        result = run_fmamm_backtest(grid, tau, NO_NOISE, initial)
        runs[sweep_run_id("fee", tau)] = result.values
        rows.append({"fee": tau, "terminal_roi": result.terminal_roi,
                     "n_rebalances": result.n_rebalances})
        lines.append(f"  fee {format_number(tau):<8} roi {result.terminal_roi:+.6%}  "
                     f"rebalances {result.n_rebalances}")
    return Outputs(lines, {"summary.json": {"config": asdict(cfg), "rows": rows}},
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
    lines = [f"{cfg.pair}: terminal roi by noise fraction (fee {cfg.fee}, {cfg.noise_direction})",
             f"  (fractions are of TOTAL baseline volume; the share of its noise volume "
             f"assumes ~{NOISE_SHARE_OF_VOLUME:.0%} of volume is noise)"]
    rows = []
    for fraction, roi in rois.items():
        diff_pp = 100.0 * (roi - rois[0.0])
        noise_share = fraction / NOISE_SHARE_OF_VOLUME
        lines.append(f"  fraction {format_number(fraction):<6} (~{noise_share:.0%} of noise "
                     f"volume) roi {roi:+.6%}  vs zero-noise {diff_pp:+.4f}pp")
        rows.append({"fraction": fraction, "approx_noise_volume_share": noise_share,
                     "terminal_roi": roi, "diff_vs_zero_noise_pp": diff_pp})
    return Outputs(lines, {"summary.json": {"config": asdict(cfg), "rows": rows}},
                   runs, grid.marks.timestamps, asdict(cfg), inputs, cfg.seed)


def cmd_attack(args) -> Outputs:
    reserves = _reserves(args)
    x_op, op_profit = malicious_operator_attack(reserves, args.p_star)
    x_arb, arb_profit = cpamm_arbitrage_profit(reserves, args.p_star)
    ratio = op_profit / arb_profit if arb_profit > 0 else 0.5
    lines = [f"batch-operator attack:  trade {x_op:+.6f}  profit {op_profit:.6f}",
             f"cpamm arbitrageur:      trade {x_arb:+.6f}  profit {arb_profit:.6f}",
             f"operator/cpamm profit ratio: {ratio:.6f}"]
    return Outputs(lines, {"attack.json": {
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
    z = "n/a" if result.z_score is None else f"{result.z_score:.2f}"
    lines = [f"mean objective, base prices:   {result.mean_value_base:.6f}",
             f"mean objective, spread prices: {result.mean_value_spread:.6f}",
             f"difference {result.difference:.6f} (paired se {result.paired_se:.6f}, "
             f"z {z}, n {result.n_draws})"]
    return Outputs(lines, {"mc_risk.json": asdict(result)}, seed=args.seed)


def cmd_split_demo(args) -> Outputs:
    reserves = _reserves(args)
    lines, rows = [f"splitting a trade of {args.trade} into n sequential batches:"], []
    for n in args.n:
        final = split_trade_experiment(reserves, args.trade, n)
        lines.append(f"  n {n:<8d} final numeraire reserve {final.y:.6f}")
        rows.append({"n": n, "final_y": final.y, "final_x": final.x})
    if args.trade < reserves.x:
        limit = reserves.y * reserves.x / (reserves.x - args.trade)
        lines.append(f"  constant-product limit       {limit:.6f}")
    return Outputs(lines, {"split_demo.json": {"rows": rows}})


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
        print(*outputs.lines, sep="\n")
        if args.out_dir is None:
            return 0
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if outputs.runs:
            _write_runs(out, outputs.marks, outputs.runs)
        if outputs.compared:
            a, b = (outputs.runs[run_id] for run_id in outputs.compared)
            _write_comparison(out / "comparison.csv", outputs.marks, a, b)
        for name, payload in outputs.files.items():
            _write_json(out / name, payload)
        parameters = outputs.parameters
        if parameters is None:
            parameters = {k: v for k, v in vars(args).items() if not callable(v)}
        _write_json(out / "manifest.json", {
            "command": args.command, "config": getattr(args, "config", None),
            "parameters": parameters, "inputs": outputs.inputs or {},
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
