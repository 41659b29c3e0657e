"""Command-line interface tests: outputs, exit codes, and reproducibility."""

import builtins
import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fmamm
import fmamm.cli
from fmamm.backtest import (
    NoiseScenario,
    ScenarioConfig,
    balanced_reserves,
    block_grid_series,
    run_fmamm_backtest,
)
from fmamm.cli import MAX_DRAWS, main
from fmamm.market_data import GbmParams, PriceSeries, sample_gbm_path
from fmamm.uniswap import SWAP_LOG_DTYPE, per_block_swap_volume, run_baseline


def checkout_env():
    """The environment for a fresh interpreter that imports the `fmamm` under test."""
    return dict(os.environ, PYTHONPATH=str(Path(fmamm.__file__).parents[1]))


def write_price_csv(path, seed=0, blocks=200, price=2000.0, vol=0.001):
    series = sample_gbm_path(
        GbmParams(price, vol, step_seconds=12, horizon_seconds=12 * blocks, seed=seed,
                  start_time=1_680_000_000)
    )
    lines = ["timestamp,price"]
    lines += [f"{int(t)},{float(p)!r}" for t, p in zip(series.timestamps, series.prices)]
    path.write_text("\n".join(lines) + "\n")
    return series


def write_swap_csv(path, series, pool_fee=0.003, every=3):
    rng = np.random.default_rng(1)
    lines = ["block,timestamp,fee_amount,fee_token,active_liquidity,post_price"]
    for i in range(1, len(series), every):
        t, p = series.timestamps[i], series.prices[i]
        volume = rng.uniform(0.5, 2.0)
        lines.append(f"{i},{int(t)},{float(volume * pool_fee * p)!r},token1,1e9,{float(p)!r}")
    path.write_text("\n".join(lines) + "\n")


def write_config(path, price_csv, swap_csv=None, **overrides):
    cfg = {"pair": "WETH-USDT", "price_csv": str(price_csv), "fee": 0.003, "seed": 3}
    if swap_csv is not None:
        cfg["swap_csv"] = str(swap_csv)
        cfg["pool_fee"] = 0.003
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestQuote:
    def test_buy_quote(self, capsys):
        assert main(["quote", "--y", "20000", "--x-reserve", "10", "--trade", "1", "--fee", "0"]) == 0
        out = capsys.readouterr().out
        assert "2500.000000" in out

    def test_zero_trade_marginal(self, capsys):
        assert main(["quote", "--y", "20000", "--x-reserve", "10", "--trade", "0"]) == 0
        assert "2000.000000" in capsys.readouterr().out

    def test_pole_is_validation_error(self, capsys):
        assert main(["quote", "--y", "20000", "--x-reserve", "10", "--trade", "6"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["quote", "--y", "20000", "--x-reserve", "10", "--trade", "nan"],
        ["quote", "--y", "inf", "--x-reserve", "10", "--trade", "1"],
        ["attack", "--y", "20000", "--x-reserve", "10", "--p-star", "inf"],
    ])
    def test_non_finite_input_is_validation_error(self, argv, capsys):
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err

    def test_sell_side_flag(self, capsys):
        assert main(
            ["quote", "--y", "20000", "--x-reserve", "10", "--trade", "1", "--fee", "0.1", "--sell"]
        ) == 0
        assert "2250.000000" in capsys.readouterr().out

    def test_overflowing_denominator_is_validation_error(self, tmp_path, capsys):
        # x - 2t overflows to inf, which wrote prices of 0.0 where the true
        # one is about 5e-309
        argv = ["quote", "--y", "1", "--x-reserve", "1", "--trade=-1e308"]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == ("error: fm-amm price denominator overflows at y=1.0, x=1.0, "
                               "trade -1e+308\n")
        assert not (tmp_path / "out").exists()


class TestSettle:
    def test_settles_batches(self, tmp_path, capsys):
        orders = tmp_path / "orders.jsonl"
        orders.write_text(
            '{"block": 1, "trader_kind": "noise", "amount": 1.0}\n'
            '{"block": 1, "trader_kind": "noise", "amount": -1.0}\n'
            '{"block": 2, "trader_kind": "arbitrageur", "amount": 1.0}\n'
        )
        code = main(["settle", "--y", "20000", "--x-reserve", "10", "--orders", str(orders),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "block 1" in out and "block 2" in out
        data = json.loads((tmp_path / "out" / "settlements.json").read_text())
        assert data["reports"][0]["matched_volume"] == 1.0
        assert data["final_reserves"]["x"] == 9.0

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        orders = tmp_path / "orders.jsonl"
        orders.write_text('\n{"block": 1, "trader_kind": "noise", "amount": 1.0}\n\n'
                          '{"block": 2, "trader_kind": "noise", "amount": -1.0}\n\n')
        assert main(["settle", "--y", "20000", "--x-reserve", "10", "--orders", str(orders)]) == 0
        out = capsys.readouterr().out
        assert "block 1: net +1.000000" in out and "block 2: net -1.000000" in out

    def test_one_sided_batch_matches_positive_zero(self, tmp_path, capsys):
        orders = tmp_path / "orders.jsonl"
        orders.write_text('{"block": 1, "trader_kind": "noise", "amount": 1.0}\n'
                          '{"block": 2, "trader_kind": "noise", "amount": -1.0}\n')
        assert main(["settle", "--y", "20000", "--x-reserve", "10", "--orders", str(orders),
                     "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert out.count(" matched 0.000000 ") == 2 and "-0.0" not in out
        text = (tmp_path / "out" / "settlements.json").read_text()
        assert '"matched_volume": 0.0,' in text and "-0.0" not in text

    def test_null_order_id_is_validation_error(self, tmp_path, capsys):
        orders = tmp_path / "orders.jsonl"
        orders.write_text('{"block": 1, "trader_kind": "noise", "amount": 1.0, "id": null}\n'
                          '{"block": 1, "trader_kind": "noise", "amount": 2.0, "id": null}\n')
        assert main(["settle", "--y", "20000", "--x-reserve", "10", "--orders", str(orders)]) == 2
        err = capsys.readouterr().err
        assert f"{orders}:1: bad order line: id must be a string, got None" in err

    @pytest.mark.parametrize("amount", ["1e308", "-1e308"])
    def test_overflowing_batch_is_validation_error(self, tmp_path, capsys, amount):
        orders = tmp_path / "orders.jsonl"
        orders.write_text(f'{{"block": 1, "trader_kind": "noise", "amount": {amount}}}\n'
                          f'{{"block": 1, "trader_kind": "arbitrageur", "amount": {amount}}}\n')
        code = main(["settle", "--y", "20000", "--x-reserve", "10", "--orders", str(orders),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "error: block 1: batch sums overflow" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, named", [
        ('{"block": 1.5, "trader_kind": "noise", "amount": 1.0}', "block must be an integer, got 1.5"),
        ('{"block": true, "trader_kind": "noise", "amount": -0.5}',
         "block must be an integer, got True"),
        ('{"block": 1, "trader_kind": "noise", "amount": "2"}',
         "amount must be a finite number, got '2'"),
    ])
    def test_order_fields_are_not_coerced(self, tmp_path, capsys, line, named):
        orders = tmp_path / "orders.jsonl"
        orders.write_text('{"block": 1, "trader_kind": "noise", "amount": 1.0}\n' + line + "\n")
        code = main(["settle", "--y", "20000", "--x-reserve", "10", "--orders", str(orders),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {orders}:2: bad order line: {named}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, named", [
        (b'{"block": 2, "trader_kind": "no\xffise", "amount": 1.0}',
         "'utf-8' codec can't decode byte 0xff in position 31: invalid start byte"),
        # decoded line by line as the text it is, a byte-order mark stays a bad character
        (b'\xef\xbb\xbf{"block": 2, "trader_kind": "noise", "amount": 1.0}',
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ], ids=["undecodable", "byte-order mark"])
    def test_undecodable_byte_names_the_line(self, tmp_path, capsys, line, named):
        orders = tmp_path / "orders.jsonl"
        orders.write_bytes(b'{"block": 1, "trader_kind": "noise", "amount": 1.0}\n' + line + b"\n")
        assert main(["settle", "--y", "20000", "--x-reserve", "10", "--orders", str(orders)]) == 2
        assert capsys.readouterr().err == f"error: {orders}:2: bad order line: {named}\n"

    def test_missing_orders_file(self, tmp_path, capsys):
        code = main(["settle", "--y", "1", "--x-reserve", "1", "--orders", str(tmp_path / "no.jsonl")])
        assert code == 2


class TestBacktestCommand:
    def test_smoke_and_outputs(self, tmp_path, capsys):
        series = write_price_csv(tmp_path / "prices.csv")
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv")
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(cfg), "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "terminal roi" in stdout
        for name in ("fm_amm_returns.csv", "uniswap_v3_full_range_returns.csv",
                     "comparison.csv", "summary.json", "long.csv", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["config"] == str(cfg)
        assert len(manifest["inputs"]) == 3  # config, prices, swaps

    def test_relative_paths_resolve_against_the_working_directory(self, tmp_path, monkeypatch,
                                                                   capsys):
        # a config's relative input paths name files under the working
        # directory, not the config's own, and the manifest keeps them as given
        monkeypatch.chdir(tmp_path)
        series = write_price_csv(tmp_path / "prices.csv")
        write_swap_csv(tmp_path / "swaps.csv", series)
        (tmp_path / "sub").mkdir()
        for name in ("prices.csv", "swaps.csv"):
            (tmp_path / "sub" / name).write_text("not a csv\n")
        write_config(tmp_path / "sub" / "cfg.json", "prices.csv", "swaps.csv")
        assert main(["backtest", "--config", "sub/cfg.json", "--out-dir", "out"]) == 0, \
            capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["inputs"] == {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("sub/cfg.json", "prices.csv", "swaps.csv")}

    @pytest.mark.parametrize("gamma", [0, 5])
    def test_comparison_is_the_roi_gap(self, tmp_path, capsys, gamma):
        series = write_price_csv(tmp_path / "prices.csv")
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           gamma=gamma)
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(cfg), "--out-dir", str(out)]) == 0
        fm, uni, gap = (np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2) for name in (
            "fm_amm_returns.csv", "uniswap_v3_full_range_returns.csv", "comparison.csv"))
        assert gap.shape == (201, 2)
        assert np.array_equal(gap[:, 0], fm[:, 0]) and np.array_equal(gap[:, 0], uni[:, 0])
        assert np.array_equal(gap[:, 1], fm[:, 2] - uni[:, 2])
        gap_pp = json.loads((out / "summary.json").read_text())["terminal_difference_pp"]
        assert gap_pp == 100.0 * gap[-1, 1]
        assert f"difference {gap_pp:+.4f}pp" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        write_price_csv(tmp_path / "prices.csv")
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["backtest", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
        assert main(["backtest", "--config", str(cfg), "--out-dir", str(out_b)]) == 0
        for name in ("fm_amm_returns.csv", "summary.json", "long.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_missing_price_file_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "absent.csv")
        assert main(["backtest", "--config", str(cfg)]) == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"pair": "A-B", "price_csv": "p.csv", "wat": 1}')
        assert main(["backtest", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command, overrides, named", [
        ("backtest", {"mu": "12"}, "'mu'"),
        ("backtest", {"gamma": "0"}, "'gamma'"),
        ("backtest", {"initial_x": "1"}, "'initial_x'"),
        ("backtest", {"fee": "0.003"}, "'fee'"),
        ("backtest", {"mu": True}, "'mu'"),
        ("backtest", {"baseline_liquidity": "x"}, "'baseline_liquidity'"),
        ("backtest", {"fee_grid": 0.003}, "'fee_grid'"),
        ("sweep-fees", {"fee": "0.003"}, "'fee'"),
        ("sweep-fees", {"fee_grid": [0.0, "0.003"]}, "'fee_grid'"),
        ("backtest", None, "JSON object"),
        # well typed, but out of range
        ("backtest", {"noise_direction": "up"}, "'noise_direction'"),
        ("backtest", {"noise_fractions": [-0.5]}, "'noise_fractions'"),
        ("backtest", {"pool_fee": 1.5}, "'pool_fee'"),
        ("backtest", {"pool_fee": 0.0}, "'pool_fee'"),
        ("backtest", {"initial_x": 0}, "'initial_x'"),
        ("sweep-fees", {"compound_cadence": "weekly"}, "'compound_cadence'"),
        ("sweep-fees", {"fee": 2.0}, "'fee'"),
        ("sweep-fees", {"fee_grid": [0.0, 1.0]}, "'fee_grid'"),
        ("sweep-fees", {"baseline_liquidity": 0}, "'baseline_liquidity'"),
        ("sweep-noise", {"initial_x": -1.0}, "'initial_x'"),
        # in range, but the start reserves overflow at the first price
        ("backtest", {"initial_x": 1e308}, "'initial_x' 1e+308 at the first price 2000.0"),
        # an empty grid would run nothing and exit 0
        ("sweep-fees", {"fee_grid": []}, "'fee_grid' must be non-empty"),
        ("backtest", {"pair": 5}, "config key 'pair' must be a string, got 5"),
        ("backtest", {"seed": 1.5}, "config key 'seed' must be an integer, got 1.5"),
        ("sweep-noise", {"seed": -1, "noise_direction": "random_sign"},
         "config key 'seed' must be non-negative, got -1"),
        # checked before any CSV is read: the price file does not exist
        ("backtest", {"price_csv": "absent.csv", "mu": 0}, "config key 'mu' must be positive"),
        ("sweep-fees", {"price_csv": "absent.csv", "gamma": 12},
         "config key 'gamma' must be in [0, mu) with mu=12.0, got 12"),
        ("sweep-noise", {"price_csv": "absent.csv", "mu": 6, "gamma": -1}, "'gamma'"),
        ("sweep-noise", {"price_csv": "absent.csv"}, "config keys 'swap_csv' and 'pool_fee'"),
        # subnormal sizes
        ("backtest", {"price_csv": "absent.csv", "initial_x": 1e-320},
         "config key 'initial_x' must be at least 2.2250738585072014e-308, got 1e-320"),
        ("sweep-fees", {"price_csv": "absent.csv", "baseline_liquidity": 1e-320},
         "config key 'baseline_liquidity' must be at least"),
        # the config's JSON text: json would keep the last fee and run at 0.003
        ("backtest", '{"pair": "A-B", "price_csv": "prices.csv", "fee": 0.9, "fee": 0.003}',
         "config key 'fee' is given more than once"),
    ])
    def test_mistyped_config_is_validation_error(self, tmp_path, capsys, monkeypatch, command,
                                                 overrides, named):
        monkeypatch.chdir(tmp_path)
        write_price_csv(tmp_path / "prices.csv", blocks=10)
        cfg = tmp_path / "cfg.json"
        if overrides is None:
            cfg.write_text("[1, 2]")
        elif isinstance(overrides, str):
            cfg.write_text(overrides)
        else:
            write_config(cfg, **{"price_csv": tmp_path / "prices.csv", **overrides})
        assert main([command, "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err


    def test_invalid_json_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pair": "WETH-USDT",')
        assert main(["backtest", "--config", str(cfg)]) == 2
        assert f"error: {cfg}: invalid JSON: " in capsys.readouterr().err

    def test_undecodable_config_is_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"pair": "WETH-USDT", "price_csv": "p\xff.csv"}')
        assert main(["backtest", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}: invalid JSON: 'utf-8' codec can't "
                                           "decode byte 0xff in position 37: invalid start byte\n")

    def test_null_swap_csv_runs_without_baseline(self, tmp_path, capsys):
        write_price_csv(tmp_path / "prices.csv", blocks=10)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv")
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "swap_csv": None}))
        assert main(["backtest", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        assert "uniswap" not in capsys.readouterr().out
        assert not (tmp_path / "out" / "comparison.csv").exists()

    def test_trade_at_the_pole_is_validation_error(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text("timestamp,price\n0,2000\n12,2000\n24,2e16\n")
        cfg = write_config(tmp_path / "cfg.json", prices, fee=0.0)
        assert main(["backtest", "--config", str(cfg)]) == 2
        assert ("error: block 2 (t=24): net trade 0.49999999999995 is at or beyond the price "
                "pole x/2 = 0.5") in capsys.readouterr().err

    def test_decreasing_swap_timestamp_names_the_line(self, tmp_path, capsys):
        write_price_csv(tmp_path / "prices.csv", blocks=20)
        swaps = tmp_path / "swaps.csv"
        swaps.write_text(
            "block,timestamp,fee_amount,fee_token,active_liquidity,post_price\n"
            "1,1680000150,0.5,token1,1e9,2000.0\n"
            "1,1680000120,0.5,token1,1e9,2000.0\n"
            "2,1680000230,0.5,token1,1e9,2000.0\n"
        )
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", swaps)
        for command in ("backtest", "sweep-noise"):
            assert main([command, "--config", str(cfg)]) == 2
            out, err = capsys.readouterr()
            assert "swaps.csv:3: timestamp 1680000120 before the previous" in err, err
            assert out == "", (command, out)  # checked before anything is printed

    @pytest.mark.parametrize("which, row", [
        ("prices", "1680000012,-1.0"),
        ("prices", "1680000012,nan"),
        ("prices", "1680000012.5,2000.0"),
        ("prices", "1680000000,2000.0"),
        ("prices", "   "),
        ("swaps", "1,1680000012,0.5,token2,1e9,2000.0"),
        ("swaps", "1,1680000012,-0.5,token1,1e9,2000.0"),
        ("swaps", "1,1680000012,0.5,token1,0,2000.0"),
        ("swaps", "1,1680000012,0.5,token1,1e9"),
        ("swaps", "9223372036854775808,1680000012,0.5,token1,1e9,2000.0"),
        # between the swaps at blocks 4 (t=48) and 7 (t=84): a decreasing
        # block, an infinite liquidity, an infinite price
        ("swaps", "3,1680000060,0.5,token1,1e9,2000.0"),
        ("swaps", "5,1680000060,0.5,token1,inf,2000.0"),
        ("swaps", "5,1680000060,0.5,token1,1e9,inf"),
    ])
    def test_malformed_csv_row_names_its_line(self, tmp_path, capsys, which, row):
        """Every command that reads the file gives it one verdict: exit 2
        naming the line, and no out-dir."""
        series = write_price_csv(tmp_path / "prices.csv", blocks=20)
        write_swap_csv(tmp_path / "swaps.csv", series)
        path = tmp_path / f"{which}.csv"
        lines = path.read_text().splitlines()
        lines.insert(3, row)
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv")
        for command in ("backtest", "sweep-noise"):
            out = tmp_path / f"out-{command}"
            assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"{which}.csv:4:" in err, (command, err)
            assert not out.exists()


class TestSweepCommands:
    def test_sweep_fees(self, tmp_path, capsys):
        write_price_csv(tmp_path / "prices.csv", blocks=100)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv",
                           fee_grid=[0.0, 0.003])
        out = tmp_path / "out"
        assert main(["sweep-fees", "--config", str(cfg), "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "fee 0 " in stdout and "fee 0.003" in stdout
        rows = json.loads((out / "summary.json").read_text())["rows"]
        assert [r["fee"] for r in rows] == [0.0, 0.003]

    def test_noise_sweep(self, tmp_path, capsys):
        series = write_price_csv(tmp_path / "prices.csv", blocks=100)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           noise_fractions=[0.1, 0.3])
        out = tmp_path / "out"
        assert main(["sweep-noise", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = json.loads((out / "summary.json").read_text())["rows"]
        assert [r["fraction"] for r in rows] == [0.0, 0.1, 0.3]
        diffs = [r["diff_vs_zero_noise_pp"] for r in rows]
        assert diffs[0] == 0.0
        assert diffs[1] <= diffs[2] + 1e-12

    def test_duplicate_grid_entries_run_once(self, tmp_path, capsys, monkeypatch):
        series = write_price_csv(tmp_path / "prices.csv", blocks=100)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           fee_grid=[0.003, 0.003, 0.0], noise_fractions=[0.1, 0.1])
        calls = []
        run = fmamm.cli.run_fmamm_backtest
        monkeypatch.setattr("fmamm.cli.run_fmamm_backtest",
                            lambda *args: calls.append(args[1:3]) or run(*args))
        for command, key, grid, runs in (
            ("sweep-fees", "fee", [0.003, 0.0], ["fee_0.003", "fee_0"]),
            ("sweep-noise", "fraction", [0.0, 0.1], ["noise_0", "noise_0.1"]),
        ):
            calls.clear()
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split()[1] for line in lines if line.startswith(f"  {key} ")] == [
                f"{v:g}" for v in grid]
            rows = json.loads((out / "summary.json").read_text())["rows"]
            assert [r[key] for r in rows] == grid
            assert sorted(f.name for f in out.glob("*_returns.csv")) == sorted(
                f"{run}_returns.csv" for run in runs)
            if command == "sweep-fees":
                assert [tau for tau, _ in calls] == grid
            else:
                assert [noise.fraction for _, noise in calls] == grid

    def test_grid_values_equal_to_six_digits_get_a_run_each(self, tmp_path, capsys):
        series = write_price_csv(tmp_path / "prices.csv", blocks=40)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           fee_grid=[0.001, 0.0010000001], noise_fractions=[0.3, 0.30000001])
        for command, key, grid, runs in (
            ("sweep-fees", "fee", [0.001, 0.0010000001], ["fee_0.001", "fee_0.0010000001"]),
            ("sweep-noise", "fraction", [0.0, 0.3, 0.30000001],
             ["noise_0", "noise_0.3", "noise_0.30000001"]),
        ):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len([line for line in lines if line.startswith(f"  {key} ")]) == len(grid)
            rows = json.loads((out / "summary.json").read_text())["rows"]
            assert [r[key] for r in rows] == grid
            assert sorted(f.name for f in out.glob("*_returns.csv")) == sorted(
                f"{run}_returns.csv" for run in runs)
            long_ids = [line.split(",")[0] for line in
                        (out / "long.csv").read_text().splitlines()[1:]]
            assert list(dict.fromkeys(long_ids)) == runs
            assert len(long_ids) == len(runs) * 2 * 41
        assert main(["backtest", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("command, key, width, runs", [
        ("sweep-fees", "fee", 8, ["fee_0.001", "fee_0.0010000001"]),
        ("sweep-noise", "fraction", 6, ["noise_0", "noise_0.1", "noise_0.10000001"]),
    ])
    def test_stdout_names_each_entry_as_its_run_id(self, tmp_path, capsys, command, key, width,
                                                   runs):
        # ``:g`` printed 0.001 and 0.0010000001 (or 0.1 and 0.10000001) alike
        series = write_price_csv(tmp_path / "prices.csv", blocks=40)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           fee_grid=[0.001, 0.0010000001], noise_fractions=[0.1, 0.10000001])
        assert main([command, "--config", str(cfg)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith(f"  {key} ")]
        names = [run.split("_")[1] for run in runs]
        assert [line.split()[1] for line in lines] == names
        # padded as before
        assert lines[0].startswith(f"  {key} {names[0]:<{width}} ")

    @pytest.mark.parametrize("command, runs", [("sweep-fees", 4), ("sweep-noise", 3)])
    def test_each_kept_run_is_one_value_column(self, tmp_path, capsys, monkeypatch, command,
                                               runs):
        # a run keeps only its values; the grid's own timestamps mark them all
        series = write_price_csv(tmp_path / "prices.csv", blocks=60)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           fee_grid=[0.0, 0.0005, 0.003, 0.01], noise_fractions=[0.1, 0.3])
        grids = []
        sample = fmamm.cli.block_grid_series
        monkeypatch.setattr(fmamm.cli, "block_grid_series",
                            lambda *args: grids.append(sample(*args)) or grids[-1])
        args = fmamm.cli.build_parser().parse_args([command, "--config", str(cfg)])
        outputs = args.func(args)
        (grid,) = grids
        assert len(outputs.runs) == runs
        for values in outputs.runs.values():
            assert isinstance(values, np.ndarray) and values.ndim == 1
            assert values.dtype == np.float64 and not values.flags.writeable
        blocks = grid.p_stars.size
        assert sum(values.nbytes for values in outputs.runs.values()) == runs * 8 * (blocks + 1)
        assert np.shares_memory(outputs.marks, grid.marks.timestamps)

    def test_one_forward_fill_warning_per_command(self, tmp_path):
        # a 372 s gap in the price rows: each command samples the block grid
        # once, for all of its runs, and warns once, at a latency too, where
        # the trade prices are sampled with the marks (the last mark before
        # the gap's end is 360 s stale, the last trade price 367 s).  It
        # counts blocks: the marks of blocks 65-69 are over 300 s stale, and
        # at a latency the trade prices of blocks 65-70 too
        series = write_price_csv(tmp_path / "prices.csv", blocks=100)
        write_swap_csv(tmp_path / "swaps.csv", series)
        lines = (tmp_path / "prices.csv").read_text().splitlines()
        (tmp_path / "prices.csv").write_text("\n".join(lines[:41] + lines[71:]) + "\n")
        for gamma, stale, filled in ((0, 360, 5), (5, 367, 6)):
            cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv",
                               tmp_path / "swaps.csv", gamma=gamma,
                               fee_grid=[0.0, 0.003], noise_fractions=[0.1])
            for command in ("backtest", "sweep-fees", "sweep-noise"):
                done = subprocess.run(
                    [sys.executable, "-m", "fmamm.cli", command, "--config", str(cfg)],
                    env=checkout_env(), capture_output=True, text=True, timeout=120)
                assert done.returncode == 0, done.stderr
                assert done.stderr.count("forward-filled") == 1, (gamma, command, done.stderr)
                assert f"forward-filled {filled} of 100 blocks" in done.stderr, done.stderr
                assert f"(max gap {stale}s)" in done.stderr

    @pytest.mark.parametrize("gamma", [0, 5])
    def test_one_block_grid_per_command(self, tmp_path, capsys, monkeypatch, gamma):
        # the marks, and at a latency the trade prices with them, are sampled
        # in one call per command, however many runs share them
        series = write_price_csv(tmp_path / "prices.csv", blocks=60)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           gamma=gamma, fee_grid=[0.0, 0.0005, 0.003, 0.01],
                           noise_fractions=[0.1, 0.3])
        calls = []
        for module, name in ((fmamm.cli, "block_grid_series"), (fmamm.backtest, "block_grid_series"),
                             (fmamm.cli, "run_fmamm_backtest")):
            def counting(*args, _name=name, _call=getattr(module, name)):
                calls.append(_name)
                return _call(*args)
            monkeypatch.setattr(module, name, counting)
        for command, runs in (("backtest", 1), ("sweep-fees", 4), ("sweep-noise", 3)):
            calls.clear()
            assert main([command, "--config", str(cfg)]) == 0, capsys.readouterr().err
            assert [calls.count(name) for name in (
                "block_grid_series", "run_fmamm_backtest")] == [1, runs]

    def test_swap_cadence_samples_only_the_grid(self, tmp_path, capsys, monkeypatch):
        # each swap compounds at its own post-swap price, so a swap-cadence
        # backtest samples the path once, for its block grid, wherever the
        # sampler is imported
        series = write_price_csv(tmp_path / "prices.csv", blocks=60)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           compound_cadence="swap")
        grids = []
        for module in (fmamm.market_data, fmamm.cli, fmamm.backtest, fmamm.uniswap):
            if hasattr(module, "block_grid_series"):
                def counting(*args, _call=module.block_grid_series):
                    grids.append(_call(*args))
                    return grids[-1]
                monkeypatch.setattr(module, "block_grid_series", counting)
        assert main(["backtest", "--config", str(cfg)]) == 0
        assert "uniswap terminal roi" in capsys.readouterr().out
        assert len(grids) == 1 and np.array_equal(grids[0].marks.timestamps, series.timestamps)

    def test_no_dense_input_outlives_its_use(self, tmp_path, capsys, monkeypatch):
        # when a kernel run or the swap load starts, the dense price series
        # and every swap log loaded before it are unreachable, except
        # backtest's swap log: it is checked before the kernel run and
        # replayed after it
        series = write_price_csv(tmp_path / "prices.csv", blocks=60)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           fee_grid=[0.0, 0.003], noise_fractions=[0.1])
        loaded, alive = [], []

        def wrap(name, checked):
            call = getattr(fmamm.cli, name)

            def wrapped(*args):
                if checked:
                    gc.collect()
                    alive.extend((name, held) for held, ref in loaded if ref() is not None)
                result = call(*args)
                if name.startswith("load_"):
                    loaded.append((name, weakref.ref(result)))
                return result
            monkeypatch.setattr(fmamm.cli, name, wrapped)

        wrap("load_price_series", False)
        wrap("load_swap_records", True)
        wrap("run_fmamm_backtest", True)
        for command in ("backtest", "sweep-fees", "sweep-noise"):
            loaded.clear()
            assert main([command, "--config", str(cfg)]) == 0, capsys.readouterr().err
            assert len(loaded) == (1 if command == "sweep-fees" else 2)
            held = [("run_fmamm_backtest", "load_swap_records")] if command == "backtest" else []
            assert alive == held, command
            alive.clear()

    def test_noise_beyond_the_pole_names_the_block(self, tmp_path, capsys):
        # one asset unit of depth; random-sign noise of 0.5-2 units buys past x/2
        series = write_price_csv(tmp_path / "prices.csv", blocks=100)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           noise_fractions=[1.0], noise_direction="random_sign")
        assert main(["sweep-noise", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"block \d+ \(t=\d+\): net trade .* price pole", err), err

    def test_tiny_mu_is_validation_error(self, tmp_path, capsys):
        write_price_csv(tmp_path / "prices.csv", blocks=10)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", mu=1e-300)
        assert main(["sweep-fees", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mu=1e-300 gives 1.2e+302 blocks" in err and "MAX_BLOCKS" in err, err

    def test_noise_sweep_requires_swap_csv(self, tmp_path, capsys):
        write_price_csv(tmp_path / "prices.csv", blocks=10)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv")
        assert main(["sweep-noise", "--config", str(cfg)]) == 2
        assert "swap_csv" in capsys.readouterr().err


class TestAttackCommand:
    def test_worked_numbers(self, capsys):
        assert main(["attack", "--y", "20000", "--x-reserve", "10", "--p-star", "2420"]) == 0
        out = capsys.readouterr().out
        assert "profit 100.000000" in out
        assert "profit 200.000000" in out
        assert "ratio: 0.500000" in out

    def test_no_gap_no_profit(self, capsys):
        assert main(["attack", "--y", "20000", "--x-reserve", "10", "--p-star", "2000"]) == 0
        out = capsys.readouterr().out
        assert "profit 0.000000" in out


class TestMcRiskCommand:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["mc-risk", "--y", "20000", "--x-reserve", "10", "--fee", "0.003",
                     "--epsilon-sd", "200", "--n-draws", "20000", "--seed", "1",
                     "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "difference" in stdout
        payload = json.loads((out / "mc_risk.json").read_text())
        assert payload["difference"] > 0
        assert payload["z_score"] > 5

    def test_undefined_z(self, tmp_path, capsys, monkeypatch):
        # both draws move by the same nonzero amount: se 0, so no z
        monkeypatch.setattr("fmamm.backtest.mean_preserving_spread",
                            lambda draws, sd, rng: 1.5 * draws)
        out = tmp_path / "out"
        assert main(["mc-risk"] + RESERVES + ["--fee", "0.003", "--epsilon-sd", "200",
                                              "--n-draws", "2", "--out-dir", str(out)]) == 0
        assert "(paired se 0.000000, z n/a, n 2)" in capsys.readouterr().out
        payload = json.loads((out / "mc_risk.json").read_text())
        assert payload["difference"] > 0
        assert payload["z_score"] is None


    @pytest.mark.parametrize("price", ["nan", "inf", "-5", "0"])
    def test_bad_base_price_is_validation_error(self, capsys, price):
        assert main(["mc-risk"] + RESERVES + ["--epsilon-sd", "1", "--n-draws", "10",
                                              "--base-price", price]) == 2
        err = capsys.readouterr().err
        assert "--base-price must be positive and finite" in err, err

    @pytest.mark.parametrize("n, bound", [(-3, "at least 2"), (MAX_DRAWS + 1, "at most MAX_DRAWS")])
    def test_draw_count_out_of_range_allocates_nothing(self, capsys, n, bound):
        tracemalloc.start()
        try:
            code = main(["mc-risk"] + RESERVES + ["--epsilon-sd", "200", "--n-draws", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"--n-draws: n_draws must be {bound}" in err and f"got {n}" in err, err
        assert peak < 1 << 20

    @pytest.mark.parametrize("args, named", [
        (["--y", "20000", "--x-reserve", "10", "--base-price", "1e-320"],
         "value function is not finite at price 1e-320 with reserves y=20000.0, x=10.0"),
        (["--y", "20000", "--x-reserve", "10", "--base-price", "1e308"],
         "value function is not finite at price 1e+308 with reserves y=20000.0, x=10.0"),
        (["--y", "1e308", "--x-reserve", "1e-308", "--base-price", "3000"],
         "value function is not finite at price 3000.0 with reserves y=1e+308, x=1e-308"),
        (["--y", "1e200", "--x-reserve", "1e100", "--epsilon-sd", "1e99"],
         "Monte Carlo statistics overflow at reserves y=1e+200, x=1e+100"),
    ])
    def test_non_finite_result_is_validation_error(self, tmp_path, capsys, args, named):
        argv = ["mc-risk", "--epsilon-sd", "200", "--n-draws", "10"] + args
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert f"error: {named}" in err and out == "", (out, err)
        assert not (tmp_path / "out").exists()

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        argv = ["mc-risk"] + RESERVES + ["--epsilon-sd", "200", "--n-draws", "10", "--seed=-1"]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert "error: --seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sd", ["-1", "nan", "inf"])
    def test_bad_spread_is_validation_error(self, tmp_path, capsys, sd):
        argv = ["mc-risk"] + RESERVES + ["--epsilon-sd", sd, "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert f"epsilon_sd must be non-negative and finite, got {sd}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSplitDemoCommand:
    def test_table(self, capsys):
        assert main(["split-demo", "--y", "20000", "--x-reserve", "10", "--trade", "2",
                     "--n", "1", "1000"]) == 0
        out = capsys.readouterr().out
        assert "26666.66" in out
        assert "25000.0" in out  # constant-product limit line

    def test_failing_split_prints_nothing(self, tmp_path, capsys):
        # five slices of 12 out of 10 units reach the pole at the fourth
        argv = ["split-demo", "--y", "20000", "--x-reserve", "10", "--trade", "12", "--n", "5"]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("error: split trade infeasible at step 4 of 5")
        assert not (tmp_path / "out").exists()

    def test_overflowing_denominator_is_validation_error(self, tmp_path, capsys):
        # x - (n+1)*d overflows to inf, which printed a final numeraire
        # reserve of 0.000000 where the true one is 0.5
        argv = ["split-demo", "--y", "1", "--x-reserve", "1", "--trade=-1e308", "--n", "1"]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == ("error: split trade denominator overflows at y=1.0, x=1.0, "
                               "trade -1e+308\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_below_one_is_validation_error(self, tmp_path, capsys, n):
        argv = ["split-demo", "--y", "20000", "--x-reserve", "10", "--trade", "2", "--n", "1", n]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert f"error: n must be >= 1, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("trade", ["nan", "inf", "-inf"])
    def test_non_finite_trade_is_validation_error(self, tmp_path, capsys, trade):
        argv = ["split-demo", "--y", "20000", "--x-reserve", "10", f"--trade={trade}"]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: trade must be finite, got {trade}\n"
        assert not (tmp_path / "out").exists()


RESERVES = ["--y", "20000", "--x-reserve", "10"]


def reject_constant(name):
    raise ValueError(f"out-dir JSON holds {name}")

# command -> (arguments after the command, files written besides manifest.json,
# input names recorded after the config, seed); "{cfg}" and "{orders}" are
# filled in per test
OUT_DIR_CONTRACT = {
    "quote": (RESERVES + ["--trade", "1", "--fee", "0.003"], {"quote.json"}, [], None),
    "settle": (RESERVES + ["--orders", "{orders}"], {"settlements.json"}, ["orders.jsonl"], None),
    "backtest": (["--config", "{cfg}"],
                 {"fm_amm_returns.csv", "uniswap_v3_full_range_returns.csv", "comparison.csv",
                  "summary.json", "long.csv"}, ["prices.csv", "swaps.csv"], 3),
    "sweep-fees": (["--config", "{cfg}"],
                   {"fee_0_returns.csv", "fee_0.003_returns.csv", "summary.json", "long.csv"},
                   ["prices.csv"], 3),
    "sweep-noise": (["--config", "{cfg}"],
                    {"noise_0_returns.csv", "noise_0.1_returns.csv", "summary.json", "long.csv"},
                    ["prices.csv", "swaps.csv"], 3),
    "attack": (RESERVES + ["--p-star", "2420"], {"attack.json"}, [], None),
    "mc-risk": (RESERVES + ["--epsilon-sd", "200", "--n-draws", "1000", "--seed", "7"],
                {"mc_risk.json"}, [], 7),
    "split-demo": (RESERVES + ["--trade", "2", "--n", "1", "10"], {"split_demo.json"}, [], None),
}


def contract_argv(tmp_path, command):
    """The inputs of ``OUT_DIR_CONTRACT[command]`` under ``tmp_path / "data"``:
    the command's argv, the data directory and the config path."""
    data = tmp_path / "data"
    data.mkdir()
    series = write_price_csv(data / "prices.csv", blocks=40)
    write_swap_csv(data / "swaps.csv", series)
    cfg = write_config(data / "cfg.json", data / "prices.csv", data / "swaps.csv",
                       fee_grid=[0.0, 0.003], noise_fractions=[0.1])
    (data / "orders.jsonl").write_text(
        '{"block": 1, "trader_kind": "noise", "amount": 1.0}\n'
        '{"block": 2, "trader_kind": "arbitrageur", "amount": -0.5}\n')
    args = OUT_DIR_CONTRACT[command][0]
    return [command] + [a.format(cfg=cfg, orders=data / "orders.jsonl") for a in args], data, cfg


class TestOutDirContract:
    @pytest.mark.parametrize("command", sorted(OUT_DIR_CONTRACT))
    def test_files_manifest_and_rerun(self, tmp_path, monkeypatch, capsys, command):
        args, files, input_names, seed = OUT_DIR_CONTRACT[command]
        argv, data, cfg = contract_argv(tmp_path, command)
        # the same relative --out-dir from two working directories, so the
        # arguments recorded in the manifest agree too
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert main(argv + ["--out-dir", "out"]) == 0
        out_a, out_b = tmp_path / "a" / "out", tmp_path / "b" / "out"
        assert {p.name for p in out_a.iterdir()} == files | {"manifest.json"}
        for name in files | {"manifest.json"}:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
            if name.endswith(".json"):  # strict JSON: no NaN or Infinity
                json.loads((out_a / name).read_text(), parse_constant=reject_constant)

        manifest = json.loads((out_a / "manifest.json").read_text())
        config = str(cfg) if "{cfg}" in args else None
        inputs = ([config] if config else []) + [str(data / name) for name in input_names]
        assert manifest["command"] == command
        assert manifest["config"] == config
        assert manifest["inputs"] == {
            p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}
        assert manifest["seed"] == seed
        assert manifest["version"] == fmamm.__version__

    @pytest.mark.parametrize("command", ["settle", "backtest", "sweep-fees", "sweep-noise"])
    def test_each_input_is_hashed_once(self, tmp_path, monkeypatch, capsys, command):
        """The loader's digest of an input is the one the manifest records, so
        no file is opened or hashed twice, with the input cache cold or warm."""
        argv, data, _ = contract_argv(tmp_path, command)
        sha256, finished = hashlib.sha256, []
        builtin_open, opened = builtins.open, Counter()

        def counted_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened[os.fspath(file)] += 1
            return builtin_open(file, *args, **kwargs)

        class Recorded:
            def __init__(self, *data):
                self._hash = sha256(*data)

            def update(self, chunk):
                self._hash.update(chunk)

            def hexdigest(self):
                finished.append(self._hash.hexdigest())
                return finished[-1]

        want = {sha256(p.read_bytes()).hexdigest(): p.name for p in data.iterdir() if p.is_file()}
        monkeypatch.setattr(hashlib, "sha256", Recorded)
        monkeypatch.setattr(builtins, "open", counted_open)
        for run in ("cold", "warm"):
            finished.clear()
            opened.clear()
            assert main(argv + ["--out-dir", str(tmp_path / run)]) == 0
            manifest = json.loads((tmp_path / run / "manifest.json").read_text())
            hashed = sorted(want[d] for d in finished if d in want)
            assert hashed == sorted(Path(p).name for p in manifest["inputs"]), run
            assert {p: opened[p] for p in manifest["inputs"]} == dict.fromkeys(
                manifest["inputs"], 1), run

    @pytest.mark.parametrize("command, loaded_by, name", [
        ("backtest", "run_fmamm_backtest", "cfg.json"), ("settle", "settle_batch", "orders.jsonl")])
    def test_digest_is_of_the_bytes_parsed(self, tmp_path, monkeypatch, capsys, command,
                                           loaded_by, name):
        # the input is rewritten after its loader parsed it and before the
        # command is done: the manifest records the digest of what was parsed
        argv, data, _ = contract_argv(tmp_path, command)
        parsed = (data / name).read_bytes()
        rewritten = parsed.replace(b"0.003", b"0.004").replace(b"-0.5", b"-0.25")
        assert rewritten != parsed
        run = getattr(fmamm.cli, loaded_by)

        def rewriting(*args, **kwargs):
            (data / name).write_bytes(rewritten)
            return run(*args, **kwargs)

        monkeypatch.setattr(fmamm.cli, loaded_by, rewriting)
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["inputs"][str(data / name)] == hashlib.sha256(parsed).hexdigest()
        if command == "backtest":
            assert manifest["parameters"]["fee"] == 0.003

    @pytest.mark.parametrize("command, name", [("settle", "orders.jsonl"),
                                               ("backtest", "cfg.json")])
    def test_piped_input_is_recorded_as_null(self, tmp_path, capsys, command, name):
        # a pipe its loader drained holds nothing for a second read, whose
        # digest would be the empty string's: the manifest records null
        argv, data, _ = contract_argv(tmp_path, command)
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write((data / name).read_bytes())  # a few hundred bytes: the pipe holds them
        piped = f"/dev/fd/{read_end}"
        try:
            argv = [piped if arg == str(data / name) else arg for arg in argv]
            assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
        finally:
            os.close(read_end)
        inputs = json.loads((tmp_path / "out" / "manifest.json").read_text())["inputs"]
        hashed = [] if command == "settle" else ["prices.csv", "swaps.csv"]
        assert inputs == {piped: None, **{
            str(data / n): hashlib.sha256((data / n).read_bytes()).hexdigest() for n in hashed}}

    @staticmethod
    def run_on_fifo(fifo, payload: bytes, argv):
        """``fmamm`` run on ``argv`` in a fresh interpreter while a thread
        writes ``payload`` into ``fifo``."""
        def feed():
            with open(fifo, "wb") as fh:  # waits for the command to open it
                fh.write(payload)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            return subprocess.run([sys.executable, "-m", "fmamm.cli", *argv], env=checkout_env(),
                                  capture_output=True, text=True, timeout=30)
        finally:
            if writer.is_alive():  # the command never opened the FIFO: release the writer
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_price_csv_is_read_once(self, tmp_path):
        # the loader reads a FIFO once; opening it again for the manifest's
        # digest would wait for a writer that never comes
        argv, data, cfg = contract_argv(tmp_path, "backtest")
        fifo = tmp_path / "prices.fifo"
        os.mkfifo(fifo)
        write_config(cfg, fifo, data / "swaps.csv")
        done = self.run_on_fifo(fifo, (data / "prices.csv").read_bytes(),
                                argv + ["--out-dir", str(tmp_path / "out")])
        assert done.returncode == 0, done.stderr
        inputs = json.loads((tmp_path / "out" / "manifest.json").read_text())["inputs"]
        assert inputs == {str(fifo): None, **{
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (cfg, data / "swaps.csv")}}

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("name, bad_row", [
        ("prices.csv", "1680000012,oops"),
        ("swaps.csv", "4,1680000048,oops,token1,1e9,2000.0"),
    ], ids=["prices", "swaps"])
    def test_fifo_csv_bad_row_names_its_line(self, tmp_path, name, bad_row):
        # a FIFO cannot seek back for the row reader, so it is parsed from
        # memory, and its first bad line is named as a regular file's is
        argv, data, cfg = contract_argv(tmp_path, "backtest")
        lines = (data / name).read_text().splitlines()
        lines[2] = bad_row
        fifo = tmp_path / name.replace(".csv", ".fifo")
        os.mkfifo(fifo)
        inputs = {"prices.csv": data / "prices.csv", "swaps.csv": data / "swaps.csv", name: fifo}
        write_config(cfg, inputs["prices.csv"], inputs["swaps.csv"])
        done = self.run_on_fifo(fifo, "\n".join(lines).encode() + b"\n", argv)
        assert done.returncode == 2
        assert done.stderr.startswith(
            f"error: {fifo}:3: malformed row {bad_row.split(',')}: "), done.stderr

    @pytest.mark.parametrize("argv", [
        ["quote"] + RESERVES + ["--trade", "6"],
        ["settle"] + RESERVES + ["--orders", "absent.jsonl"],
        ["backtest", "--config", "absent.json"],
        ["quote", "--y", "1e308", "--x-reserve", "1e-308", "--trade", "0"],
        ["quote", "--y", "1.7e308", "--x-reserve", "1", "--trade", "0", "--fee", "0.9"],
        ["attack", "--y", "1e308", "--x-reserve", "1e308", "--p-star", "1e300"],
        ["mc-risk"] + RESERVES + ["--epsilon-sd", "200", "--n-draws", "1"],
    ])
    def test_failing_command_creates_no_out_dir(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out-dir", "out"]) == 2
        assert not (tmp_path / "out").exists()

    def test_missed_pin_exits_three_naming_the_block(self, tmp_path, monkeypatch, capsys):
        # with no tolerance, rounding in the settled price misses the pin
        monkeypatch.setattr("fmamm.backtest._PIN_RTOL", 0.0)
        monkeypatch.chdir(tmp_path)
        write_price_csv(tmp_path / "prices.csv")
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", fee=0.0)
        assert main(["backtest", "--config", str(cfg), "--out-dir", "out"]) == 3
        assert re.search(r"block \d+ \(t=\d+\): rebalance left effective price",
                         capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


# the exit-code contract sweep: each command from a valid base, with one
# value (the reserves also two at once) replaced by each extreme
EXTREMES = ["0", "-1", "nan", "inf", "1e308", "1e-320"]
CONTRACT_BASES = {
    "quote": {"--trade": "1", "--fee": "0.003"},
    "attack": {"--p-star": "2420"},
    "mc-risk": {"--fee": "0.003", "--epsilon-sd": "200", "--base-price": "3000",
                "--n-draws": "10", "--seed": "0"},
    "split-demo": {"--trade": "2", "--n": "10"},
    # "amount" is each of the two block-1 orders of the orders file
    "settle": {"--fee": "0.003", "amount": "1"},
}


def contract_cases():
    for command, base in CONTRACT_BASES.items():
        base = {"--y": "20000", "--x-reserve": "10", **base}
        for y in EXTREMES + ["20000"]:
            for x in EXTREMES + ["10"]:
                yield command, {**base, "--y": y, "--x-reserve": x}
        for flag in [f for f in base if f not in ("--y", "--x-reserve")]:
            for value in EXTREMES:
                yield command, {**base, flag: value}


def contract_breach(argv, out_dir, capsys, codes=(0, 2, 3)):
    """How one run of ``argv`` with ``--out-dir`` breaks the exit-code
    contract, or None: an exit code in ``codes``; ``error:`` and no out-dir
    on a failure; no nan or inf printed on a success; every out-dir JSON
    strict."""
    try:
        code = main(argv + ["--out-dir", str(out_dir)])
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    except Exception as exc:  # a traceback, or a warning (an error in this suite)
        code = repr(exc)
    out, err = capsys.readouterr()
    if code not in codes:
        return f"exit {code}"
    if code and ("error:" not in err or out_dir.exists()):
        return "no error line, or an out-dir left"
    if not code and re.search(r"\b(nan|inf)\b", out, re.IGNORECASE):
        return "nan or inf printed"
    for path in out_dir.glob("*.json"):
        try:
            json.loads(path.read_text(), parse_constant=reject_constant)
        except ValueError as exc:
            return str(exc)
    return None


# the scenario sweep: each numeric config key of a small valid scenario with
# swaps replaced by each extreme (``noise_fractions`` as its one entry)
SCENARIO_KEYS = ["fee", "mu", "gamma", "seed", "initial_x", "baseline_liquidity", "pool_fee",
                 "noise_fractions"]


def library_rejects(key, value) -> bool:
    """Whether the library object that takes a scenario key's value rejects it."""
    flat = PriceSeries("X-Y", [0.0, 12.0], [0.25, 0.25])  # 2*sqrt(p) = 1: no overflow
    grid = block_grid_series(flat)
    # a one-point series spans no block, so only the range of mu and gamma applies
    point = PriceSeries("X-Y", [0.0], [0.25])
    no_swaps = np.empty(0, SWAP_LOG_DTYPE)
    takes = {
        "fee": lambda v: run_fmamm_backtest(grid, v),
        "mu": lambda v: block_grid_series(point, mu=v),
        "gamma": lambda v: block_grid_series(point, gamma=v),
        "seed": lambda v: NoiseScenario(seed=v),
        "initial_x": lambda v: balanced_reserves(1.0, v),
        "baseline_liquidity": lambda v: run_baseline(no_swaps, flat, v),
        "pool_fee": lambda v: per_block_swap_volume(no_swaps, np.array([0.0, 12.0]), v),
        "noise_fractions": lambda v: NoiseScenario(v),
        "noise_direction": lambda v: NoiseScenario(0.0, v),
        "compound_cadence": lambda v: run_baseline(no_swaps, flat, 1.0, v),
    }
    try:
        takes[key](value)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("key", SCENARIO_KEYS + ["noise_direction", "compound_cadence"])
def test_config_range_is_the_library_range(tmp_path, key):
    """``from_json`` rejects a value exactly when the object that takes it does."""
    values = [json.loads({"nan": "NaN", "inf": "Infinity"}.get(e, e)) for e in EXTREMES]
    if key in ("noise_direction", "compound_cadence"):
        values += ["up", "random_sign", "day"]
    differ = []
    for value in values:
        path = write_config(tmp_path / "cfg.json", tmp_path / "absent.csv",
                            **{key: [value] if key == "noise_fractions" else value})
        try:
            ScenarioConfig.from_json(path)
            config_rejects = False
        except ValueError:
            config_rejects = True
        if config_rejects != library_rejects(key, value):
            differ.append((value, config_rejects))
    assert not differ


class TestExitCodeContract:
    def test_extreme_values_sweep(self, tmp_path, capsys):
        broken = []
        for i, (command, values) in enumerate(contract_cases()):
            values = dict(values)
            argv = [command]
            if command == "settle":
                orders = tmp_path / f"orders{i}.jsonl"
                amount = values.pop("amount")
                orders.write_text(
                    f'{{"block": 1, "trader_kind": "noise", "amount": {amount}}}\n'
                    f'{{"block": 1, "trader_kind": "arbitrageur", "amount": {amount}}}\n')
                argv += ["--orders", str(orders)]
            for flag, value in values.items():
                argv += [f"{flag}={value}"]  # "=" keeps "-1" a value
            breach = contract_breach(argv, tmp_path / f"out{i}", capsys)
            if breach:
                broken.append((argv, breach))
        assert not broken, (len(broken), broken[:10])

    def test_scenario_config_sweep(self, tmp_path, capsys):
        """``backtest``, ``sweep-fees`` and ``sweep-noise`` on a 50-block
        scenario with a swap every 10 blocks, one config value at a time: a
        config value is an input, so it gives exit 0 or 2, never 3."""
        series = write_price_csv(tmp_path / "prices.csv", blocks=50)
        write_swap_csv(tmp_path / "swaps.csv", series, every=10)
        base = {"mu": 12, "gamma": 0, "initial_x": 1, "baseline_liquidity": 1,
                "noise_direction": "random_sign"}
        broken = []
        for key in SCENARIO_KEYS:
            for extreme in EXTREMES:
                value = json.loads({"nan": "NaN", "inf": "Infinity"}.get(extreme, extreme))
                if key == "noise_fractions":
                    value = [value]
                cfg = write_config(tmp_path / f"{key}{extreme}.json", tmp_path / "prices.csv",
                                   tmp_path / "swaps.csv", **{**base, key: value})
                for command in ("backtest", "sweep-fees", "sweep-noise"):
                    argv = [command, "--config", str(cfg)]
                    # the data warnings (a forward-filled gap, a large position)
                    # are documented output; any other warning is a failure
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)
                        breach = contract_breach(argv, tmp_path / f"{cfg.stem}-{command}",
                                                 capsys, codes=(0, 2))
                    if breach:
                        broken.append((key, extreme, command, breach))
        assert not broken, (len(broken), broken[:10])


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "fmamm" in capsys.readouterr().out

    def test_import_does_not_load_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import fmamm.cli, sys; sys.exit('scipy' in sys.modules)"],
            env=checkout_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr or "fmamm.cli imported scipy"

    def test_console_script_installed(self):
        """The declared `fmamm` script quotes with exit 0 and carries exit 2 out of the process.

        Reads `[project.scripts]` from this checkout's `pyproject.toml` and runs what the
        generated console-script wrapper runs, `sys.exit(main())`, in a fresh interpreter,
        so no install is needed. Where an installed `fmamm` is on `PATH`, the real
        wrapper is run too. Both import `fmamm` from the `src/` under test.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"fmamm": "fmamm.cli:main"}

        module, attr = scripts["fmamm"].split(":")
        launchers = [[sys.executable, "-c",
                      f"import sys; from {module} import {attr}; sys.exit({attr}())"]]
        installed = shutil.which("fmamm")
        if installed:
            launchers.append([installed])

        env = checkout_env()
        quote = ["quote", "--y", "20000", "--x-reserve", "10", "--trade"]
        for launcher in launchers:
            ok = subprocess.run(launcher + quote + ["1"], env=env, capture_output=True, text=True)
            assert ok.returncode == 0, (launcher, ok.stderr)
            assert "2500.000000" in ok.stdout, launcher
            bad = subprocess.run(launcher + quote + ["nan"], env=env, capture_output=True,
                                 text=True)
            assert bad.returncode == 2, (launcher, bad.stderr)
            assert "error" in bad.stderr, launcher
