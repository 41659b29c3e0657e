"""Command-line interface tests: outputs, exit codes, and reproducibility."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fmamm
from fmamm.cli import MAX_DRAWS, main
from fmamm.market_data import GbmParams, sample_gbm_path


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
        t, p = series[i]
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
    ])
    def test_mistyped_config_is_validation_error(self, tmp_path, capsys, command, overrides,
                                                 named):
        write_price_csv(tmp_path / "prices.csv", blocks=10)
        cfg = tmp_path / "cfg.json"
        if overrides is None:
            cfg.write_text("[1, 2]")
        else:
            write_config(cfg, tmp_path / "prices.csv", **overrides)
        assert main([command, "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err


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
            err = capsys.readouterr().err
            assert "swaps.csv:3: timestamp 1680000120 before the previous" in err, err

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
    ])
    def test_malformed_csv_row_names_its_line(self, tmp_path, capsys, which, row):
        series = write_price_csv(tmp_path / "prices.csv", blocks=20)
        write_swap_csv(tmp_path / "swaps.csv", series)
        path = tmp_path / f"{which}.csv"
        lines = path.read_text().splitlines()
        lines.insert(3, row)
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv")
        assert main(["backtest", "--config", str(cfg)]) == 2
        assert f"{which}.csv:4:" in capsys.readouterr().err


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
                            lambda *args: calls.append(args[2:4]) or run(*args))
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

    def test_one_forward_fill_warning_per_command(self, tmp_path):
        # a 360 s gap in the price rows: each command samples the block grid
        # once per run and warns once
        series = write_price_csv(tmp_path / "prices.csv", blocks=100)
        write_swap_csv(tmp_path / "swaps.csv", series)
        lines = (tmp_path / "prices.csv").read_text().splitlines()
        (tmp_path / "prices.csv").write_text("\n".join(lines[:41] + lines[71:]) + "\n")
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           fee_grid=[0.0, 0.003], noise_fractions=[0.1])
        for command in ("backtest", "sweep-fees", "sweep-noise"):
            done = subprocess.run([sys.executable, "-m", "fmamm.cli", command, "--config", str(cfg)],
                                  env=checkout_env(), capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert done.stderr.count("forward-filled") == 1, (command, done.stderr)
            assert "(max gap 360s)" in done.stderr

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

    @pytest.mark.parametrize("sd", ["-1", "nan"])
    def test_bad_spread_is_validation_error(self, capsys, sd):
        assert main(["mc-risk"] + RESERVES + ["--epsilon-sd", sd]) == 2
        assert "epsilon_sd must be non-negative" in capsys.readouterr().err


class TestSplitDemoCommand:
    def test_table(self, capsys):
        assert main(["split-demo", "--y", "20000", "--x-reserve", "10", "--trade", "2",
                     "--n", "1", "1000"]) == 0
        out = capsys.readouterr().out
        assert "26666.66" in out
        assert "25000.0" in out  # constant-product limit line


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


class TestOutDirContract:
    @pytest.mark.parametrize("command", sorted(OUT_DIR_CONTRACT))
    def test_files_manifest_and_rerun(self, tmp_path, monkeypatch, capsys, command):
        args, files, input_names, seed = OUT_DIR_CONTRACT[command]
        data = tmp_path / "data"
        data.mkdir()
        series = write_price_csv(data / "prices.csv", blocks=40)
        write_swap_csv(data / "swaps.csv", series)
        cfg = write_config(data / "cfg.json", data / "prices.csv", data / "swaps.csv",
                           fee_grid=[0.0, 0.003], noise_fractions=[0.1])
        (data / "orders.jsonl").write_text(
            '{"block": 1, "trader_kind": "noise", "amount": 1.0}\n'
            '{"block": 2, "trader_kind": "arbitrageur", "amount": -0.5}\n')
        argv = [command] + [a.format(cfg=cfg, orders=data / "orders.jsonl") for a in args]
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
