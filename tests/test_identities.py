"""Exact identities of the kernel and the baseline, as properties.

Scaling every size by a power of two, or every price by a power of four
(whose square root is a power of two), changes no rounding: each value
scales exactly and each ROI stays bit for bit the same.  Nothing reads the
absolute time either, apart from the UTC day of the ``day`` cadence, so
shifting every timestamp by whole days leaves every ROI bit-identical.  A
size or price cut-off, or a timestamp kept at lower precision, breaks these
identities at some scale or shift.
"""

import json
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fmamm.backtest import (
    NO_NOISE,
    NOISE_DIRECTIONS,
    NoiseScenario,
    balanced_reserves,
    block_grid_series,
    run_fmamm_backtest,
)
from fmamm.cli import main
from fmamm.market_data import GbmParams, PriceSeries, cumulative_roi, sample_gbm_path
from fmamm.uniswap import (
    COMPOUND_CADENCES,
    FEE_TOKENS,
    SWAP_LOG_DTYPE,
    per_block_swap_volume,
    run_baseline,
)

START = 1_680_000_000.0
DAY = 86_400

seeds = st.integers(0, 2**32 - 1)
taus = st.sampled_from([0.0, 0.0005, 0.003]) | st.floats(0.0, 0.05)
kinds = st.sampled_from(["none", *NOISE_DIRECTIONS])


def gbm(seed, points, step=12.0, vol=0.001):
    """A GBM path of ``points`` steps of ``step`` seconds from ``START``."""
    return sample_gbm_path(GbmParams(2000.0, vol, step_seconds=step,
                                     horizon_seconds=step * points, seed=seed, start_time=START))


def noise_run(kind, seed, blocks):
    """A noise scenario and its per-block volume, as a share of one asset unit."""
    if kind == "none":
        return NO_NOISE, None
    rng = np.random.default_rng(seed)
    volume = rng.exponential(0.01, blocks) * (rng.random(blocks) < 0.5)
    return NoiseScenario(2.0, kind, seed), volume


def swap_log(marks, seed, n=300, fee_share=(1e-12, 1e-3)):
    """A sorted swap log around the marks, some swaps before the first and
    after the last; each fee a log-uniform share of its active liquidity,
    token1 fees in numeraire at the swap's price."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(int(marks.start) - 600, int(marks.end) + 600, n))
    post = np.interp(times, marks.timestamps, marks.prices) * np.exp(0.001 * rng.standard_normal(n))
    liquidity = 1e9 * np.exp(0.3 * rng.standard_normal(n))
    token1 = rng.random(n) < 0.5
    fees = liquidity * 10.0 ** rng.uniform(*np.log10(fee_share), n) * np.where(token1, post, 1.0)
    return np.rec.fromarrays((np.arange(n), times, fees, np.where(token1, "token1", "token0"),
                              liquidity, post), dtype=SWAP_LOG_DTYPE)


def baseline(log, marks, cadence, liquidity=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # swaps after the last mark, large positions
        return run_baseline(log, marks, liquidity, cadence)


def shifted(series, days):
    return PriceSeries(series.pair, series.timestamps + days * DAY, series.prices)


class TestKernelIdentities:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, tau=taus, kind=kinds, k=st.integers(-40, 40))
    def test_sizes_scaled_by_a_power_of_two(self, seed, tau, kind, k):
        # reserves and noise volumes times 2^k: every value times 2^k exactly
        path = gbm(seed, 200)
        grid, scale = block_grid_series(path), 2.0**k
        noise, volume = noise_run(kind, seed, 200)
        initial = balanced_reserves(path.prices[0])
        plain = run_fmamm_backtest(grid, tau, noise, initial, volume)
        scaled = run_fmamm_backtest(grid, tau, noise, balanced_reserves(path.prices[0], scale),
                                    None if volume is None else volume * scale)
        assert np.array_equal(scaled.values, plain.values * scale)
        assert np.array_equal(cumulative_roi(scaled.values), cumulative_roi(plain.values))
        assert scaled.n_rebalances == plain.n_rebalances

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, tau=taus, kind=kinds, k=st.integers(-20, 20))
    def test_prices_scaled_by_a_power_of_four(self, seed, tau, kind, k):
        # every price times 4^k, the asset reserve and noise volumes kept
        path = gbm(seed, 200)
        scale = 4.0**k
        dear = PriceSeries(path.pair, path.timestamps, path.prices * scale)
        noise, volume = noise_run(kind, seed, 200)
        plain = run_fmamm_backtest(block_grid_series(path), tau, noise, None, volume)
        scaled = run_fmamm_backtest(block_grid_series(dear), tau, noise, None, volume)
        assert np.array_equal(scaled.values, plain.values * scale)
        assert np.array_equal(cumulative_roi(scaled.values), cumulative_roi(plain.values))

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, tau=taus, gamma=st.sampled_from([0.0, 5.0]),
           days=st.integers(1, 20_000))
    def test_timestamps_shifted_by_whole_days(self, seed, tau, gamma, days):
        # random-sign noise from a swap log's fees, shifted with the prices
        path = gbm(seed, 12 * 200, step=1.0)
        # volumes of about 0.1% of the one-unit asset reserve per swap, so no
        # block comes near the pole
        log = swap_log(path, seed, fee_share=(1e-16, 1e-14))
        later = log.copy()
        later.timestamp += days * DAY
        rois = []
        for series, swaps in ((path, log), (shifted(path, days), later)):
            grid = block_grid_series(series, gamma=gamma)
            volume = per_block_swap_volume(swaps, grid.marks.timestamps, 0.003)
            rois.append(cumulative_roi(run_fmamm_backtest(
                grid, tau, NoiseScenario(1.0, "random_sign", seed), None, volume).values))
        assert np.array_equal(rois[1], rois[0])


class TestBaselineIdentities:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, cadence=st.sampled_from(COMPOUND_CADENCES), k=st.integers(-20, 20))
    def test_prices_and_liquidity_scaled(self, seed, cadence, k):
        # prices and token1 fees times 4^k, active liquidity times 2^k: fees
        # per unit of liquidity and the growth they buy are unchanged, and
        # every value scales by 2^k
        marks = gbm(seed, 300, step=900.0, vol=0.0005)
        log = swap_log(marks, seed)
        dear = log.copy()
        dear.post_price *= 4.0**k
        in_token1 = dear.fee_token == FEE_TOKENS[1]
        assert in_token1.any()
        dear.fee_amount[in_token1] *= 4.0**k
        dear.active_liquidity *= 2.0**k
        plain = baseline(log, marks, cadence)
        scaled = baseline(dear, PriceSeries(marks.pair, marks.timestamps, marks.prices * 4.0**k),
                          cadence)
        assert np.array_equal(scaled, plain * 2.0**k)
        assert np.array_equal(cumulative_roi(scaled), cumulative_roi(plain))

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, cadence=st.sampled_from(COMPOUND_CADENCES), days=st.integers(1, 20_000))
    def test_timestamps_shifted_by_whole_days(self, seed, cadence, days):
        marks = gbm(seed, 300, step=900.0, vol=0.0005)
        log = swap_log(marks, seed)
        later = log.copy()
        later.timestamp += days * DAY
        plain = baseline(log, marks, cadence)
        moved = baseline(later, shifted(marks, days), cadence)
        assert np.array_equal(cumulative_roi(moved), cumulative_roi(plain))

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, cadence=st.sampled_from(COMPOUND_CADENCES), k=st.integers(-40, 40))
    def test_position_scaled_by_a_power_of_two(self, seed, cadence, k):
        # the position times 2^k: every value times 2^k exactly
        marks = gbm(seed, 300, step=900.0, vol=0.0005)
        log = swap_log(marks, seed)
        plain = baseline(log, marks, cadence)
        scaled = baseline(log, marks, cadence, 2.0**k)
        assert np.array_equal(scaled, plain * 2.0**k)
        assert np.array_equal(cumulative_roi(scaled), cumulative_roi(plain))


def write_scenario(directory, seed, cadence, gamma, k=0, days=0):
    """A price CSV, a swap CSV and a config that every command takes, with
    prices, ``post_price`` and token1 fees times 4^k, active liquidity times
    2^k and every timestamp ``days`` whole days on; the swaps lie within the
    prices, and their volumes stay far below the asset reserve."""
    marks = gbm(seed, 300)
    log = swap_log(marks, seed, fee_share=(1e-9, 1e-7))
    log = log[log.timestamp <= marks.end]
    log.timestamp += days * DAY
    log.fee_amount[log.fee_token == FEE_TOKENS[1]] *= 4.0**k
    log.active_liquidity *= 2.0**k
    log.post_price *= 4.0**k
    directory.mkdir()
    (directory / "prices.csv").write_text("timestamp,price\n" + "".join(
        f"{int(t) + days * DAY},{p * 4.0**k!r}\n"
        for t, p in zip(marks.timestamps.tolist(), marks.prices.tolist())))
    (directory / "swaps.csv").write_text(
        "block,timestamp,fee_amount,fee_token,active_liquidity,post_price\n" + "".join(
            f"{b},{t},{f!r},{token.decode()},{a!r},{p!r}\n"
            for b, t, f, token, a, p in log.tolist()))
    config = directory / "config.json"
    config.write_text(json.dumps({
        "pair": "X-Y", "price_csv": str(directory / "prices.csv"),
        "swap_csv": str(directory / "swaps.csv"), "pool_fee": 0.003, "initial_x": 1e6,
        "fee_grid": [0.0, 0.0005, 0.003], "noise_fractions": [0.1, 0.5],
        "noise_direction": "random_sign", "seed": seed, "gamma": gamma,
        "compound_cadence": cadence}))
    return config


def command_rois(directory, config):
    """What each command's out-dir says of returns, which neither scale nor
    time enters: the last column of each CSV but ``long.csv``
    (``cumulative_roi`` or ``roi_difference``) as written, and the ROIs of
    ``summary.json``."""
    said = {}
    for command in ("backtest", "sweep-fees", "sweep-noise"):
        out = directory / command
        assert main([command, "--config", str(config), "--out-dir", str(out)]) == 0
        for path in sorted(out.glob("*.csv")):
            if path.name != "long.csv":
                said[command, path.name] = [line.rsplit(",", 1)[1]
                                            for line in path.read_text().splitlines()]
        summary = json.loads((out / "summary.json").read_text())
        if command == "backtest":
            said[command] = (summary["fm_amm"]["terminal_roi"],
                             summary["uniswap_v3_full_range"]["terminal_roi"],
                             summary["terminal_difference_pp"])
        else:
            said[command] = [(row["terminal_roi"], row.get("diff_vs_zero_noise_pp"))
                             for row in summary["rows"]]
    return said


class TestCommandIdentities:
    """The two identities the baseline depends on, through every command
    that replays swaps or sweeps, from the CSV text to the out-dir."""

    @settings(max_examples=6, deadline=None)
    @given(seed=seeds, cadence=st.sampled_from(COMPOUND_CADENCES),
           gamma=st.sampled_from([0.0, 5.0]), k=st.integers(-16, 16))
    def test_prices_and_liquidity_scaled(self, tmp_path_factory, seed, cadence, gamma, k):
        root = tmp_path_factory.mktemp("scaled")
        plain = write_scenario(root / "plain", seed, cadence, gamma)
        dear = write_scenario(root / "dear", seed, cadence, gamma, k=k)
        assert command_rois(root / "plain", plain) == command_rois(root / "dear", dear)

    @settings(max_examples=6, deadline=None)
    @given(seed=seeds, cadence=st.sampled_from(COMPOUND_CADENCES),
           gamma=st.sampled_from([0.0, 5.0]), days=st.integers(1, 20_000))
    def test_timestamps_shifted_by_whole_days(self, tmp_path_factory, seed, cadence, gamma,
                                              days):
        root = tmp_path_factory.mktemp("shifted")
        plain = write_scenario(root / "plain", seed, cadence, gamma)
        later = write_scenario(root / "later", seed, cadence, gamma, days=days)
        assert command_rois(root / "plain", plain) == command_rois(root / "later", later)
