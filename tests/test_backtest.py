"""Backtest loop, sweeps, value-function, and sandwich-immunity tests.

The two-block backtest is checked against a hand-chained oracle built from
the pool's supply and trade primitives, and the whole loop block by block
against a reference that composes ``optimal_rebalance`` and ``settle_batch``
per block; the zero-fee run is checked against its closed form.  The
vectorized value function is checked against a golden-section maximization
and against the rebalance solver; sweeps are checked for consistency and
monotonicity.
"""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fmamm.amm import (
    ConvergenceError,
    InfeasibleTradeError,
    Reserves,
    apply_trade,
    effective_price,
    fmamm_supply,
    objective_value,
)
from fmamm.arbitrage import arbitrage_order, no_trade_band, optimal_rebalance
import fmamm.backtest
from fmamm.backtest import (
    DEFAULT_FEE_GRID,
    LONG_GAP_SECONDS,
    MAX_BLOCKS,
    NOISE_DIRECTIONS,
    TRADE_LOG_DTYPE,
    BlockGrid,
    NO_NOISE,
    NoiseScenario,
    ScenarioConfig,
    balanced_reserves,
    block_grid_series,
    risk_monte_carlo,
    run_fmamm_backtest,
    sweep_run_id,
    value_function,
)
from fmamm.batch import Batch, Order, settle_batch
from fmamm.market_data import (
    GbmParams,
    PriceDataError,
    PriceSeries,
    cumulative_roi,
    mean_preserving_spread,
    sample_gbm_path,
)
from fmamm.uniswap import SWAP_LOG_DTYPE, per_block_swap_volume, run_baseline

R = Reserves(20000.0, 10.0)
TAUS = (0.0, 0.0005, 0.003, 0.01)


def backtest(prices, tau, *args, mu=12.0, gamma=0.0, **kwargs):
    """A run on the block grid of ``prices``, sampled as the CLI samples it."""
    return run_fmamm_backtest(block_grid_series(prices, mu, gamma), tau, *args, **kwargs)


def forward_fill(series, times):
    """The oracle of every sampled price: the last observation at or before
    each time, and the seconds since it."""
    times = np.asarray(times, dtype=np.float64)
    idx = np.searchsorted(series.timestamps, times, "right") - 1
    return series.prices[idx], times - series.timestamps[idx]


def flat_series(price=2000.0, blocks=3):
    ts = 12.0 * np.arange(blocks + 1)
    return PriceSeries("X-Y", ts, np.full(blocks + 1, price))


class TestBlockClock:
    """The clock ``block_grid_series`` lays over a series: ``mu`` and ``gamma``
    are checked there, and the start and end come from the series, which
    holds them finite and in order."""

    def test_settlement_grid(self):
        grid = block_grid_series(flat_series(blocks=4), mu=12.0, gamma=2.0)
        assert list(grid.marks.timestamps) == [0.0, 12.0, 24.0, 36.0, 48.0]
        assert grid.p_stars.size == 4

    def test_invalid(self):
        with pytest.raises(ValueError, match="gamma must be in"):
            block_grid_series(flat_series(), mu=12.0, gamma=12.0)
        with pytest.raises(ValueError, match="mu must be positive"):
            block_grid_series(flat_series(), mu=0.0)
        with pytest.raises(PriceDataError, match="not after previous"):
            PriceSeries("X-Y", [10.0, 0.0], [2000.0, 2000.0])

    def test_clock_finer_than_the_timestamps_rejected(self):
        # near 1680307200 float64 times are 2**-22 s apart: a 1e-7 s clock
        # puts two marks on one time, and the error is the clock's, not the
        # price data's
        series = PriceSeries("X-Y", [1680307200, 1680307201], [2000.0, 2000.0])
        with pytest.raises(ValueError, match=re.escape(
                "mu=1e-07 is finer than the float64 spacing of the times it steps over: "
                "marks 0 and 1 both fall at 1680307200")) as caught:
            block_grid_series(series, mu=1e-7)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("field", ["mu", "gamma", "start", "end"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_named(self, field, value):
        if field in ("mu", "gamma"):
            with pytest.raises(ValueError, match=f"^{field} must be "):
                block_grid_series(flat_series(), **{field: value})
            return
        # the series the grid takes its start and end from cannot hold them
        ts = [0.0, 12.0]
        ts[field == "end"] = value
        with pytest.raises(PriceDataError, match="is not finite"):
            PriceSeries("X-Y", ts, [2000.0, 2000.0])

    @pytest.mark.parametrize("mu, end, count", [
        (1e-300, 1e6, "1e+306"),
        (1e-300, 1e10, "inf"),
        (1.0, MAX_BLOCKS + 1.0, str(MAX_BLOCKS + 1)),
    ])
    def test_block_count_bounded_without_allocating(self, mu, end, count):
        series = PriceSeries("X-Y", [0.0, end], [2000.0, 2000.0])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    f"mu={mu!r} gives {count} blocks over [0, {end:.0f}], "
                    f"more than MAX_BLOCKS={MAX_BLOCKS}")):
                block_grid_series(series, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("gamma, filled", [(0.0, 2), (5.0, 3)])
    def test_gap_warning_counts_blocks(self, gamma, filled):
        # observations at 0, 336 and 348 s: the marks at 312 and 324 s are
        # over 300 s stale, and at a latency so are the trade prices of those
        # blocks and of the block settling at 336 s (331 s); each block
        # counts once, and the warning names the line that built the grid
        series = PriceSeries("X-Y", [0.0, 336.0, 348.0], [2000.0, 2001.0, 2002.0])
        with pytest.warns(UserWarning) as caught:
            block_grid_series(series, 12.0, gamma)
        [warning] = caught
        assert f"forward-filled {filled} of 29 blocks" in str(warning.message)
        assert warning.filename == __file__

    def test_block_count_at_the_bound_accepted(self, monkeypatch):
        # a real grid at the bound would take gigabytes: a small bound shows the edge
        monkeypatch.setattr("fmamm.backtest.MAX_BLOCKS", 5)
        assert block_grid_series(flat_series(blocks=5)).p_stars.size == 5
        with pytest.raises(ValueError, match=re.escape("gives 6 blocks over [0, 72], more than "
                                                       "MAX_BLOCKS=5")):
            block_grid_series(flat_series(blocks=6))


class TestRunBacktest:
    def test_constant_price_no_trades(self):
        series = flat_series()
        result = backtest(series, 0.0, NO_NOISE, R)
        assert np.all(cumulative_roi(result.values) == 0.0)
        assert result.n_rebalances == 0

    def test_two_block_hand_oracle(self):
        # chain the primitives by hand: 2000 -> 2500 -> 2000
        series = PriceSeries("X-Y", [0, 12, 24], [2000.0, 2500.0, 2000.0])
        r1 = apply_trade(R, fmamm_supply(R, 2500.0), 0.0)
        assert (r1.y, r1.x) == (22500.0, 9.0)
        r2 = apply_trade(r1, fmamm_supply(r1, 2000.0), 0.0)
        assert (r2.y, r2.x) == (20250.0, 10.125)
        result = backtest(series, 0.0, NO_NOISE, R)
        assert result.values[0] == 40000.0
        assert result.values[1] == pytest.approx(r1.value_at(2500.0), rel=1e-12)
        assert result.values[2] == pytest.approx(r2.value_at(2000.0), rel=1e-12)
        assert result.values[2] == pytest.approx(40500.0, rel=1e-12)
        assert result.values[2] > 40000.0

    def test_wide_band_only_marks(self):
        series = PriceSeries("X-Y", [0, 12, 24], [2000.0, 2100.0, 1900.0])
        result = backtest(series, 0.5, NO_NOISE, R)
        assert result.n_rebalances == 0
        assert result.values[1] == pytest.approx(R.value_at(2100.0), rel=1e-12)
        assert result.values[2] == pytest.approx(R.value_at(1900.0), rel=1e-12)

    def test_zero_fee_rebalance_invariance(self):
        path = sample_gbm_path(GbmParams(2000.0, 0.002, step_seconds=12, horizon_seconds=12 * 500, seed=9))
        grid = block_grid_series(path)
        result = run_fmamm_backtest(grid, 0.0)
        assert result.n_rebalances > 400
        for p, t in zip(grid.p_stars, result.trades):
            assert abs(p * t.x_after - t.y_after) / t.y_after < 1e-9

    def test_default_initial_is_balanced(self):
        series = flat_series(price=1234.0)
        result = backtest(series, 0.0)
        assert result.summary["initial_value"] == pytest.approx(2 * 1234.0, rel=1e-12)

    def test_latency_samples_earlier_price(self):
        series = PriceSeries("X-Y", [0, 10, 12], [2000.0, 2500.0, 3000.0])
        grid = block_grid_series(series, gamma=2.0)
        assert grid.p_stars[0] == 2500.0
        # the zero-fee pool is pinned at the trade price, not the mark
        first = run_fmamm_backtest(grid, 0.0, NO_NOISE, R).trades[0]
        assert first.y_after / first.x_after == pytest.approx(2500.0, rel=1e-12)

    def test_latency_marks_at_the_settlement_price(self):
        # trades see p(t - gamma), but the pool is marked at p(t), as the
        # baseline is on the same block grid
        path = sample_gbm_path(
            GbmParams(2000.0, 0.0005, step_seconds=1, horizon_seconds=1200, seed=6)
        )
        grid = block_grid_series(path, gamma=6.0)
        result = run_fmamm_backtest(grid, 0.003, NO_NOISE, R)
        last = result.trades[-1]
        assert grid.marks.timestamps[-1] == path.end
        assert grid.p_stars[-1] == forward_fill(path, [path.end - 6.0])[0][0]
        assert result.summary["terminal_value"] == last.y_after + path.prices[-1] * last.x_after
        marks = forward_fill(path, np.arange(0.0, path.end + 1.0, 12.0))[0]
        assert np.array_equal(grid.marks.prices, marks)
        assert result.values.shape == grid.marks.timestamps.shape
        values = result.trades.y_after + marks[1:] * result.trades.x_after
        assert np.array_equal(result.values[1:], values)
        assert not np.array_equal(grid.p_stars, marks[1:])

    @pytest.mark.parametrize("gamma, times", [(0.0, 101), (6.0, 201)])
    def test_block_grid_sampled_once(self, monkeypatch, gamma, times):
        # the grid gives the start price, the marks and, without latency, the
        # trade prices; a latency's trade times join the marks' in one search
        # of the series, and the kernel never samples
        path = sample_gbm_path(
            GbmParams(2000.0, 0.0005, step_seconds=1, horizon_seconds=1200, seed=6)
        )
        grids, searched = [], []
        sample, search = fmamm.backtest.block_grid_series, np.searchsorted
        monkeypatch.setattr(fmamm.backtest, "block_grid_series",
                            lambda *args, **kwargs: grids.append(args) or sample(*args, **kwargs))
        monkeypatch.setattr(np, "searchsorted",
                            lambda a, v, *args, **kwargs: searched.append(np.size(v))
                            or search(a, v, *args, **kwargs))
        grid = fmamm.backtest.block_grid_series(path, gamma=gamma)
        assert searched == [times]
        for tau in TAUS:
            run_fmamm_backtest(grid, tau)
        assert len(grids) == 1 and searched == [times]
        if gamma == 0.0:
            assert np.array_equal(grid.p_stars, grid.marks.prices[1:])

    @pytest.mark.parametrize("p_stars, named", [
        ([2000.0, 2000.0], "block grid misaligned: 2 trade prices for 3 blocks"),
        ([[2000.0], [2000.0], [2000.0]], "block grid misaligned: 3 trade prices for 3 blocks"),
        ([2000.0, math.nan, 2000.0], "block grid trade prices must be finite and positive"),
        ([2000.0, 2000.0, math.inf], "block grid trade prices must be finite and positive"),
        ([2000.0, 0.0, 2000.0], "block grid trade prices must be finite and positive"),
        ([-2000.0, 2000.0, 2000.0], "block grid trade prices must be finite and positive"),
    ])
    def test_hand_built_grid_is_checked(self, p_stars, named):
        # every trade price the kernel reads is one a PriceSeries would hold
        marks = block_grid_series(flat_series(blocks=3)).marks
        with pytest.raises(ValueError, match=re.escape(named)):
            BlockGrid(marks, p_stars)
        grid = BlockGrid(marks, [2000.0, 2100.0, 1900.0])
        assert isinstance(grid.p_stars, np.ndarray)
        assert run_fmamm_backtest(grid, 0.003, NO_NOISE, R).n_rebalances == 2

    def test_misaligned_volume_rejected(self):
        series = flat_series(blocks=3)
        scenario = NoiseScenario(0.1)
        with pytest.raises(ValueError, match="misaligned"):
            backtest(series, 0.0, scenario, R, baseline_volume=[1.0])
        # a positive fraction of no volume is an error, not silently no noise
        with pytest.raises(ValueError, match="noise fraction 0.1 needs a per-block baseline_volume"):
            backtest(series, 0.0, scenario, R)

    def test_swap_volume_is_one_per_block(self):
        # per_block_swap_volume takes the marks, start included; the
        # settlement times alone give one volume too few, which the run rejects
        grid = block_grid_series(flat_series(blocks=3))
        swaps = np.array([(1, 5, 1.0, b"token0", 1e9, 2000.0)], SWAP_LOG_DTYPE)
        volume = per_block_swap_volume(swaps, grid.marks.timestamps, 0.003)
        assert run_fmamm_backtest(grid, 0.003, NoiseScenario(0.1), R, volume).values.size == 4
        short = per_block_swap_volume(swaps, grid.marks.timestamps[1:], 0.003)
        with pytest.raises(ValueError, match="misaligned: 2 entries for 3 blocks"):
            run_fmamm_backtest(grid, 0.003, NoiseScenario(0.1), R, short)

    def test_bad_price_and_volume_name_the_problem(self):
        # the price series itself rejects an infinite price, so the kernel
        # never samples one
        with pytest.raises(PriceDataError, match="X-Y: point 2: price must be finite and positive"):
            PriceSeries("X-Y", [0, 12, 24, 36], [2000.0, 2000.0, math.inf, 2000.0])
        series = flat_series(blocks=3)
        scenario = NoiseScenario(0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                backtest(series, 0.0, scenario, R, baseline_volume=[1.0, bad, 1.0])

    @pytest.mark.parametrize("fraction, pool_fee", [(0.0, 1e-320), (1e308, 0.003)])
    def test_overflowing_noise_volume_is_rejected_without_a_warning(self, fraction, pool_fee):
        # a fee over a subnormal pool fee overflows to an infinite volume, and
        # zero noise times it is NaN; a huge fraction overflows a finite one
        series = flat_series(blocks=3)
        swaps = np.array([(1, 5, 1.0, b"token0", 1e9, 2000.0)], SWAP_LOG_DTYPE)
        grid = block_grid_series(series)
        volume = per_block_swap_volume(swaps, grid.marks.timestamps, pool_fee)
        with pytest.raises(ValueError, match="noise volumes must be finite"):
            run_fmamm_backtest(grid, 0.003, NoiseScenario(fraction), R, volume)

    def test_overflowing_reserves_name_the_first_block(self, monkeypatch):
        # the fee-grossed buy price overflows, so the first noisy block leaves
        # y infinite; the next would then miss its pin, but the first is
        # reported, also when it ends one chunk of the loop and the next
        # block raises in the following chunk
        top = 1.5e308
        scenario = NoiseScenario(1.0)
        for quiet in (0, 6):  # blocks before it, without noise, at spot: no trade
            if quiet:
                monkeypatch.setattr("fmamm.backtest._CHUNK", quiet + 1)
            first = rf"block {quiet + 1} \(t={12 * (quiet + 1)}\): reserves must be finite"
            for blocks in (1, 2):
                series = flat_series(price=top, blocks=quiet + blocks)
                with pytest.raises(ValueError, match=first):
                    backtest(series, 0.5, scenario, Reserves(top, 1.0),
                             [0.0] * quiet + [1.0] * blocks)

    def test_trade_at_the_pole_names_the_block(self):
        # a 1e13x jump: the arbitrageurs' buy rounds onto the pole x/2 itself,
        # which the check of the batch's settled net trade rejects
        series = PriceSeries("X-Y", [0, 12, 24], [2000.0, 2000.0, 2e16])
        with pytest.raises(InfeasibleTradeError, match=re.escape(
                "block 2 (t=24): net trade 0.49999999999995 is at or beyond the price pole "
                "x/2 = 0.5")):
            backtest(series, 0.0, NO_NOISE, balanced_reserves(2000.0, 1.0))

    def test_arithmetic_error_names_the_block_and_reserves(self):
        series = flat_series(blocks=1)
        with pytest.raises(ValueError, match=re.escape(
                "block 1 (t=12): float division by zero at reserves y=1.0, x=0.0")):
            backtest(series, 0.003, NO_NOISE, Reserves(1.0, 0.0))

    def test_balanced_noise_lower_bound(self):
        path = sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * 300, seed=21))
        volume = np.full(len(path) - 1, 0.05)
        zero = backtest(path, 0.003, NO_NOISE, R)
        noisy = backtest(path, 0.003, NoiseScenario(1.0), R, volume)
        assert noisy.terminal_roi >= zero.terminal_roi

    def test_random_sign_deterministic(self):
        path = sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=1200, seed=5))
        volume = np.full(len(path) - 1, 0.02)
        scenario = NoiseScenario(1.0, "random_sign", seed=77)
        a = backtest(path, 0.003, scenario, R, volume)
        b = backtest(path, 0.003, scenario, R, volume)
        assert np.array_equal(a.values, b.values)
        c = backtest(path, 0.003, NoiseScenario(1.0, "random_sign", seed=78), R, volume)
        assert not np.array_equal(a.values, c.values)

    def test_trade_log_is_the_kernels_array(self):
        # six float64 columns per block, the run's one log: every read gives
        # the array the kernel wrote, and nothing is built on access
        names = ("noise_net", "arb_trade", "y_after", "x_after", "fee_numeraire", "fee_asset")
        assert TRADE_LOG_DTYPE.names == names
        assert TRADE_LOG_DTYPE == np.dtype([(name, np.float64) for name in names])
        result = backtest(flat_series(price=2100.0, blocks=3), 0.003, NO_NOISE, R)
        assert [field.name for field in dataclasses.fields(result)] == [
            "values", "summary", "trades"]
        # one read-only value per mark, the start included
        assert result.values.dtype == np.float64 and result.values.shape == (4,)
        assert not result.values.flags.writeable
        assert result.trades is result.trades
        assert isinstance(result.trades, np.recarray)
        assert result.trades.dtype == TRADE_LOG_DTYPE and result.trades.shape == (3,)
        assert result.trades.flags.c_contiguous

    def test_peak_memory_per_block_is_bounded(self):
        # a run's numpy columns peak near 142 bytes per block, and the loop's
        # Python floats for one chunk add a fixed amount (about 50 bytes per
        # block at this size); floats for every block at once and a record
        # log built per run took about 350
        blocks = 12_000
        path = sample_gbm_path(
            GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * blocks, seed=59)
        )
        tracemalloc.start()
        try:
            result = backtest(path, 0.003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_rebalances > 0
        assert peak <= 250 * blocks, peak / blocks


# the reference's log: a block's settlement time, trade price, the reserves
# before it and the batch's net trade, then the kernel's own columns
REFERENCE_DTYPE = np.dtype([("time", np.float64), ("p_star", np.float64),
                            ("y_before", np.float64), ("x_before", np.float64),
                            ("net_trade", np.float64), *TRADE_LOG_DTYPE.descr])


def reference_backtest(prices, tau, noise, initial=None, baseline_volume=None, mu=12.0,
                       gamma=0.0):
    """Per-block composition of ``optimal_rebalance`` and ``settle_batch``:
    the trade log and the marked values the kernel must reproduce."""
    times = prices.start + mu * np.arange(1, int((prices.end - prices.start) // mu) + 1)
    p_stars = forward_fill(prices, times - gamma)[0]
    marks = forward_fill(prices, times)[0]
    p0 = float(prices.prices[0])
    reserves = initial if initial is not None else balanced_reserves(p0)
    volumes = np.zeros(times.size)
    if baseline_volume is not None:
        volumes = noise.fraction * np.asarray(baseline_volume, dtype=np.float64)
    signs = np.random.default_rng(noise.seed).integers(0, 2, size=times.size) * 2 - 1
    rows, values = [], [reserves.value_at(p0)]
    for i, (t, p, mark, v) in enumerate(
        zip(times.tolist(), p_stars.tolist(), marks.tolist(), volumes.tolist())
    ):
        orders = []
        if v > 0.0 and noise.direction == "balanced":
            orders = [Order("buy", "noise", 0.5 * v), Order("sell", "noise", -0.5 * v)]
        elif v > 0.0:
            orders = [Order("noise", "noise", int(signs[i]) * v)]
        noise_net = math.fsum(o.amount for o in orders)
        arb = optimal_rebalance(reserves, noise_net, tau, p)
        if arb != 0.0:
            orders.append(Order("arb", "arbitrageur", arb))
        before, net, fee_n, fee_a = reserves, 0.0, 0.0, 0.0
        if orders:
            reserves, report = settle_batch(reserves, Batch(i + 1, tuple(orders)), tau)
            net, fee_n, fee_a = report.net_trade, report.fee_numeraire, report.fee_asset
        rows.append((t, p, before.y, before.x, net,
                     noise_net, arb, reserves.y, reserves.x, fee_n, fee_a))
        values.append(reserves.value_at(mark))
    return np.rec.fromrecords(rows, dtype=REFERENCE_DTYPE), np.array(values)


def state_before(trades, initial):
    """Per block: the reserves ``y`` and ``x`` it starts from, each block's
    after state shifted one on, with the run's ``initial`` reserves in front."""
    return (np.concatenate(([initial.y], trades.y_after[:-1])),
            np.concatenate(([initial.x], trades.x_after[:-1])))


def sign_mixing(log, tau):
    """Rebalances whose same-sign closed form lands on the noise's side of zero:
    the branch ``optimal_rebalance`` takes, which the kernel's count, read off
    the signs of its trades, must agree with."""
    keep = 1.0 - tau
    buy_mixing = (log.arb_trade > 0.0) & (log.x_before - log.y_before / (keep * log.p_star) < 0.0)
    sell_mixing = (log.arb_trade < 0.0) & (log.x_before / keep - log.y_before / log.p_star > 0.0)
    return int(np.count_nonzero(buy_mixing | sell_mixing))


def assert_matches_reference(result, grid, reference, rtol):
    """The kernel's log and marked values against the reference's: bit for
    bit at ``rtol`` 0, else to ``rtol``; the reference's own times and trade
    prices against the grid the run used, exactly."""
    log, values = reference
    got = result.trades
    assert got.dtype == TRADE_LOG_DTYPE and got.shape == log.shape
    assert np.array_equal(log.time, grid.marks.timestamps[1:])
    assert np.array_equal(log.p_star, grid.p_stars)
    # and the batch's net trade, as settle_batch sums it
    columns = {name: got[name] for name in TRADE_LOG_DTYPE.names}
    columns["net_trade"] = got.noise_net + got.arb_trade
    for name, column in columns.items():
        if rtol == 0.0:
            assert np.array_equal(column, log[name]), name
        else:
            np.testing.assert_allclose(column, log[name], rtol=rtol, atol=0.0, err_msg=name)
    roi = values / values[0] - 1.0
    if rtol == 0.0:
        assert np.array_equal(result.values, values)
        assert np.array_equal(cumulative_roi(result.values), roi)
    else:
        np.testing.assert_allclose(result.values, values, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(cumulative_roi(result.values), roi, rtol=rtol, atol=1e-15)


class TestKernelMatchesReference:
    @pytest.fixture(scope="class")
    def scenario(self):
        path = sample_gbm_path(
            GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * 2000, seed=31)
        )
        rng = np.random.default_rng(37)
        volume = rng.exponential(0.01, 2000)
        volume[rng.random(2000) < 0.3] = 0.0
        return path, volume

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("kind", ["none", "balanced", "random_sign"])
    def test_block_by_block(self, scenario, tau, kind):
        path, volume = scenario
        noise = NO_NOISE
        if kind != "none":
            noise = NoiseScenario(2.0, kind, seed=41)
        grid = block_grid_series(path)
        result = run_fmamm_backtest(grid, tau, noise, None, volume)
        reference = reference_backtest(path, tau, noise, None, volume)
        assert_matches_reference(result, grid, reference, rtol=0.0 if kind == "none" else 1e-12)

        log = reference[0]
        summary = result.summary
        assert summary["n_rebalances"] == np.count_nonzero(log.arb_trade) > 0
        assert summary["n_buy_rebalances"] == np.count_nonzero(log.arb_trade > 0.0)
        assert summary["n_sell_rebalances"] == np.count_nonzero(log.arb_trade < 0.0)
        assert summary["n_sign_mixing"] == sign_mixing(log, tau)
        if kind == "random_sign":
            assert summary["n_sign_mixing"] > 0
        # the totals over the nonzero fees are the exact sums of whole columns
        assert summary["fee_numeraire_total"] == math.fsum(result.trades.fee_numeraire.tolist())
        assert summary["fee_asset_total"] == math.fsum(result.trades.fee_asset.tolist())

    @pytest.mark.parametrize("kind", ["none", "balanced", "random_sign"])
    def test_block_by_block_across_chunks(self, scenario, monkeypatch, kind):
        # 2,000 blocks fit in one chunk of the loop; in chunks of 7 the
        # reserves and the log must carry across every boundary unchanged
        monkeypatch.setattr("fmamm.backtest._CHUNK", 7)
        path, volume = scenario
        noise = NO_NOISE
        if kind != "none":
            noise = NoiseScenario(2.0, kind, seed=41)
        grid = block_grid_series(path)
        result = run_fmamm_backtest(grid, 0.003, noise, None, volume)
        reference = reference_backtest(path, 0.003, noise, None, volume)
        assert_matches_reference(result, grid, reference, rtol=0.0 if kind == "none" else 1e-12)

    @pytest.mark.parametrize("kind", ["none", "random_sign"])
    def test_block_by_block_with_latency(self, kind):
        path = sample_gbm_path(
            GbmParams(2000.0, 0.0005, step_seconds=1, horizon_seconds=12 * 300, seed=43)
        )
        volume = np.random.default_rng(47).exponential(0.01, 300)
        noise = NO_NOISE
        if kind != "none":
            noise = NoiseScenario(2.0, kind, seed=53)
        grid = block_grid_series(path, gamma=6.0)
        result = run_fmamm_backtest(grid, 0.003, noise, None, volume)
        reference = reference_backtest(path, 0.003, noise, None, volume, gamma=6.0)
        assert_matches_reference(result, grid, reference, rtol=0.0 if kind == "none" else 1e-12)

    @pytest.mark.parametrize("seed, settles", [(0, True), (1, False)])  # noise buy, sell
    def test_pin_checked_at_the_settled_trade(self, seed, settles):
        # at p/spot = 2.5e7 the pole is 4e-8 away, and noise plus trade rounds
        # by about ulp(0.3): with the noise selling, the solved root pins the
        # price but the settled trade misses it by more than the tolerance.
        # Both paths check the pin at the settled trade, so both raise.
        series = PriceSeries("X-Y", [0.0, 12.0], [1.0, 2.5e7])
        noise = NoiseScenario(1.0, "random_sign", seed)
        args = (series, 0.0, noise, Reserves(1.0, 1.0), [0.3])
        if settles:
            grid = block_grid_series(series)
            assert_matches_reference(run_fmamm_backtest(grid, *args[1:]), grid,
                                     reference_backtest(*args), 1e-12)
            return
        with pytest.raises(ConvergenceError):
            reference_backtest(*args)
        with pytest.raises(ConvergenceError, match=r"block 1 \(t=12\)"):
            backtest(*args)

    @settings(max_examples=300, deadline=None)
    @given(
        y=st.floats(1e-3, 1e9),
        x=st.floats(1e-3, 1e6),
        ratio=st.floats(1e-2, 1e2),
        # as a share of the asset reserve: a random-sign buy past 1/2 hits the pole
        volume=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
        tau=st.floats(0.0, 0.2),
        direction=st.sampled_from(NOISE_DIRECTIONS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_block_property(self, y, x, ratio, volume, tau, direction, seed):
        series = PriceSeries("X-Y", [0.0, 12.0], [y / x, y / x * ratio])
        noise = NoiseScenario(1.0, direction, seed)
        args = (series, tau, noise, Reserves(y, x), [volume * x])
        try:
            reference = reference_backtest(*args)
        except (ValueError, ConvergenceError) as exc:
            with pytest.raises(type(exc)) as raised:
                backtest(*args)
            assert type(raised.value) is type(exc)
            return
        grid = block_grid_series(series)
        assert_matches_reference(run_fmamm_backtest(grid, *args[1:]), grid, reference, rtol=1e-12)

    def test_band_edge_tie_is_no_trade(self):
        # p* is one ulp above the band's upper edge; the buy root rounds to
        # -1.8e-15, and a buy on the wrong side of zero is the tie
        reserves = Reserves(56223.62199100347, 25.893870671161515)
        tau, p_star = 0.05, 2285.5895413289027
        assert math.nextafter(no_trade_band(reserves, 0.0, tau)[1], math.inf) == p_star
        assert optimal_rebalance(reserves, 0.0, tau, p_star) == 0.0
        series = PriceSeries("A-B", [0.0, 12.0], [2171.0, p_star])
        result = backtest(series, tau, initial=reserves)
        assert result.n_rebalances == 0
        assert (result.trades.y_after[0], result.trades.x_after[0]) == (reserves.y, reserves.x)

    @settings(max_examples=400, deadline=None)
    @given(
        y=st.floats(1e-3, 1e9),
        x=st.floats(1e-3, 1e6),
        tau=st.floats(0.0, 0.2),
        # the noise's net order as a share of the asset reserve, short of the pole
        noise=st.one_of(st.just(0.0), st.floats(-0.4, 0.4)),
        edge=st.sampled_from([0, 1]),
        toward=st.sampled_from([-math.inf, math.inf]),
    )
    def test_band_edge_property(self, y, x, tau, noise, edge, toward):
        # p* one ulp either side of either band edge: neither path raises,
        # and both take the same trade, bit for bit
        reserves, a = Reserves(y, x), noise * x
        p_star = math.nextafter(no_trade_band(reserves, a, tau)[edge], toward)
        arb = optimal_rebalance(reserves, a, tau, p_star)
        series = PriceSeries("X-Y", [0.0, 12.0], [y / x, p_star])
        # random-sign noise: seed 0 buys, seed 1 sells
        scenario = NoiseScenario(1.0, "random_sign", seed=int(a < 0.0))
        result = backtest(series, tau, scenario, reserves, [abs(a)])
        assert result.trades.noise_net[0] == a
        assert result.trades.arb_trade[0] == arb

    @settings(max_examples=100, deadline=None)
    @given(
        blocks=st.integers(1, 300),
        tau=st.floats(0.0, 0.1),
        kind=st.sampled_from(["none", *NOISE_DIRECTIONS]),
        gamma=st.sampled_from([0.0, 6.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_arbitrage_column_is_arbitrage_order_property(self, blocks, tau, kind, gamma, seed):
        # the kernel inlines arbitrage_order: on the run's own columns the two
        # agree on every block, bit for bit, noise included, across chunks of 7;
        # blocks without volume mix quiet blocks, which the screen may skip,
        # with noisy ones, which always run the body
        path = sample_gbm_path(
            GbmParams(2000.0, 0.001, step_seconds=3, horizon_seconds=12 * blocks, seed=seed))
        rng = np.random.default_rng(seed)
        volume = rng.exponential(0.01, blocks)
        volume[rng.random(blocks) < 0.5] = 0.0
        noise = NO_NOISE if kind == "none" else NoiseScenario(2.0, kind, seed=seed)
        grid = block_grid_series(path, gamma=gamma)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("fmamm.backtest._CHUNK", 7)
            log = run_fmamm_backtest(grid, tau, noise, None, volume).trades
        y, x = state_before(log, balanced_reserves(float(grid.marks.prices[0])))
        want = arbitrage_order(y, x, log.noise_net, tau, grid.p_stars)
        assert np.array_equal(log.arb_trade, want)


class TestZeroFeeClosedForm:
    def test_cumprod_oracle_100k_blocks(self):
        # zero fee pins y = p*x each block, so x_n = x_{n-1} (1 + p_{n-1}/p_n) / 2
        path = sample_gbm_path(
            GbmParams(2000.0, 0.0005, step_seconds=12, horizon_seconds=12 * 100_000, seed=13)
        )
        result = backtest(path, 0.0)
        p = path.prices
        x = np.cumprod((1.0 + p[:-1] / p[1:]) / 2.0)
        y = p[1:] * x
        np.testing.assert_allclose(result.trades.x_after, x, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(result.trades.y_after, y, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(result.values[1:], 2.0 * y, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gamma", [1.0, 6.0, 11.0])
    def test_latency_closed_form(self, gamma):
        # the pool trades at s_n, sampled gamma seconds early, so y = s_n*x and
        # x_n = x_{n-1} (s_{n-1} + s_n) / (2 s_n), from s_0 the start mark; it is
        # marked at the settlement price p_n, so V_n = x_n (s_n + p_n)
        path = sample_gbm_path(
            GbmParams(2000.0, 0.0005, step_seconds=1, horizon_seconds=12 * 50_000, seed=19)
        )
        grid = block_grid_series(path, gamma=gamma)
        result = run_fmamm_backtest(grid, 0.0)
        s = np.concatenate((grid.marks.prices[:1], grid.p_stars))
        x = np.cumprod((s[:-1] + s[1:]) / (2.0 * s[1:]))
        np.testing.assert_allclose(result.trades.x_after, x, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(result.values[1:], x * (s[1:] + grid.marks.prices[1:]),
                                   rtol=1e-12, atol=0.0)


class TestLvrKeptIdentity:
    """At zero fee and zero noise the FM-AMM maps value ``V`` to ``V(1+R)/2``
    per mark, ``R = p_n/p_{n-1}``, while the full-range position with no
    swaps is the constant-product pool arbitraged at every mark, worth
    ``2L√p``.  So the ratio of their gross returns is ``∏ cosh(½·Δlog p)``:
    the FM-AMM LP keeps exactly what the constant-product LP loses to
    arbitrageurs (its LVR, arXiv:2208.06046), on every path."""

    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.integers(2, 10_000),
        volatility=st.floats(1e-4, 1e-2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gross_return_ratio_is_the_cosh_product(self, blocks, volatility, seed):
        path = sample_gbm_path(GbmParams(2000.0, volatility, step_seconds=12,
                                         horizon_seconds=12 * blocks, seed=seed))
        grid = block_grid_series(path)
        result = run_fmamm_backtest(grid, 0.0)
        baseline = run_baseline(np.empty(0, SWAP_LOG_DTYPE), grid.marks, 1.0)
        fm, cp = result.values, baseline
        ratio = (fm[-1] / fm[0]) / (cp[-1] / cp[0])
        kept = np.prod(np.cosh(0.5 * np.diff(np.log(grid.marks.prices))))
        assert kept >= 1.0
        assert ratio == pytest.approx(kept, rel=1e-12, abs=0.0)


class TestZeroLvr:
    """The arbitrageurs' pinned order fills at ``p*`` fee included, so without
    noise each block's LP value change is exactly ``x_{n-1}·(p*_n − p*_{n-1})``:
    the LP loses nothing against rebalancing at the market price (zero LVR).
    Noise fills at or outside the band around ``p*``, so it can only add."""

    PATH = sample_gbm_path(
        GbmParams(2000.0, 0.0005, step_seconds=12, horizon_seconds=12 * 100_000, seed=17)
    )

    @staticmethod
    def residual(path, tau, noise=NO_NOISE, volume=None):
        """Per block: LP value change less ``x_{n-1}·Δp*``, over the pool value."""
        grid = block_grid_series(path)
        result = run_fmamm_backtest(grid, tau, noise, baseline_volume=volume)
        assert np.array_equal(grid.p_stars, path.prices[1:])
        values = result.values
        _, x_before = state_before(result.trades, balanced_reserves(float(path.prices[0])))
        change = np.diff(values) - x_before * np.diff(path.prices)
        return change / values[1:]

    @pytest.mark.parametrize("tau", [0.0, 0.0005, 0.003])
    def test_zero_noise_value_change_is_the_price_move(self, tau):
        residual = self.residual(self.PATH, tau)
        assert np.abs(residual).max() <= 1e-12

    @pytest.mark.parametrize("direction", NOISE_DIRECTIONS)
    def test_noise_only_adds(self, direction):
        # up to 2% of the one-unit asset reserve per block, well short of the pole
        volume = np.random.default_rng(3).uniform(0.0, 0.02, len(self.PATH) - 1)
        noise = NoiseScenario(1.0, direction, seed=5)
        residual = self.residual(self.PATH, 0.003, noise, volume)
        assert residual.min() >= -1e-12
        assert residual.max() > 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        blocks=st.integers(2, 500),
        tau=st.floats(0.0, 0.05),
        direction=st.sampled_from(NOISE_DIRECTIONS),
        fraction=st.floats(0.0, 1.0),
        volume=st.floats(0.0, 0.02),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noise_only_adds_property(self, blocks, tau, direction, fraction, volume, seed):
        # per-block volume up to 2% of the one-unit asset reserve
        path = sample_gbm_path(
            GbmParams(2000.0, 0.0005, step_seconds=12, horizon_seconds=12 * blocks, seed=seed))
        volumes = np.random.default_rng(seed).uniform(0.0, volume, blocks)
        noise = NoiseScenario(fraction, direction, seed=seed)
        assert self.residual(path, tau, noise, volumes).min() >= -1e-12


class TestTradeFrequency:
    """The fee path against an oracle that shares no code with it: on a
    Poisson block clock of rate ``1/mu``, a pool whose no-trade band is
    ``[keep·p, p/keep]`` trades in a fraction ``1/(1 + √(2/mu)·γ/σ)`` of
    blocks, ``γ = −log(keep)`` (Milionis, Moallemi and Roughgarden,
    arXiv:2305.14604).  GBM log-increments over exponential intervals of
    mean ``mu`` are laid on the fixed ``mu`` grid the kernel walks."""

    MU = 12.0
    SIGMA = 0.8 / math.sqrt(365 * 86400)  # 80% a year, per √second
    SEEDS = range(8)
    BLOCKS = 100_000

    @pytest.fixture(scope="class")
    def paths(self):
        def path(seed):
            rng = np.random.default_rng(seed)
            dt = rng.exponential(self.MU, self.BLOCKS)
            steps = -0.5 * self.SIGMA**2 * dt + self.SIGMA * np.sqrt(dt) * rng.standard_normal(
                self.BLOCKS)
            return PriceSeries("X-Y", self.MU * np.arange(self.BLOCKS + 1),
                               2000.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps)))))
        return [path(seed) for seed in self.SEEDS]

    @pytest.mark.parametrize("tau", [0.0005, 0.003, 0.01, 0.03])
    def test_fraction_of_blocks_that_trade(self, paths, tau):
        fractions = []
        for path in paths:
            result = backtest(path, tau, mu=self.MU)
            fractions.append(result.n_rebalances / result.summary["n_blocks"])
        gamma = -math.log1p(-tau)
        want = 1.0 / (1.0 + math.sqrt(2.0 / self.MU) * gamma / self.SIGMA)
        se = np.std(fractions, ddof=1) / math.sqrt(len(fractions))
        assert abs(np.mean(fractions) - want) <= 3.0 * se, (np.mean(fractions), want, se)


class TestNoiseScenario:
    def test_fraction_must_be_non_negative(self):
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError, match="fraction must be non-negative"):
                NoiseScenario(bad)

    @pytest.mark.parametrize("seed, named", [
        (-1, "seed must be non-negative, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ])
    def test_seed_must_be_a_non_negative_integer(self, seed, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            NoiseScenario(0.1, "random_sign", seed)

    def test_direction_must_be_known(self):
        with pytest.raises(ValueError, match=re.escape(
                f"direction must be one of {NOISE_DIRECTIONS}, got 'up'")):
            NoiseScenario(0.1, "up")

    def test_summary_reports_the_applied_fraction(self):
        series = PriceSeries("X-Y", [0, 12], [2000.0, 2100.0])
        for fraction in (0.0, 0.25):
            noise = NoiseScenario(fraction, "balanced", 4)
            summary = backtest(series, 0.003, noise, R, [1.0]).summary
            assert "noise_mode" not in summary
            assert (summary["noise_fraction"], summary["noise_direction"], summary["seed"]) == (
                fraction, "balanced", 4)
            # the arbitrageurs buy, so only the noise's sell leg pays in asset
            assert (summary["fee_asset_total"] > 0.0) == (fraction > 0.0)
        assert backtest(series, 0.003, NO_NOISE, R).summary["noise_fraction"] == 0.0


class TestFeeSweep:
    def test_constant_price_all_zero(self):
        series = flat_series()
        grid = block_grid_series(series)
        for tau in DEFAULT_FEE_GRID:
            assert run_fmamm_backtest(grid, tau, NO_NOISE, R).terminal_roi == 0.0

    def test_zero_fee_entry_matches_plain_run(self):
        # runs on one grid and start state share nothing: the zero-fee run
        # of a sweep is a plain run
        path = sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=1200, seed=2))
        grid = block_grid_series(path)
        sweep = {tau: run_fmamm_backtest(grid, tau, NO_NOISE, R) for tau in DEFAULT_FEE_GRID}
        plain = backtest(path, 0.0, NO_NOISE, R)
        assert np.array_equal(sweep[0.0].values, plain.values)

    def test_trend_rebalance_counts_fall_with_fee(self):
        ts = 12.0 * np.arange(101)
        prices = 2000.0 * 1.001 ** np.arange(101)  # steady one-way trend
        series = PriceSeries("X-Y", ts, prices)
        grid = block_grid_series(series)
        counts = [run_fmamm_backtest(grid, tau, NO_NOISE, R).n_rebalances
                  for tau in (0.0, 0.003, 0.05)]
        assert counts[0] == 100
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[2] < 100


class TestNoiseSweep:
    def make_path(self):
        return sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * 200, seed=3))

    @staticmethod
    def sweep(path, fractions, volume):
        grid = block_grid_series(path)
        return {f: run_fmamm_backtest(grid, 0.003, NoiseScenario(f), R, volume)
                for f in fractions}

    def test_zero_fraction_is_zero_noise(self):
        # given a volume, a zero fraction runs bit for bit as no noise at all
        path = self.make_path()
        volume = np.full(len(path) - 1, 0.05)
        plain = backtest(path, 0.003, NO_NOISE, R)
        assert plain.n_rebalances > 0
        assert self.sweep(path, (0.5,), volume)[0.5].terminal_roi > plain.terminal_roi
        for direction in NOISE_DIRECTIONS:
            zero = backtest(path, 0.003, NoiseScenario(0.0, direction, 9), R, volume)
            assert np.array_equal(zero.values, plain.values)
            for name in TRADE_LOG_DTYPE.names:
                assert np.array_equal(zero.trades[name], plain.trades[name]), name

    def test_fee_revenue_linear_in_fraction_per_block(self):
        series = PriceSeries("X-Y", [0, 12], [2000.0, 2100.0])
        sweep = self.sweep(series, (0.0, 0.25, 0.5), np.array([1.0]))
        fee0 = sweep[0.0].trades[0]
        fee1 = sweep[0.25].trades[0]
        fee2 = sweep[0.5].trades[0]
        extra_n1 = fee1.fee_numeraire - fee0.fee_numeraire
        extra_n2 = fee2.fee_numeraire - fee0.fee_numeraire
        assert extra_n2 == pytest.approx(2 * extra_n1, rel=1e-12)
        extra_a1 = fee1.fee_asset - fee0.fee_asset
        extra_a2 = fee2.fee_asset - fee0.fee_asset
        assert extra_a2 == pytest.approx(2 * extra_a1, rel=1e-12)
        assert extra_n1 > 0 and extra_a1 > 0

    def test_roi_nondecreasing_in_fraction(self):
        path = self.make_path()
        volume = np.full(len(path) - 1, 0.05)
        sweep = self.sweep(path, (0.0, 0.1, 0.3, 0.5), volume)
        rois = [result.terminal_roi for result in sweep.values()]
        assert all(b >= a - 1e-15 for a, b in zip(rois, rois[1:]))


class TestValueFunction:
    def test_matches_scalar_rebalance_and_objective(self):
        # random prices, and each band edge and one ulp either side of it
        rng = np.random.default_rng(67)
        cases = []
        for _ in range(200):
            tau = rng.uniform(0.0, 0.1)
            cases.append((R, tau, 2000.0 * rng.uniform(0.4, 2.5)))
        cases.append((Reserves(56223.62199100347, 25.893870671161515), 0.05, 2062.744561049334))
        for reserves, tau, _ in list(cases):
            for edge in no_trade_band(reserves, 0.0, tau):
                for p in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                    cases.append((reserves, tau, p))
        for reserves, tau, p in cases:
            want = objective_value(optimal_rebalance(reserves, 0.0, tau, p), p, tau, reserves)
            assert value_function([p], reserves, tau)[0] == want, (reserves, tau, p)

    @settings(max_examples=100, deadline=None)
    @given(
        y=st.floats(1e-3, 1e9),
        x=st.floats(1e-3, 1e6),
        tau=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
        ratio=st.floats(0.2, 5.0),
        ulps=st.sampled_from([-1, 0, 1]),
    )
    def test_matches_scalar_rebalance_property(self, y, x, tau, ratio, ulps):
        # a random price, and every band edge one ulp either side or on it
        reserves = Reserves(y, x)
        prices = [reserves.spot_price * ratio]
        for edge in no_trade_band(reserves, 0.0, tau):
            prices.append(math.nextafter(edge, ulps * math.inf) if ulps else edge)
        want = [objective_value(optimal_rebalance(reserves, 0.0, tau, p), p, tau, reserves)
                for p in prices]
        assert value_function(prices, reserves, tau).tolist() == want

    def test_zero_asset_reserve_is_the_sell_root(self):
        # no spot price: every finite price lies below the band, and the sell
        # root -y/(2p) gives y^2/(4p), with no warning from the division by x = 0
        p = np.array([1000.0, 2000.0, 4000.0])
        got = value_function(p, Reserves(20000.0, 0.0), 0.003)
        np.testing.assert_allclose(got, 20000.0**2 / (4.0 * p), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("p, reserves, named", [
        (1e-320, R, "1e-320 with reserves y=20000.0, x=10.0"),
        (1e308, R, "1e+308 with reserves y=20000.0, x=10.0"),
        (3000.0, Reserves(1e308, 1e-308), "3000.0 with reserves y=1e+308, x=1e-308"),
    ])
    def test_overflowing_value_is_rejected(self, p, reserves, named):
        # the order overflows to +-inf, and inf*(-inf) would give nan or a wrong-signed inf
        named = f"value function is not finite at price {named}"
        with pytest.raises(ValueError, match=re.escape(named)):
            value_function([p], reserves, 0.003)

    def test_matches_golden_section_maximization(self):
        # each branch of the objective is a concave quadratic in the trade and
        # the kink at 0 is concave, so a golden-section search finds its maximum
        shrink = (math.sqrt(5.0) - 1.0) / 2.0
        for tau, p in [(0.0, 2500.0), (0.003, 1800.0), (0.05, 2100.0), (0.1, 900.0)]:
            def f(x):
                return objective_value(x, p, tau, R)

            a, b = -R.y / p * 0.999, R.x * 0.499
            while b - a > 1e-12:
                c, d = b - shrink * (b - a), a + shrink * (b - a)
                a, b = (a, d) if f(c) > f(d) else (c, b)
            best = f(0.5 * (a + b))
            got = value_function([p], R, tau)[0]
            assert got == pytest.approx(best, rel=1e-9)
            assert got >= best - 1e-6

    def test_flat_inside_band(self):
        tau = 0.01
        lo = (1 - tau) * R.spot_price
        hi = R.spot_price / (1 - tau)
        inside = np.linspace(lo * 1.0001, hi * 0.9999, 7)
        vals = value_function(inside, R, tau)
        assert np.all(vals == R.x * R.y / (1 - tau))

    def test_convexity_on_grid(self):
        p = np.linspace(500.0, 5000.0, 2001)
        v = value_function(p, R, 0.003)
        second = np.diff(v, 2)
        assert np.all(second >= -1e-6 * np.abs(v[1:-1]))


class TestRiskMonteCarlo:
    def test_zero_spread_exact_zero(self):
        out = risk_monte_carlo(np.full(1000, 2000.0), 0.0, R, 0.003)
        assert out.difference == 0.0
        assert out.z_score == 0.0

    def test_one_draw_rejected(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match=f"n_draws must be at least 2 .*, got {n}"):
                risk_monte_carlo(np.full(n, 2000.0), 200.0, R, 0.003)

    def test_degenerate_base_significant_gain(self):
        out = risk_monte_carlo(np.full(10_000, 2000.0), 200.0, R, 0.003, seed=1)
        assert out.difference > 0
        assert out.z_score >= 5.0

    def test_band_containing_atoms_no_gain(self):
        # +-10% atoms stay inside the band once the fee passes 10%
        out = risk_monte_carlo(np.full(10_000, 2000.0), 200.0, R, 0.15, seed=1)
        assert out.difference == 0.0

    def test_paired_differences_nonnegative(self):
        rng = np.random.default_rng(71)
        base = rng.lognormal(math.log(2000.0), 0.1, size=5000)
        out = risk_monte_carlo(base, 100.0, R, 0.003, seed=2)
        assert out.mean_value_spread >= out.mean_value_base
        assert out.difference >= 0.0


    @settings(max_examples=300, deadline=None)
    @given(
        ratio=st.one_of(st.floats(0.99, 1.01), st.floats(0.2, 5.0)),
        sd=st.floats(0.0, 1e4),
        tau=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
    )
    def test_two_point_expectation_nonnegative_property(self, ratio, sd, tau):
        # the spread's exact expectation, each atom with probability 1/2, is
        # at least the base value by convexity, inside the band and off it,
        # up to the rounding of the three values (a tiny spread's gain is below it)
        base = R.spot_price * ratio
        delta = min(sd, 0.5 * base)
        down, mid, up = value_function([base - delta, base, base + delta], R, tau)
        assert 0.5 * (up + down) - mid >= -1e-13 * mid, (base, delta, down, mid, up)

    def test_single_draws_can_lose(self):
        # base 3000 lies above the band: the draws moving toward it lose value,
        # though the exact expectation is a gain
        base = np.full(10, 3000.0)
        tau = 0.003
        spread = mean_preserving_spread(base, 200.0, np.random.default_rng(0))
        diffs = value_function(spread, R, tau) - value_function(base, R, tau)
        assert sorted(np.round(diffs, 1).tolist()) == [-2604.7] * 6 + [2904.1] * 4
        assert risk_monte_carlo(base, 200.0, R, tau, seed=0).difference == pytest.approx(
            diffs.mean(), rel=1e-12)
        assert diffs.mean() == pytest.approx(-401.2, abs=0.05)
        down, mid, up = value_function([2800.0, 3000.0, 3200.0], R, tau)
        assert 0.5 * (up + down) - mid == pytest.approx(149.7, abs=0.05)

    def test_overflowing_statistics_are_rejected(self):
        # every value is finite, but the squares in the standard error are not
        with pytest.raises(ValueError, match=re.escape(
                "Monte Carlo statistics overflow at reserves y=1e+200, x=1e+100")):
            risk_monte_carlo(np.full(10, 1e100), 1e99, Reserves(1e200, 1e100), 0.003)


class TestSandwichImmunity:
    def run_block(self, reserves, orders_net, tau, p_star):
        arb = optimal_rebalance(reserves, orders_net, tau, p_star)
        return arb, orders_net + arb

    def test_victim_price_unchanged_when_arb_active(self):
        rng = np.random.default_rng(73)
        checked = 0
        for _ in range(500):
            tau = rng.uniform(0.0, 0.01)
            victim = rng.uniform(-0.5, 0.5)
            if victim == 0.0:
                continue
            attack = rng.uniform(0.01, 0.5)
            p_star = 2000.0 * rng.uniform(0.9, 1.1)
            arb0, net0 = self.run_block(R, victim, tau, p_star)
            arb1, net1 = self.run_block(R, victim + attack, tau, p_star)
            if arb0 == 0.0 or arb1 == 0.0:
                continue
            if np.sign(arb0) != np.sign(arb1) or np.sign(net0) != np.sign(net1):
                continue
            checked += 1
            p_victim0 = effective_price(R, net0, tau, victim)
            p_victim1 = effective_price(R, net1, tau, victim)
            assert p_victim1 == pytest.approx(p_victim0, rel=1e-9)
        assert checked > 300

    def test_attacker_round_trip_unprofitable(self):
        rng = np.random.default_rng(79)
        for _ in range(1000):
            tau = rng.uniform(0.0, 0.05)
            reserves = Reserves(rng.uniform(1e3, 1e6), rng.uniform(1.0, 100.0))
            p_star = reserves.spot_price * rng.uniform(0.85, 1.15)
            victim = rng.uniform(-0.02, 0.02) * reserves.x
            attack = rng.uniform(0.001, 0.05) * reserves.x
            # block 1: victim plus attacker front-run buy
            noise1 = victim + attack if victim != 0.0 else attack
            arb1, net1 = self.run_block(reserves, noise1, tau, p_star)
            buy_price = effective_price(reserves, net1, tau, +1)
            mid = apply_trade(reserves, net1, tau) if net1 != 0.0 else reserves
            # block 2: attacker back-run sell, same external price
            arb2, net2 = self.run_block(mid, -attack, tau, p_star)
            sell_price = effective_price(mid, net2, tau, -1)
            profit = attack * (sell_price - buy_price)
            assert profit <= 1e-9 * attack * p_star

    def test_buy_at_least_sell_at_most_external(self):
        # with arbitrageurs active every batch buys at >= p* and sells at <= p*
        rng = np.random.default_rng(83)
        for _ in range(500):
            tau = rng.uniform(0.0, 0.05)
            noise = rng.uniform(-1.0, 1.0)
            p_star = 2000.0 * rng.uniform(0.7, 1.4)
            arb, net = self.run_block(R, noise, tau, p_star)
            assert effective_price(R, net, tau, +1) >= p_star * (1 - 1e-9)
            assert effective_price(R, net, tau, -1) <= p_star * (1 + 1e-9)


class TestScenarioConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            '{"pair": "WETH-USDT", "price_csv": "p.csv", "fee": 0.0005,'
            ' "fee_grid": [0.0, 0.003], "seed": 7}'
        )
        cfg = ScenarioConfig.from_json(path)
        assert cfg.pair == "WETH-USDT"
        assert cfg.fee == 0.0005
        assert cfg.fee_grid == (0.0, 0.003)
        assert cfg.mu == 12.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"pair": "A-B", "price_csv": "p.csv", "bogus": 1}')
        with pytest.raises(ValueError, match="bogus"):
            ScenarioConfig.from_json(path)

    def test_missing_required(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"pair": "A-B"}')
        with pytest.raises(ValueError, match="price_csv"):
            ScenarioConfig.from_json(path)


    def test_null_swap_csv_is_no_swap_csv(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"pair": "A-B", "price_csv": "p.csv", "swap_csv": null}')
        assert ScenarioConfig.from_json(path).swap_csv is None

    @pytest.mark.parametrize("text, named", [
        ('{"pair": 5, "price_csv": "p.csv"}', "config key 'pair' must be a string, got 5"),
        ('{"pair": "A-B", "price_csv": "p.csv", "seed": 1.5}',
         "config key 'seed' must be an integer, got 1.5"),
        ('{"pair": "A-B", "price_csv": "p.csv",', "invalid JSON: "),
    ])
    def test_rejected_naming_the_file(self, tmp_path, text, named):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
            ScenarioConfig.from_json(path)


class TestSweepRunId:
    @settings(max_examples=500)
    @given(mantissa=st.integers(0, 999_999), exponent=st.integers(-20, 0),
           prefix=st.sampled_from(["fee", "noise"]))
    def test_short_values_keep_the_g_form(self, mantissa, exponent, prefix):
        # below 1e6 with at most 6 significant digits (the default and bench
        # grids), the exact id is the one the 6-digit {:g} form gives
        value = float(f"{mantissa}e{exponent}")
        assert sweep_run_id(prefix, value) == f"{prefix}_{value:g}"

    def test_exact_form(self):
        assert sweep_run_id("fee", 0.0010000001) == "fee_0.0010000001"
        assert sweep_run_id("noise", 1e6) == "noise_1000000"
        assert sweep_run_id("fee", -0.0) == "fee_0"


class TestBalancedReserves:
    def test_values_equal(self):
        r = balanced_reserves(2000.0, 5.0)
        assert r.y == pytest.approx(2000.0 * 5.0)
        assert r.y == pytest.approx(2000.0 * r.x)


    @pytest.mark.parametrize("price, depth", [(0.0, 1.0), (-2000.0, 1.0), (2000.0, 0.0),
                                              (2000.0, -1.0), (math.nan, 1.0), (2000.0, 1e-320)])
    def test_non_positive_rejected(self, price, depth):
        named = ("price must be positive and finite" if depth == 1.0
                 else "asset_depth must be at least 2.2250738585072014e-308")
        with pytest.raises(ValueError, match=named):
            balanced_reserves(price, depth)


@st.composite
def block_clocks(draw):
    """Finite series bounds, the end anywhere after the start or a few float64
    steps after it, and a clock ``_check_clock`` accepts: ``mu`` near the span
    over a block count, near the float64 spacing of the bounds, or any
    float, and ``gamma`` anywhere in ``[0, mu)``, often its top."""
    bound = st.floats(allow_nan=False, allow_infinity=False) | st.builds(
        lambda e, sign: sign * 2.0**e, st.integers(-1074, 1023), st.sampled_from([-1.0, 1.0]))
    start = draw(bound)
    end = draw((bound | st.integers(1, 10**5).map(lambda n: start + n * math.ulp(start)))
               .filter(lambda end: start < end < math.inf))
    span, spacing = end - start, math.ulp(max(abs(start), abs(end)))
    mu = draw(st.integers(1, 10**4).map(lambda k: span / k)
              | st.floats(0.25, 8.0).map(lambda f: f * spacing)
              | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    mu *= draw(st.sampled_from([1.0, 1.0 - 2.0**-52, 1.0 + 2.0**-52]) | st.floats(0.5, 2.0))
    assume(0.0 < mu < math.inf)
    return start, end, mu, draw(st.floats(0.0, mu, exclude_max=True)
                                | st.just(math.nextafter(mu, 0.0)))


class TestBlockGridSeries:
    def test_dense_series_resampled_to_blocks(self):
        # per-second observations, 12s blocks: marks land on block boundaries
        ts = np.arange(0, 61)
        prices = 2000.0 + ts
        series = PriceSeries("X-Y", ts, prices)
        grid = block_grid_series(series, mu=12.0)
        assert list(grid.marks.timestamps) == [0.0, 12.0, 24.0, 36.0, 48.0, 60.0]
        assert list(grid.marks.prices) == [2000.0, 2012.0, 2024.0, 2036.0, 2048.0, 2060.0]
        # a run is marked on its grid: one value per mark
        result = run_fmamm_backtest(grid, 0.003)
        assert result.values.shape == grid.marks.timestamps.shape

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.integers(1, 30) | st.integers(295, 2000), max_size=40),
           start=st.integers(-10**6, 10**6), offset=st.sampled_from([0.0, 0.25, 0.5]),
           prices=st.lists(st.floats(1e-3, 1e6), min_size=41, max_size=41),
           mu=st.floats(1.0, 400.0), latency=st.floats(0.0, 1.0, exclude_max=True),
           with_latency=st.booleans())
    def test_grid_is_the_forward_fill_oracle(self, steps, start, offset, prices, mu, latency,
                                             with_latency):
        # the marks and the trade prices, bit for bit, and the gap warning's
        # count of blocks, on series whose gaps straddle the 300 s threshold
        ts = start + offset + np.cumsum([0] + steps, dtype=np.float64)
        series = PriceSeries("X-Y", ts, prices[:ts.size])
        gamma = latency * mu if with_latency else 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = block_grid_series(series, mu, gamma)
        times = series.start + mu * np.arange((series.end - series.start) // mu + 1)
        marks, mark_ages = forward_fill(series, times)
        p_stars, trade_ages = forward_fill(series, times[1:] - gamma)
        assert grid.marks.timestamps.tobytes() == times.tobytes()
        assert grid.marks.prices.tobytes() == marks.tobytes()
        assert grid.p_stars.tobytes() == p_stars.tobytes()
        filled = int(np.count_nonzero((mark_ages[1:] > LONG_GAP_SECONDS)
                                      | (trade_ages > LONG_GAP_SECONDS)))
        oldest = np.concatenate((mark_ages, trade_ages)).max()
        assert [str(w.message) for w in caught] == [
            f"X-Y: forward-filled {filled} of {times.size - 1} blocks across gaps longer "
            f"than {LONG_GAP_SECONDS}s (max gap {oldest:.0f}s)"] * (filled > 0)

    @settings(max_examples=300, deadline=None)
    @given(block_clocks())
    # the clocks float64 rounding carries past the series' end, and before its
    # start at a latency (see test_market_data's TestSampleAt)
    @example((-1.0, 2.0**53 + 2.0, 2.0**53 + 4.0, 0.0))
    @example((-1e308, 1e308, 1e300, 0.0))  # the span overflows: NaN blocks
    @example((2.0**40, 2.0**40 + 100.0, 12.0 + 0.4 * 2.0**-12,
              math.nextafter(12.0 + 0.4 * 2.0**-12, 0.0)))
    def test_grid_times_are_finite_and_in_range(self, clock):
        # every time the grid samples, mark or trade time, is finite and
        # inside the series, and the marks increase; a clock that rounding
        # would break is rejected as the clock's error, never the data's.  A
        # smaller block bound keeps each grid small
        start, end, mu, gamma = clock
        series = PriceSeries("X-Y", [start, end], [2000.0, 2001.0])
        sampled, search = [], np.searchsorted
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            patch.setattr(fmamm.backtest, "MAX_BLOCKS", 10**5)
            patch.setattr(np, "searchsorted", lambda a, v, *args, **kwargs: sampled.append(v)
                          or search(a, v, *args, **kwargs))
            try:
                grid = block_grid_series(series, mu, gamma)
            except ValueError as exc:
                assert type(exc) is ValueError and str(exc).startswith(f"mu={mu!r} "), exc
                return
        (times,) = sampled
        assert np.isfinite(times).all() and start <= times.min() and times.max() <= end
        assert (grid.marks.timestamps[1:] > grid.marks.timestamps[:-1]).all()
