"""Backtest loop, sweeps, value-function, and sandwich-immunity tests.

The two-block backtest is checked against a hand-chained oracle built from
the pool's supply and trade primitives, and the whole loop block by block
against a reference that composes ``optimal_rebalance`` and ``settle_batch``
per block; the zero-fee run is checked against its closed form.  The
vectorized value function is checked against scalar maximization with scipy
and against the rebalance solver; sweeps are checked for consistency and
monotonicity.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from fmamm.amm import (
    ConvergenceError,
    Reserves,
    apply_trade,
    effective_price,
    fmamm_supply,
    objective_value,
)
from fmamm.arbitrage import arbitrage_order, no_trade_band, optimal_rebalance
from fmamm.backtest import (
    DEFAULT_FEE_GRID,
    MAX_BLOCKS,
    NOISE_DIRECTIONS,
    TRADE_LOG_DTYPE,
    BlockClock,
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
    sample_at,
    sample_gbm_path,
)
from fmamm.uniswap import SWAP_LOG_DTYPE, run_baseline

R = Reserves(20000.0, 10.0)
TAUS = (0.0, 0.0005, 0.003, 0.01)


def flat_series(price=2000.0, blocks=3):
    ts = 12.0 * np.arange(blocks + 1)
    return PriceSeries("X-Y", ts, np.full(blocks + 1, price))


class TestBlockClock:
    def test_settlement_grid(self):
        clock = BlockClock(mu=12.0, gamma=2.0, start=0.0, end=48.0)
        assert clock.n_blocks == 4
        assert list(clock.settlement_times()) == [12.0, 24.0, 36.0, 48.0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            BlockClock(mu=12.0, gamma=12.0)
        with pytest.raises(ValueError):
            BlockClock(mu=0.0)
        with pytest.raises(ValueError):
            BlockClock(start=10.0, end=0.0)

    @pytest.mark.parametrize("mu, end, count", [
        (1e-300, 1e6, "1e+306"),
        (1e-300, 1e10, "inf"),
        (1.0, MAX_BLOCKS + 1.0, str(MAX_BLOCKS + 1)),
    ])
    def test_block_count_bounded_without_allocating(self, mu, end, count):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"mu={mu!r} gives {re.escape(count)} blocks"):
                BlockClock(mu=mu, start=0.0, end=end)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_block_count_at_the_bound_accepted(self):
        assert BlockClock(mu=1.0, start=0.0, end=float(MAX_BLOCKS)).n_blocks == MAX_BLOCKS


class TestRunBacktest:
    def test_constant_price_no_trades(self):
        series = flat_series()
        result = run_fmamm_backtest(series, BlockClock.for_series(series), 0.0, NO_NOISE, R)
        assert np.all(result.series.roi == 0.0)
        assert result.n_rebalances == 0

    def test_two_block_hand_oracle(self):
        # chain the primitives by hand: 2000 -> 2500 -> 2000
        series = PriceSeries("X-Y", [0, 12, 24], [2000.0, 2500.0, 2000.0])
        r1 = apply_trade(R, fmamm_supply(R, 2500.0), 0.0)
        assert (r1.y, r1.x) == (22500.0, 9.0)
        r2 = apply_trade(r1, fmamm_supply(r1, 2000.0), 0.0)
        assert (r2.y, r2.x) == (20250.0, 10.125)
        result = run_fmamm_backtest(series, BlockClock.for_series(series), 0.0, NO_NOISE, R)
        assert result.series.values[0] == 40000.0
        assert result.series.values[1] == pytest.approx(r1.value_at(2500.0), rel=1e-12)
        assert result.series.values[2] == pytest.approx(r2.value_at(2000.0), rel=1e-12)
        assert result.series.values[2] == pytest.approx(40500.0, rel=1e-12)
        assert result.series.values[2] > 40000.0

    def test_wide_band_only_marks(self):
        series = PriceSeries("X-Y", [0, 12, 24], [2000.0, 2100.0, 1900.0])
        result = run_fmamm_backtest(series, BlockClock.for_series(series), 0.5, NO_NOISE, R)
        assert result.n_rebalances == 0
        assert result.series.values[1] == pytest.approx(R.value_at(2100.0), rel=1e-12)
        assert result.series.values[2] == pytest.approx(R.value_at(1900.0), rel=1e-12)

    def test_zero_fee_rebalance_invariance(self):
        path = sample_gbm_path(GbmParams(2000.0, 0.002, step_seconds=12, horizon_seconds=12 * 500, seed=9))
        result = run_fmamm_backtest(path, BlockClock.for_series(path), 0.0)
        assert result.n_rebalances > 400
        for t in result.trades:
            assert abs(t.p_star * t.x_after - t.y_after) / t.y_after < 1e-9

    def test_default_initial_is_balanced(self):
        series = flat_series(price=1234.0)
        result = run_fmamm_backtest(series, BlockClock.for_series(series), 0.0)
        assert result.summary["initial_value"] == pytest.approx(2 * 1234.0, rel=1e-12)

    def test_latency_samples_earlier_price(self):
        series = PriceSeries("X-Y", [0, 10, 12], [2000.0, 2500.0, 3000.0])
        clock = BlockClock(mu=12.0, gamma=2.0, start=0.0, end=12.0)
        result = run_fmamm_backtest(series, clock, 0.0, NO_NOISE, R)
        assert result.trades[0].p_star == 2500.0

    def test_latency_marks_at_the_settlement_price(self):
        # trades see p(t - gamma), but the pool is marked at p(t), as the
        # baseline is on the same block grid
        path = sample_gbm_path(
            GbmParams(2000.0, 0.0005, step_seconds=1, horizon_seconds=1200, seed=6)
        )
        clock = BlockClock.for_series(path, gamma=6.0)
        result = run_fmamm_backtest(path, clock, 0.003, NO_NOISE, R)
        last = result.trades[-1]
        assert last.time == path.end and last.p_star == sample_at(path, [path.end - 6.0])[0]
        assert result.summary["terminal_value"] == last.y_after + path.prices[-1] * last.x_after
        marks = block_grid_series(path, clock)
        assert np.array_equal(result.marks.timestamps, marks.timestamps)
        assert np.array_equal(result.marks.prices, marks.prices)
        assert np.array_equal(result.series.timestamps, marks.timestamps)
        values = result.trades.y_after + marks.prices[1:] * result.trades.x_after
        assert np.array_equal(result.series.values[1:], values)
        assert not np.array_equal(result.trades.p_star, marks.prices[1:])

    @pytest.mark.parametrize("gamma, calls", [(0.0, 1), (6.0, 2)])
    def test_block_grid_sampled_once(self, monkeypatch, gamma, calls):
        # the grid gives the start price, the marks and, without latency, the
        # trade prices; only a latency samples again
        path = sample_gbm_path(
            GbmParams(2000.0, 0.0005, step_seconds=1, horizon_seconds=1200, seed=6)
        )
        clock = BlockClock.for_series(path, gamma=gamma)
        sampled = []

        def counting(series, times):
            sampled.append(np.size(times))
            return sample_at(series, times)

        monkeypatch.setattr("fmamm.backtest.sample_at", counting)
        result = run_fmamm_backtest(path, clock, 0.003)
        assert len(sampled) == calls and sampled[0] == clock.n_blocks + 1
        assert np.array_equal(result.p_stars, sample_at(path, result.trades.time - gamma))
        if gamma == 0.0:
            assert np.array_equal(result.p_stars, result.marks.prices[1:])

    def test_misaligned_volume_rejected(self):
        series = flat_series(blocks=3)
        scenario = NoiseScenario(0.1)
        with pytest.raises(ValueError, match="misaligned"):
            run_fmamm_backtest(
                series, BlockClock.for_series(series), 0.0, scenario, R, baseline_volume=[1.0]
            )
        # a positive fraction of no volume is an error, not silently no noise
        with pytest.raises(ValueError, match="noise fraction 0.1 needs a per-block baseline_volume"):
            run_fmamm_backtest(series, BlockClock.for_series(series), 0.0, scenario, R)

    def test_bad_price_and_volume_name_the_problem(self):
        # the price series itself rejects an infinite price, so the kernel
        # never samples one
        with pytest.raises(PriceDataError, match="X-Y: prices must be finite and positive"):
            PriceSeries("X-Y", [0, 12, 24, 36], [2000.0, 2000.0, math.inf, 2000.0])
        series = flat_series(blocks=3)
        scenario = NoiseScenario(0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                run_fmamm_backtest(series, BlockClock.for_series(series), 0.0, scenario, R,
                                   baseline_volume=[1.0, bad, 1.0])

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
                    run_fmamm_backtest(series, BlockClock.for_series(series), 0.5, scenario,
                                       Reserves(top, 1.0), [0.0] * quiet + [1.0] * blocks)

    def test_balanced_noise_lower_bound(self):
        path = sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * 300, seed=21))
        clock = BlockClock.for_series(path)
        volume = np.full(clock.n_blocks, 0.05)
        zero = run_fmamm_backtest(path, clock, 0.003, NO_NOISE, R)
        noisy = run_fmamm_backtest(
            path, clock, 0.003,
            NoiseScenario(1.0), R, volume,
        )
        assert noisy.terminal_roi >= zero.terminal_roi

    def test_random_sign_deterministic(self):
        path = sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=1200, seed=5))
        clock = BlockClock.for_series(path)
        volume = np.full(clock.n_blocks, 0.02)
        scenario = NoiseScenario(1.0, "random_sign", seed=77)
        a = run_fmamm_backtest(path, clock, 0.003, scenario, R, volume)
        b = run_fmamm_backtest(path, clock, 0.003, scenario, R, volume)
        assert np.array_equal(a.series.values, b.series.values)
        c = run_fmamm_backtest(
            path, clock, 0.003,
            NoiseScenario(1.0, "random_sign", seed=78),
            R, volume,
        )
        assert not np.array_equal(a.series.values, c.series.values)

    def test_peak_memory_per_block_is_bounded(self):
        # a run's numpy columns peak near 155 bytes per block, and the loop's
        # Python floats for one chunk add a fixed amount (about 30 bytes per
        # block at this size); floats for every block at once and a record
        # log built per run took about 350
        blocks = 12_000
        path = sample_gbm_path(
            GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * blocks, seed=59)
        )
        clock = BlockClock.for_series(path)
        tracemalloc.start()
        try:
            result = run_fmamm_backtest(path, clock, 0.003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_rebalances > 0
        assert peak <= 250 * blocks, peak / blocks


def reference_backtest(prices, clock, tau, noise, initial=None, baseline_volume=None):
    """Per-block composition of ``optimal_rebalance`` and ``settle_batch``:
    the trade log and the marked values the kernel must reproduce."""
    times = clock.settlement_times()
    p_stars = sample_at(prices, times - clock.gamma)
    marks = sample_at(prices, times)
    p0 = float(sample_at(prices, [clock.start])[0])
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
        decision = optimal_rebalance(reserves, noise_net, tau, p)
        if decision.trade != 0.0:
            orders.append(Order("arb", "arbitrageur", decision.trade))
        before, net, fee_n, fee_a = reserves, 0.0, 0.0, 0.0
        if orders:
            reserves, report = settle_batch(reserves, Batch(i + 1, tuple(orders)), tau)
            net, fee_n, fee_a = report.net_trade, report.fee_numeraire, report.fee_asset
        rows.append((i + 1, t, p, noise_net, decision.trade, net, decision.rebalanced,
                     before.y, before.x, reserves.y, reserves.x, fee_n, fee_a))
        values.append(reserves.value_at(mark))
    return np.rec.fromrecords(rows, dtype=TRADE_LOG_DTYPE), np.array(values)


def sign_mixing(log, tau):
    """Rebalances whose same-sign closed form lands on the noise's side of zero:
    the branch ``optimal_rebalance`` takes, which the kernel's count, read off
    the signs of its trades, must agree with."""
    keep = 1.0 - tau
    buy_mixing = (log.arb_trade > 0.0) & (log.x_before - log.y_before / (keep * log.p_star) < 0.0)
    sell_mixing = (log.arb_trade < 0.0) & (log.x_before / keep - log.y_before / log.p_star > 0.0)
    return int(np.count_nonzero(buy_mixing | sell_mixing))


def assert_matches_reference(result, reference, rtol):
    log, values = reference
    got = result.trades
    assert got.dtype == TRADE_LOG_DTYPE and got.shape == log.shape
    for name in TRADE_LOG_DTYPE.names:
        if rtol == 0.0:
            assert np.array_equal(got[name], log[name]), name
        else:
            np.testing.assert_allclose(got[name], log[name], rtol=rtol, atol=0.0, err_msg=name)
    roi = values / values[0] - 1.0
    if rtol == 0.0:
        assert np.array_equal(result.series.values, values)
        assert np.array_equal(result.series.roi, roi)
    else:
        np.testing.assert_allclose(result.series.values, values, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(result.series.roi, roi, rtol=rtol, atol=1e-15)


class TestKernelMatchesReference:
    @pytest.fixture(scope="class")
    def scenario(self):
        path = sample_gbm_path(
            GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * 2000, seed=31)
        )
        clock = BlockClock.for_series(path)
        rng = np.random.default_rng(37)
        volume = rng.exponential(0.01, clock.n_blocks)
        volume[rng.random(clock.n_blocks) < 0.3] = 0.0
        return path, clock, volume

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("kind", ["none", "balanced", "random_sign"])
    def test_block_by_block(self, scenario, tau, kind):
        path, clock, volume = scenario
        noise = NO_NOISE
        if kind != "none":
            noise = NoiseScenario(2.0, kind, seed=41)
        result = run_fmamm_backtest(path, clock, tau, noise, None, volume)
        reference = reference_backtest(path, clock, tau, noise, None, volume)
        assert_matches_reference(result, reference, rtol=0.0 if kind == "none" else 1e-12)

        log = reference[0]
        summary = result.summary
        assert summary["n_rebalances"] == np.count_nonzero(log.rebalanced) > 0
        assert summary["n_buy_rebalances"] == np.count_nonzero(log.arb_trade > 0.0)
        assert summary["n_sell_rebalances"] == np.count_nonzero(log.arb_trade < 0.0)
        assert summary["n_sign_mixing"] == sign_mixing(log, tau)
        if kind == "random_sign":
            assert summary["n_sign_mixing"] > 0

    @pytest.mark.parametrize("kind", ["none", "balanced", "random_sign"])
    def test_block_by_block_across_chunks(self, scenario, monkeypatch, kind):
        # 2,000 blocks fit in one chunk of the loop; in chunks of 7 the
        # reserves and the log must carry across every boundary unchanged
        monkeypatch.setattr("fmamm.backtest._CHUNK", 7)
        path, clock, volume = scenario
        noise = NO_NOISE
        if kind != "none":
            noise = NoiseScenario(2.0, kind, seed=41)
        result = run_fmamm_backtest(path, clock, 0.003, noise, None, volume)
        reference = reference_backtest(path, clock, 0.003, noise, None, volume)
        assert_matches_reference(result, reference, rtol=0.0 if kind == "none" else 1e-12)

    @pytest.mark.parametrize("kind", ["none", "random_sign"])
    def test_block_by_block_with_latency(self, kind):
        path = sample_gbm_path(
            GbmParams(2000.0, 0.0005, step_seconds=1, horizon_seconds=12 * 300, seed=43)
        )
        clock = BlockClock.for_series(path, gamma=6.0)
        volume = np.random.default_rng(47).exponential(0.01, clock.n_blocks)
        noise = NO_NOISE
        if kind != "none":
            noise = NoiseScenario(2.0, kind, seed=53)
        result = run_fmamm_backtest(path, clock, 0.003, noise, None, volume)
        reference = reference_backtest(path, clock, 0.003, noise, None, volume)
        assert_matches_reference(result, reference, rtol=0.0 if kind == "none" else 1e-12)

    @pytest.mark.parametrize("seed, settles", [(0, True), (1, False)])  # noise buy, sell
    def test_pin_checked_at_the_settled_trade(self, seed, settles):
        # at p/spot = 2.5e7 the pole is 4e-8 away, and noise plus trade rounds
        # by about ulp(0.3): with the noise selling, the solved root pins the
        # price but the settled trade misses it by more than the tolerance.
        # Both paths check the pin at the settled trade, so both raise.
        series = PriceSeries("X-Y", [0.0, 12.0], [1.0, 2.5e7])
        noise = NoiseScenario(1.0, "random_sign", seed)
        args = (series, BlockClock.for_series(series), 0.0, noise, Reserves(1.0, 1.0), [0.3])
        if settles:
            assert_matches_reference(run_fmamm_backtest(*args), reference_backtest(*args), 1e-12)
            return
        with pytest.raises(ConvergenceError):
            reference_backtest(*args)
        with pytest.raises(ConvergenceError, match=r"block 1 \(t=12\)"):
            run_fmamm_backtest(*args)

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
        clock = BlockClock.for_series(series)
        noise = NoiseScenario(1.0, direction, seed)
        args = (series, clock, tau, noise, Reserves(y, x), [volume * x])
        try:
            reference = reference_backtest(*args)
        except (ValueError, ConvergenceError) as exc:
            with pytest.raises(type(exc)) as raised:
                run_fmamm_backtest(*args)
            assert type(raised.value) is type(exc)
            return
        assert_matches_reference(run_fmamm_backtest(*args), reference, rtol=1e-12)

    def test_band_edge_tie_is_no_trade(self):
        # p* is one ulp above the band's upper edge; the buy root rounds to
        # -1.8e-15, and a buy on the wrong side of zero is the tie
        reserves = Reserves(56223.62199100347, 25.893870671161515)
        tau, p_star = 0.05, 2285.5895413289027
        assert math.nextafter(no_trade_band(reserves, 0.0, tau)[1], math.inf) == p_star
        assert optimal_rebalance(reserves, 0.0, tau, p_star).trade == 0.0
        series = PriceSeries("A-B", [0.0, 12.0], [2171.0, p_star])
        result = run_fmamm_backtest(series, BlockClock.for_series(series), tau, initial=reserves)
        assert result.n_rebalances == 0
        assert (result.columns[0, 1], result.columns[0, 2]) == (reserves.y, reserves.x)

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
        decision = optimal_rebalance(reserves, a, tau, p_star)
        series = PriceSeries("X-Y", [0.0, 12.0], [y / x, p_star])
        # random-sign noise: seed 0 buys, seed 1 sells
        scenario = NoiseScenario(1.0, "random_sign", seed=int(a < 0.0))
        result = run_fmamm_backtest(series, BlockClock.for_series(series), tau, scenario,
                                    reserves, [abs(a)])
        assert result.noise_net[0] == a
        assert result.columns[0, 0] == decision.trade

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
        # agree on every block, bit for bit, noise included, across chunks of 7
        path = sample_gbm_path(
            GbmParams(2000.0, 0.001, step_seconds=3, horizon_seconds=12 * blocks, seed=seed))
        clock = BlockClock.for_series(path, gamma=gamma)
        volume = np.random.default_rng(seed).exponential(0.01, blocks)
        noise = NO_NOISE if kind == "none" else NoiseScenario(2.0, kind, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("fmamm.backtest._CHUNK", 7)
            log = run_fmamm_backtest(path, clock, tau, noise, None, volume).trades
        want = arbitrage_order(log.y_before, log.x_before, log.noise_net, tau, log.p_star)
        assert np.array_equal(log.arb_trade, want)


class TestZeroFeeClosedForm:
    def test_cumprod_oracle_100k_blocks(self):
        # zero fee pins y = p*x each block, so x_n = x_{n-1} (1 + p_{n-1}/p_n) / 2
        path = sample_gbm_path(
            GbmParams(2000.0, 0.0005, step_seconds=12, horizon_seconds=12 * 100_000, seed=13)
        )
        result = run_fmamm_backtest(path, BlockClock.for_series(path), 0.0)
        p = path.prices
        x = np.cumprod((1.0 + p[:-1] / p[1:]) / 2.0)
        y = p[1:] * x
        np.testing.assert_allclose(result.trades.x_after, x, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(result.trades.y_after, y, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(result.series.values[1:], 2.0 * y, rtol=1e-12, atol=0.0)


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
        result = run_fmamm_backtest(path, BlockClock.for_series(path), 0.0)
        baseline = run_baseline(np.empty(0, SWAP_LOG_DTYPE), result.marks, 1.0)
        fm, cp = result.series.values, baseline.values
        ratio = (fm[-1] / fm[0]) / (cp[-1] / cp[0])
        kept = np.prod(np.cosh(0.5 * np.diff(np.log(result.marks.prices))))
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
        result = run_fmamm_backtest(path, BlockClock.for_series(path), tau, noise,
                                    baseline_volume=volume)
        assert np.array_equal(result.trades.p_star, path.prices[1:])
        values = result.series.values
        change = np.diff(values) - result.trades.x_before * np.diff(path.prices)
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


class TestNoiseScenario:
    def test_fraction_must_be_non_negative(self):
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError, match="fraction must be non-negative"):
                NoiseScenario(bad)

    def test_summary_reports_the_applied_fraction(self):
        series = PriceSeries("X-Y", [0, 12], [2000.0, 2100.0])
        clock = BlockClock.for_series(series)
        for fraction in (0.0, 0.25):
            noise = NoiseScenario(fraction, "balanced", 4)
            summary = run_fmamm_backtest(series, clock, 0.003, noise, R, [1.0]).summary
            assert "noise_mode" not in summary
            assert (summary["noise_fraction"], summary["noise_direction"], summary["seed"]) == (
                fraction, "balanced", 4)
            # the arbitrageurs buy, so only the noise's sell leg pays in asset
            assert (summary["fee_asset_total"] > 0.0) == (fraction > 0.0)
        assert run_fmamm_backtest(series, clock, 0.003, NO_NOISE, R).summary["noise_fraction"] == 0.0


class TestFeeSweep:
    def test_constant_price_all_zero(self):
        series = flat_series()
        clock = BlockClock.for_series(series)
        for tau in DEFAULT_FEE_GRID:
            assert run_fmamm_backtest(series, clock, tau, NO_NOISE, R).terminal_roi == 0.0

    def test_zero_fee_entry_matches_plain_run(self):
        # runs over one path and start state share nothing: the zero-fee run
        # of a grid is a plain run
        path = sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=1200, seed=2))
        clock = BlockClock.for_series(path)
        sweep = {tau: run_fmamm_backtest(path, clock, tau, NO_NOISE, R) for tau in DEFAULT_FEE_GRID}
        plain = run_fmamm_backtest(path, clock, 0.0, NO_NOISE, R)
        assert np.array_equal(sweep[0.0].series.values, plain.series.values)

    def test_trend_rebalance_counts_fall_with_fee(self):
        ts = 12.0 * np.arange(101)
        prices = 2000.0 * 1.001 ** np.arange(101)  # steady one-way trend
        series = PriceSeries("X-Y", ts, prices)
        clock = BlockClock.for_series(series)
        counts = [run_fmamm_backtest(series, clock, tau, NO_NOISE, R).n_rebalances
                  for tau in (0.0, 0.003, 0.05)]
        assert counts[0] == 100
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[2] < 100


class TestNoiseSweep:
    def make_path(self):
        return sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * 200, seed=3))

    @staticmethod
    def sweep(path, fractions, volume):
        clock = BlockClock.for_series(path)
        return {f: run_fmamm_backtest(path, clock, 0.003, NoiseScenario(f), R, volume)
                for f in fractions}

    def test_zero_fraction_is_zero_noise(self):
        # given a volume, a zero fraction runs bit for bit as no noise at all
        path = self.make_path()
        clock = BlockClock.for_series(path)
        volume = np.full(clock.n_blocks, 0.05)
        plain = run_fmamm_backtest(path, clock, 0.003, NO_NOISE, R)
        assert plain.n_rebalances > 0
        assert self.sweep(path, (0.5,), volume)[0.5].terminal_roi > plain.terminal_roi
        for direction in NOISE_DIRECTIONS:
            zero = run_fmamm_backtest(path, clock, 0.003, NoiseScenario(0.0, direction, 9), R,
                                      volume)
            assert np.array_equal(zero.series.values, plain.series.values)
            assert np.array_equal(zero.series.roi, plain.series.roi)
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
            dec = optimal_rebalance(reserves, 0.0, tau, p)
            want = objective_value(dec.trade, p, tau, reserves)
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
        want = [objective_value(optimal_rebalance(reserves, 0.0, tau, p).trade, p, tau, reserves)
                for p in prices]
        assert value_function(prices, reserves, tau).tolist() == want

    def test_zero_asset_reserve_is_the_sell_root(self):
        # no spot price: every finite price lies below the band, and the sell
        # root -y/(2p) gives y^2/(4p), with no warning from the division by x = 0
        p = np.array([1000.0, 2000.0, 4000.0])
        got = value_function(p, Reserves(20000.0, 0.0), 0.003)
        np.testing.assert_allclose(got, 20000.0**2 / (4.0 * p), rtol=1e-15, atol=0.0)

    def test_matches_scipy_maximization(self):
        for tau, p in [(0.0, 2500.0), (0.003, 1800.0), (0.05, 2100.0), (0.1, 900.0)]:
            res = minimize_scalar(
                lambda x: -objective_value(x, p, tau, R),
                bounds=(-R.y / p * 0.999, R.x * 0.499),
                method="bounded",
                options={"xatol": 1e-12},
            )
            got = value_function([p], R, tau)[0]
            assert got == pytest.approx(-res.fun, rel=1e-9)
            assert got >= -res.fun - 1e-6

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


class TestSandwichImmunity:
    def run_block(self, reserves, orders_net, tau, p_star):
        dec = optimal_rebalance(reserves, orders_net, tau, p_star)
        net = orders_net + dec.trade
        return dec, net

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
            dec0, net0 = self.run_block(R, victim, tau, p_star)
            dec1, net1 = self.run_block(R, victim + attack, tau, p_star)
            if not (dec0.rebalanced and dec1.rebalanced):
                continue
            if np.sign(dec0.trade) != np.sign(dec1.trade) or np.sign(net0) != np.sign(net1):
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
            dec1, net1 = self.run_block(reserves, noise1, tau, p_star)
            buy_price = effective_price(reserves, net1, tau, +1)
            mid = apply_trade(reserves, net1, tau) if net1 != 0.0 else reserves
            # block 2: attacker back-run sell, same external price
            dec2, net2 = self.run_block(mid, -attack, tau, p_star)
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
            dec, net = self.run_block(R, noise, tau, p_star)
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


class TestBlockGridSeries:
    def test_dense_series_resampled_to_blocks(self):
        # per-second observations, 12s blocks: marks land on block boundaries
        ts = np.arange(0, 61)
        prices = 2000.0 + ts
        series = PriceSeries("X-Y", ts, prices)
        clock = BlockClock(mu=12.0, start=0.0, end=60.0)
        grid = block_grid_series(series, clock)
        assert list(grid.timestamps) == [0.0, 12.0, 24.0, 36.0, 48.0, 60.0]
        assert list(grid.prices) == [2000.0, 2012.0, 2024.0, 2036.0, 2048.0, 2060.0]

    def test_grid_intersects_backtest_series_fully(self):
        ts = np.arange(0, 241)
        rng = np.random.default_rng(0)
        series = PriceSeries("X-Y", ts, 2000.0 * np.exp(rng.normal(0, 1e-4, ts.size)).cumprod())
        clock = BlockClock.for_series(series)
        result = run_fmamm_backtest(series, clock, 0.003)
        grid = block_grid_series(series, clock)
        common = np.intersect1d(result.series.timestamps, grid.timestamps)
        assert common.size == clock.n_blocks + 1
