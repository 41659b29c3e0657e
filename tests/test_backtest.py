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
from fmamm.arbitrage import optimal_rebalance
from fmamm.backtest import (
    MAX_BLOCKS,
    NOISE_DIRECTIONS,
    TRADE_LOG_DTYPE,
    BlockClock,
    NO_NOISE,
    NoiseScenario,
    ScenarioConfig,
    balanced_reserves,
    block_grid_series,
    compare_returns,
    fee_sweep,
    noise_volume_sweep,
    risk_monte_carlo,
    run_fmamm_backtest,
    value_function,
)
from fmamm.batch import Batch, Order, settle_batch
from fmamm.market_data import (
    GbmParams,
    LpReturnSeries,
    PriceDataError,
    PriceSeries,
    sample_at,
    sample_gbm_path,
)

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

    def test_misaligned_volume_rejected(self):
        series = flat_series(blocks=3)
        scenario = NoiseScenario("fraction_of_baseline_volume", 0.1)
        with pytest.raises(ValueError, match="misaligned"):
            run_fmamm_backtest(
                series, BlockClock.for_series(series), 0.0, scenario, R, baseline_volume=[1.0]
            )
        with pytest.raises(ValueError, match="baseline_volume"):
            run_fmamm_backtest(series, BlockClock.for_series(series), 0.0, scenario, R)

    def test_bad_price_and_volume_name_the_problem(self):
        # the price series itself rejects an infinite price, so the kernel
        # never samples one
        with pytest.raises(PriceDataError, match="X-Y: prices must be finite and positive"):
            PriceSeries("X-Y", [0, 12, 24, 36], [2000.0, 2000.0, math.inf, 2000.0])
        series = flat_series(blocks=3)
        scenario = NoiseScenario("fraction_of_baseline_volume", 0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                run_fmamm_backtest(series, BlockClock.for_series(series), 0.0, scenario, R,
                                   baseline_volume=[1.0, bad, 1.0])

    def test_overflowing_reserves_name_the_first_block(self):
        # the fee-grossed buy price overflows, so block 1 leaves y infinite;
        # block 2 would then miss its pin, but block 1 is reported
        top = 1.5e308
        for blocks in (1, 2):
            series = flat_series(price=top, blocks=blocks)
            scenario = NoiseScenario("fraction_of_baseline_volume", 1.0)
            with pytest.raises(ValueError, match=r"block 1 \(t=12\): reserves must be finite"):
                run_fmamm_backtest(series, BlockClock.for_series(series), 0.5, scenario,
                                   Reserves(top, 1.0), [1.0] * blocks)

    def test_balanced_noise_lower_bound(self):
        path = sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * 300, seed=21))
        clock = BlockClock.for_series(path)
        volume = np.full(clock.n_blocks, 0.05)
        zero = run_fmamm_backtest(path, clock, 0.003, NO_NOISE, R)
        noisy = run_fmamm_backtest(
            path, clock, 0.003,
            NoiseScenario("fraction_of_baseline_volume", 1.0), R, volume,
        )
        assert noisy.terminal_roi >= zero.terminal_roi

    def test_random_sign_deterministic(self):
        path = sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=1200, seed=5))
        clock = BlockClock.for_series(path)
        volume = np.full(clock.n_blocks, 0.02)
        scenario = NoiseScenario("fraction_of_baseline_volume", 1.0, "random_sign", seed=77)
        a = run_fmamm_backtest(path, clock, 0.003, scenario, R, volume)
        b = run_fmamm_backtest(path, clock, 0.003, scenario, R, volume)
        assert np.array_equal(a.series.values, b.series.values)
        c = run_fmamm_backtest(
            path, clock, 0.003,
            NoiseScenario("fraction_of_baseline_volume", 1.0, "random_sign", seed=78),
            R, volume,
        )
        assert not np.array_equal(a.series.values, c.series.values)


def reference_backtest(prices, clock, tau, noise, initial=None, baseline_volume=None):
    """Per-block composition of ``optimal_rebalance`` and ``settle_batch``:
    the trade log and the marked values the kernel must reproduce."""
    times = clock.settlement_times()
    p_stars = sample_at(prices, times - clock.gamma)
    p0 = float(sample_at(prices, [clock.start])[0])
    reserves = initial if initial is not None else balanced_reserves(p0)
    volumes = np.zeros(times.size)
    if noise.mode != "none":
        volumes = noise.fraction * np.asarray(baseline_volume, dtype=np.float64)
    signs = np.random.default_rng(noise.seed).integers(0, 2, size=times.size) * 2 - 1
    rows, values = [], [reserves.value_at(p0)]
    for i, (t, p, v) in enumerate(zip(times.tolist(), p_stars.tolist(), volumes.tolist())):
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
        values.append(reserves.value_at(p))
    return np.rec.fromrecords(rows, dtype=TRADE_LOG_DTYPE), np.array(values)


def sign_mixing(log, tau):
    """Rebalances whose same-sign closed form lands on the noise's side of zero."""
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
            noise = NoiseScenario("fraction_of_baseline_volume", 2.0, kind, seed=41)
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
        noise = NoiseScenario("fraction_of_baseline_volume", 1.0, direction, seed)
        args = (series, clock, tau, noise, Reserves(y, x), [volume * x])
        try:
            reference = reference_backtest(*args)
        except (ValueError, ConvergenceError) as exc:
            with pytest.raises(type(exc)) as raised:
                run_fmamm_backtest(*args)
            assert type(raised.value) is type(exc)
            return
        assert_matches_reference(run_fmamm_backtest(*args), reference, rtol=1e-12)


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


class TestCompareReturns:
    def test_identical_is_zero(self):
        s = LpReturnSeries.from_values("a", [0, 12, 24], [1.0, 1.1, 1.2])
        cmp = compare_returns(s, s)
        assert np.all(cmp.roi_difference == 0.0)
        assert cmp.terminal_difference_pp == 0.0

    def test_constant_offset(self):
        a = LpReturnSeries("a", [0, 12], [1.0, 1.0], [0.005, 0.005])
        b = LpReturnSeries("b", [0, 12], [1.0, 1.0], [0.0, 0.0])
        cmp = compare_returns(a, b)
        assert np.allclose(cmp.roi_difference, 0.005)
        assert cmp.terminal_difference_pp == pytest.approx(0.5, rel=1e-12)

    def test_intersection_and_empty(self):
        a = LpReturnSeries.from_values("a", [0, 12, 24], [1.0, 1.1, 1.2])
        b = LpReturnSeries.from_values("b", [12, 24, 36], [1.0, 1.1, 1.2])
        cmp = compare_returns(a, b)
        assert list(cmp.timestamps) == [12.0, 24.0]
        c = LpReturnSeries.from_values("c", [100, 200], [1.0, 1.0])
        with pytest.raises(ValueError, match="share no timestamps"):
            compare_returns(a, c)


class TestFeeSweep:
    def test_constant_price_all_zero(self):
        series = flat_series()
        results = fee_sweep(series, BlockClock.for_series(series), initial=R)
        assert set(results) == {0.0, 0.0005, 0.003, 0.01}
        assert all(res.terminal_roi == 0.0 for res in results.values())

    def test_zero_fee_entry_matches_plain_run(self):
        path = sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=1200, seed=2))
        clock = BlockClock.for_series(path)
        sweep = fee_sweep(path, clock, initial=R)
        plain = run_fmamm_backtest(path, clock, 0.0, NO_NOISE, R)
        assert np.array_equal(sweep[0.0].series.values, plain.series.values)

    def test_trend_rebalance_counts_fall_with_fee(self):
        ts = 12.0 * np.arange(101)
        prices = 2000.0 * 1.001 ** np.arange(101)  # steady one-way trend
        series = PriceSeries("X-Y", ts, prices)
        clock = BlockClock.for_series(series)
        sweep = fee_sweep(series, clock, fees=(0.0, 0.003, 0.05), initial=R)
        assert sweep[0.0].n_rebalances == 100
        assert sweep[0.0].n_rebalances >= sweep[0.003].n_rebalances >= sweep[0.05].n_rebalances
        assert sweep[0.05].n_rebalances < 100


class TestNoiseSweep:
    def make_path(self):
        return sample_gbm_path(GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * 200, seed=3))

    def test_zero_fraction_is_zero_noise(self):
        path = self.make_path()
        clock = BlockClock.for_series(path)
        volume = np.full(clock.n_blocks, 0.05)
        sweep = noise_volume_sweep(path, clock, 0.003, [0.0, 0.5], volume, R)
        plain = run_fmamm_backtest(path, clock, 0.003, NO_NOISE, R)
        assert np.array_equal(sweep[0.0].series.values, plain.series.values)

    def test_fee_revenue_linear_in_fraction_per_block(self):
        series = PriceSeries("X-Y", [0, 12], [2000.0, 2100.0])
        clock = BlockClock.for_series(series)
        volume = np.array([1.0])
        sweep = noise_volume_sweep(series, clock, 0.003, [0.25, 0.5], volume, R)
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
        clock = BlockClock.for_series(path)
        volume = np.full(clock.n_blocks, 0.05)
        sweep = noise_volume_sweep(path, clock, 0.003, [0.1, 0.3, 0.5], volume, R)
        rois = [sweep[f].terminal_roi for f in (0.0, 0.1, 0.3, 0.5)]
        assert all(b >= a - 1e-15 for a, b in zip(rois, rois[1:]))


class TestValueFunction:
    def test_matches_scalar_rebalance_and_objective(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            tau = rng.uniform(0.0, 0.1)
            p = 2000.0 * rng.uniform(0.4, 2.5)
            dec = optimal_rebalance(R, 0.0, tau, p)
            want = objective_value(dec.trade, p, tau, R)
            got = value_function([p], R, tau)[0]
            assert got == pytest.approx(want, rel=1e-12)

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
        out = risk_monte_carlo(np.full(1000, 2000.0), 0.0, R, 0.003, n_draws=1000)
        assert out.difference == 0.0
        assert out.z_score == 0.0

    def test_degenerate_base_significant_gain(self):
        out = risk_monte_carlo(np.full(10_000, 2000.0), 200.0, R, 0.003, n_draws=10_000, seed=1)
        assert out.difference > 0
        assert out.z_score >= 5.0

    def test_band_containing_atoms_no_gain(self):
        # +-10% atoms stay inside the band once the fee passes 10%
        out = risk_monte_carlo(np.full(10_000, 2000.0), 200.0, R, 0.15, n_draws=10_000, seed=1)
        assert out.difference == 0.0

    def test_paired_differences_nonnegative(self):
        rng = np.random.default_rng(71)
        base = rng.lognormal(math.log(2000.0), 0.1, size=5000)
        out = risk_monte_carlo(base, 100.0, R, 0.003, n_draws=5000, seed=2)
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
