"""Arbitrage band, rebalancing equilibrium, and attack-bound tests.

The closed-form attack profits are verified against a vectorized grid-search
maximization oracle over the feasible trade range, and the rebalance solver
against a plain bisection oracle on the effective-price curve.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmamm.amm import (
    ConvergenceError,
    InfeasibleTradeError,
    Reserves,
    effective_price,
    fmamm_price,
    fmamm_supply,
    pre_fee_price,
)
from fmamm.arbitrage import (
    arbitrage_order,
    cpamm_arbitrage_profit,
    malicious_operator_attack,
    no_trade_band,
    optimal_rebalance,
)

R = Reserves(20000.0, 10.0)


def grid_search_profit(reserves, p_star, denominator_shift, n=1_000_000):
    """Oracle: brute-force max of trade * (p_star - y/(x - shift*trade))."""
    hi = reserves.x / denominator_shift
    trades = np.linspace(-reserves.x, hi, n + 2)[1:-1]
    prices = reserves.y / (reserves.x - denominator_shift * trades)
    profits = trades * (p_star - prices)
    k = int(np.argmax(profits))
    return float(trades[k]), float(profits[k])


class TestNoTradeBand:
    def test_zero_fee_degenerate(self):
        assert no_trade_band(R, 0.0, 0.0) == (2000.0, 2000.0)

    def test_fee_widens_band(self):
        low, high = no_trade_band(R, 0.0, 0.3)
        assert low == pytest.approx(1400.0, rel=1e-12)
        assert high == pytest.approx(2000.0 / 0.7, rel=1e-12)

    def test_band_centers_on_noise_adjusted_price(self):
        assert no_trade_band(R, 1.0, 0.0) == (2500.0, 2500.0)

    def test_negative_noise_uses_fee_shrunk_trade(self):
        tau = 0.1
        base = fmamm_price(R, -1.0 * (1 - tau))
        low, high = no_trade_band(R, -1.0, tau)
        assert low == pytest.approx((1 - tau) * base, rel=1e-12)
        assert high == pytest.approx(base / (1 - tau), rel=1e-12)


class TestOptimalRebalance:
    def test_zero_fee_matches_supply(self):
        trade = optimal_rebalance(R, 0.0, 0.0, 2500.0)
        assert trade != 0.0
        assert trade == pytest.approx(fmamm_supply(R, 2500.0), rel=1e-12)
        assert trade == pytest.approx(1.0, rel=1e-12)

    def test_buy_branch_closed_form_with_fee(self):
        trade = optimal_rebalance(R, 0.0, 0.1, 2500.0)
        want = 0.5 * (10.0 - 20000.0 / (0.9 * 2500.0))
        assert trade == pytest.approx(want, rel=1e-12)
        assert trade == pytest.approx(0.5555555555555556, rel=1e-9)

    def test_inside_band_no_trade(self):
        trade = optimal_rebalance(R, 0.0, 0.3, 2000.0)
        assert trade == 0.0

    def test_band_edge_is_no_trade(self):
        low, high = no_trade_band(R, 0.0, 0.1)
        for p in (low, high):
            trade = optimal_rebalance(R, 0.0, 0.1, p)
            assert trade == 0.0

    def test_pinned_price_random(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            tau = rng.uniform(0.0, 0.05)
            noise = rng.uniform(-2.0, 2.0)
            p_star = 2000.0 * rng.uniform(0.4, 2.5)
            trade = optimal_rebalance(R, noise, tau, p_star)
            if trade != 0.0:
                net = noise + trade
                got = effective_price(R, net, tau, trade)
                assert got == pytest.approx(p_star, rel=1e-9)

    def test_bisection_oracle_agrees_with_closed_form(self):
        # independent check of the buy branch: bisect the effective price
        tau, p_star = 0.1, 2500.0
        lo, hi = 0.0, 4.999
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if effective_price(R, mid, tau, +1) < p_star:
                lo = mid
            else:
                hi = mid
        trade = optimal_rebalance(R, 0.0, tau, p_star)
        assert trade == pytest.approx(0.5 * (lo + hi), rel=1e-9)

    def test_sign_mixing_sell_into_buying_noise(self):
        # noise net-buys, price drops a little: arbitrageurs sell but the
        # batch stays a net buy, so their price is the discounted batch price
        tau, noise = 0.01, 2.0
        low, _ = no_trade_band(R, noise, tau)
        p_star = low * 0.98
        assert p_star > (1 - tau) * R.spot_price  # net stays positive
        trade = optimal_rebalance(R, noise, tau, p_star)
        net = noise + trade
        assert trade < 0 < net
        assert (1 - tau) * fmamm_price(R, net) == pytest.approx(p_star, rel=1e-9)

    def test_sign_mixing_buy_into_selling_noise(self):
        tau, noise = 0.01, -2.0
        _, high = no_trade_band(R, noise, tau)
        p_star = high * 1.02
        assert p_star < R.spot_price / (1 - tau)  # net stays negative
        trade = optimal_rebalance(R, noise, tau, p_star)
        net = noise + trade
        assert net < 0 < trade
        assert fmamm_price(R, net * (1 - tau)) / (1 - tau) == pytest.approx(p_star, rel=1e-9)

    def test_no_residual_arbitrage(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            tau = rng.uniform(0.0, 0.05)
            noise = rng.uniform(-2.0, 2.0)
            p_star = 2000.0 * rng.uniform(0.5, 2.0)
            trade = optimal_rebalance(R, noise, tau, p_star)
            if trade == 0.0:
                continue
            net = noise + trade
            for dr in (1e-6 * R.x, -1e-6 * R.x):
                extra = dr * (p_star - effective_price(R, net + dr, tau, dr))
                assert extra <= 1e-9 * abs(dr) * p_star

    @settings(max_examples=500, deadline=None)
    @given(
        y=st.floats(1e-3, 1e9),
        x=st.floats(1e-3, 1e6),
        ratio=st.floats(1e-2, 1e2),
        noise=st.floats(-0.4, 0.4),  # net noise as a share of the asset reserve
        tau=st.floats(0.0, 0.2),
        share=st.floats(1e-9, 1e-3),
    )
    def test_no_profitable_perturbation_property(self, y, x, ratio, noise, tau, share):
        # after the arbitrageurs' order, inside the band or out of it, one
        # more order of either sign settles at a price that does not beat
        # the external price: no residual arbitrage
        reserves = Reserves(y, x)
        p_star = ratio * reserves.spot_price
        trade = optimal_rebalance(reserves, noise * x, tau, p_star)
        net = noise * x + trade
        for dr in (share * x, -share * x):
            extra = dr * (p_star - effective_price(reserves, net + dr, tau, dr))
            assert extra <= 1e-9 * abs(dr) * p_star, (trade, dr, extra)

    def test_band_consistency_when_not_rebalanced(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            tau = rng.uniform(0.001, 0.1)
            noise = rng.uniform(-2.0, 2.0)
            low, high = no_trade_band(R, noise, tau)
            p_star = rng.uniform(low, high)
            trade = optimal_rebalance(R, noise, tau, p_star)
            assert trade == 0.0
            assert effective_price(R, noise, tau, +1) >= p_star - 1e-9 * p_star
            assert effective_price(R, noise, tau, -1) <= p_star + 1e-9 * p_star

    @pytest.mark.parametrize("reserves, noise, tau, p_star, error, message", [
        (R, 0.0, 0.0, 0.0, ValueError, "price must be positive and finite, got 0.0"),
        (R, 0.0, 0.0, math.nan, ValueError, "price must be positive and finite, got nan"),
        (R, 0.0, 1.0, 2000.0, ValueError, "fee must satisfy 0 <= tau < 1, got 1.0"),
        (R, math.nan, 0.0, 2000.0, ValueError, "trade must be finite, got nan"),
        (Reserves(1.0, 0.0), 0.0, 0.0, 2000.0, ValueError,
         "marginal price undefined with zero asset reserve"),
        (Reserves(2000.0, 1.0), 0.5, 0.0, 2000.0, InfeasibleTradeError,
         "trade 0.5 is at or beyond the price pole x/2 = 0.5"),
        # the settled net trade rounds off the root by far more than the pin's tolerance
        (Reserves(1.0, 1.0), -0.3, 0.0, 2.5e7, ConvergenceError,
         "rebalance solve left effective price 24999999.943769958 != target 25000000.0"),
    ])
    def test_rejected_input(self, reserves, noise, tau, p_star, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            optimal_rebalance(reserves, noise, tau, p_star)

    def test_zero_fee_rebalance_splits_value_evenly(self):
        net = optimal_rebalance(R, 0.0, 0.0, 2500.0)
        after = Reserves(R.y + net * 2500.0, R.x - net)
        assert 2500.0 * after.x == pytest.approx(after.y, rel=1e-12)


class TestArbitrageOrder:
    @settings(max_examples=100, deadline=None)
    @given(
        tau=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
        blocks=st.lists(
            st.tuples(
                st.floats(1e-3, 1e9),  # y
                st.floats(1e-3, 1e6),  # x
                # the noise's net order as a share of the asset reserve, short of the pole
                st.one_of(st.just(0.0), st.floats(-0.4, 0.4)),
                # p* over the band's center, or one ulp either side of a band edge
                st.one_of(st.floats(0.2, 5.0),
                          st.tuples(st.sampled_from([0, 1]), st.sampled_from([-1, 1]))),
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_array_call_matches_optimal_rebalance(self, tau, blocks):
        # one array call, sign mixing included, equals the scalar solver per element
        rows = []
        for y, x, share, price in blocks:
            reserves, a = Reserves(y, x), share * x
            if isinstance(price, tuple):
                edge, toward = price
                p = math.nextafter(no_trade_band(reserves, a, tau)[edge], toward * math.inf)
            else:
                p = price * pre_fee_price(reserves, a, tau)
            rows.append((y, x, a, p, optimal_rebalance(reserves, a, tau, p)))
        y, x, noise, p_star, want = map(np.array, zip(*rows))
        assert np.array_equal(arbitrage_order(y, x, noise, tau, p_star), want)

    @pytest.mark.parametrize("y, x, tau, edge, toward", [
        # the buy root rounds to -1.8e-15 one ulp above the upper edge, the
        # sell root to +1.1e-16 one ulp below the lower edge: both are the tie
        (56223.62199100347, 25.893870671161515, 0.05, 1, math.inf),
        (39777.87575596558, 1.1811219405617384, 0.027274754812566818, 0, 0.0),
    ])
    def test_wrong_side_root_is_the_tie(self, y, x, tau, edge, toward):
        reserves = Reserves(y, x)
        p_star = math.nextafter(no_trade_band(reserves, 0.0, tau)[edge], toward)
        assert arbitrage_order(y, x, 0.0, tau, [p_star]).tolist() == [0.0]
        assert optimal_rebalance(reserves, 0.0, tau, p_star) == 0.0

    def test_scalar_call_returns_a_float(self):
        trade = arbitrage_order(R.y, R.x, 0.0, 0.0, 2500.0)
        checked = optimal_rebalance(R, 0.0, 0.0, 2500.0)
        assert type(trade) is float and type(checked) is float and trade == checked


class TestAttackProfits:
    def test_worked_instance(self):
        _, op = malicious_operator_attack(R, 2420.0)
        _, cp = cpamm_arbitrage_profit(R, 2420.0)
        assert op == pytest.approx(100.0, rel=1e-12)
        assert cp == pytest.approx(200.0, rel=1e-12)

    def test_no_profit_at_spot(self):
        assert malicious_operator_attack(R, 2000.0)[1] == 0.0
        assert cpamm_arbitrage_profit(R, 2000.0)[1] == 0.0

    def test_closed_form_value(self):
        _, op = malicious_operator_attack(R, 2500.0)
        assert op == pytest.approx(22500.0 - math.sqrt(5e8), rel=1e-12)
        _, cp = cpamm_arbitrage_profit(R, 2500.0)
        assert cp == pytest.approx(2 * (22500.0 - math.sqrt(5e8)), rel=1e-12)

    def test_exact_halving_random(self):
        rng = np.random.default_rng(59)
        for _ in range(1000):
            r = Reserves(rng.uniform(1e2, 1e7), rng.uniform(1e-1, 1e4))
            p_star = r.spot_price * rng.uniform(0.2, 5.0)
            op = malicious_operator_attack(r, p_star)[1]
            cp = cpamm_arbitrage_profit(r, p_star)[1]
            assert 2.0 * op == pytest.approx(cp, rel=1e-12, abs=0.0)

    def test_grid_search_oracle(self):
        for p_star in (2420.0, 2500.0, 1500.0):
            x_op, op = malicious_operator_attack(R, p_star)
            gx, gp = grid_search_profit(R, p_star, denominator_shift=2.0)
            assert op >= gp - 1e-9
            assert x_op == pytest.approx(gx, abs=2 * (R.x + R.x / 2) / 1_000_000)
            x_cp, cp = cpamm_arbitrage_profit(R, p_star)
            gx, gp = grid_search_profit(R, p_star, denominator_shift=1.0)
            assert cp >= gp - 1e-9
            assert x_cp == pytest.approx(gx, abs=2 * (2 * R.x) / 1_000_000)

    def test_profit_nonnegative(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            r = Reserves(rng.uniform(1e2, 1e6), rng.uniform(1e-1, 1e3))
            p_star = r.spot_price * rng.uniform(0.9999, 1.0001)
            assert malicious_operator_attack(r, p_star)[1] >= 0.0
            assert cpamm_arbitrage_profit(r, p_star)[1] >= 0.0

    def test_overflow_rejected(self):
        for attack in (malicious_operator_attack, cpamm_arbitrage_profit):
            with pytest.raises(ValueError, match="arbitrage overflows .* p_star=1e"):
                attack(Reserves(1e308, 1e308), 1e300)

    def test_rejects_bad_price(self):
        with pytest.raises(ValueError):
            malicious_operator_attack(R, 0.0)
        with pytest.raises(ValueError):
            optimal_rebalance(R, 0.0, 0.0, -1.0)
