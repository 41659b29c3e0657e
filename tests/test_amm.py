"""Pool math tests.

Closed forms are checked against frozen hand computations and against
independent oracles: reserve-product invariance for the CPAMM, post-trade
marginal prices and the algebraic fixed-point solution for clearing-price
consistency, and finite differences and the residual of the first-order
condition for the pool's supply.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmamm.amm import (
    InfeasibleTradeError,
    Reserves,
    apply_trade,
    cpamm_average_price,
    effective_price,
    fmamm_price,
    fmamm_supply,
    objective_value,
    pre_fee_price,
)

R = Reserves(20000.0, 10.0)


def weighted_clearing_price(reserves, x_trade, alpha):
    """Oracle: algebraic solution of p = marginal price after the trade.

    p = (a/(1-a)) * (y + p*x) / (X - x)  solves to  p = a*y / ((1-a)*X - x).
    """
    return alpha * reserves.y / ((1.0 - alpha) * reserves.x - x_trade)


class TestCpammAveragePrice:
    def test_buy_one(self):
        assert cpamm_average_price(R, 1.0) == pytest.approx(20000.0 / 9.0, rel=1e-12)

    def test_marginal_limit(self):
        assert cpamm_average_price(R, 1e-12) == pytest.approx(2000.0, rel=1e-9)

    def test_sell_one(self):
        assert cpamm_average_price(R, -1.0) == pytest.approx(20000.0 / 11.0, rel=1e-12)

    def test_product_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            y = rng.uniform(1e2, 1e6)
            x = rng.uniform(1e-1, 1e3)
            trade = rng.uniform(-x, 0.999 * x)
            p = cpamm_average_price(Reserves(y, x), trade)
            assert (y + p * trade) * (x - trade) == pytest.approx(y * x, rel=1e-12)

    def test_drain_rejected(self):
        with pytest.raises(InfeasibleTradeError):
            cpamm_average_price(R, 10.0)


class TestFmammPrice:
    def test_buy_one(self):
        assert fmamm_price(R, 1.0) == pytest.approx(2500.0, rel=1e-12)

    def test_zero_trade_is_marginal(self):
        assert fmamm_price(R, 0.0) == 2000.0

    def test_sell_one(self):
        assert fmamm_price(R, -1.0) == pytest.approx(20000.0 / 12.0, rel=1e-12)

    def test_price_equals_post_trade_marginal(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            y = rng.uniform(1e2, 1e6)
            x = rng.uniform(1e-1, 1e3)
            trade = rng.uniform(-x, 0.49 * x)
            r = Reserves(y, x)
            p = fmamm_price(r, trade)
            after = apply_trade(r, trade)
            assert p == pytest.approx(after.spot_price, rel=1e-9)

    def test_pole_rejected(self):
        with pytest.raises(InfeasibleTradeError):
            fmamm_price(R, 5.0)
        with pytest.raises(InfeasibleTradeError):
            fmamm_price(R, 6.0)

    def test_double_price_impact(self):
        rng = np.random.default_rng(13)
        spot = R.spot_price
        for _ in range(200):
            trade = rng.uniform(-10.0, 4.9)
            fm = fmamm_price(R, trade)
            cp = cpamm_average_price(R, trade)
            assert abs(fm - spot) >= abs(cp - spot) - 1e-12
            # denominator shift is exactly doubled: (x - t) - (x - 2t) = t
            assert R.y / cp - R.y / fm == pytest.approx(trade, abs=1e-9)


class TestFmammSupply:
    def test_buy_price(self):
        assert fmamm_supply(R, 2500.0) == pytest.approx(1.0, rel=1e-12)

    def test_at_marginal_price(self):
        assert fmamm_supply(R, 2000.0) == 0.0

    def test_sell_price(self):
        assert fmamm_supply(R, 20000.0 / 12.0) == pytest.approx(-1.0, rel=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(y=st.floats(1e-6, 1e12), x=st.floats(1e-6, 1e9), ratio=st.floats(1e-3, 1e3))
    def test_round_trip(self, y, x, ratio):
        # any price within a factor 1000 of the spot price y/x
        reserves = Reserves(y, x)
        price = reserves.spot_price * ratio
        assert fmamm_price(reserves, fmamm_supply(reserves, price)) == pytest.approx(
            price, rel=1e-12)

    def test_rejects_nonpositive_price(self):
        with pytest.raises(ValueError):
            fmamm_supply(R, 0.0)


class TestMarginalPrice:
    def test_product_function(self):
        assert R.spot_price == 2000.0
        assert Reserves(1.0, 1.0).spot_price == 1.0

    def test_zero_reserve_rejected(self):
        with pytest.raises(ValueError):
            Reserves(10.0, 0.0).spot_price


class TestClearingPriceConsistent:
    def test_matches_closed_form_product(self):
        assert fmamm_price(R, 1.0) == pytest.approx(2500.0, rel=1e-9)

    def test_zero_trade(self):
        assert fmamm_price(R, 0.0) == 2000.0
        assert fmamm_price(Reserves(123.0, 7.0), 0.0) == 123.0 / 7.0

    def test_extreme_scales(self):
        # relative agreement must hold from dust pools to whale pools
        for y, x in [(1e-6, 1e3), (1e12, 1e-3), (3.0, 7.0)]:
            r = Reserves(y, x)
            for frac in (-0.8, -0.1, 0.2, 0.45):
                trade = frac * x
                got = fmamm_price(r, trade)
                assert got == pytest.approx(weighted_clearing_price(r, trade, 0.5), rel=1e-9)


class TestFunctionMaximizing:
    def test_matches_supply(self):
        assert fmamm_supply(R, 2500.0) == pytest.approx(1.0, rel=1e-9)

    def test_no_trade_at_marginal_price(self):
        assert fmamm_supply(R, 2000.0) == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_equivalence(self):
        # the product pool's supply at p, priced back, returns p, with a zero
        # first-order-condition residual and p the post-trade marginal price
        rng = np.random.default_rng(23)
        for _ in range(200):
            y = rng.uniform(1e2, 1e6)
            x = rng.uniform(1e-1, 1e3)
            r = Reserves(y, x)
            price = r.spot_price * rng.uniform(0.3, 3.0)
            trade = fmamm_supply(r, price)
            assert fmamm_price(r, trade) == pytest.approx(price, rel=1e-7)
            foc = 0.5 * price * (x - trade) - 0.5 * (y + price * trade)
            assert abs(foc) <= 1e-9 * (y + price * x)
            after = Reserves(y + price * trade, x - trade)
            assert price == pytest.approx(after.spot_price, rel=1e-9)

    def test_first_order_condition_by_finite_differences(self):
        price = 2500.0
        trade = fmamm_supply(R, price)

        def psi(x_trade):
            return (R.y + price * x_trade) ** 0.5 * (R.x - x_trade) ** 0.5

        h = 1e-6
        grad = (psi(trade + h) - psi(trade - h)) / (2 * h)
        scale = abs(psi(trade)) / R.x
        assert abs(grad) < 1e-5 * scale
        # stationary point is a maximum
        assert psi(trade) >= psi(trade + 1e-3) - 1e-12
        assert psi(trade) >= psi(trade - 1e-3) - 1e-12


class TestEffectivePrice:
    def test_buy_order_in_buying_batch(self):
        assert effective_price(R, 1.0, 0.1, +1) == pytest.approx(
            20000.0 / (0.9 * 8.0), rel=1e-12
        )

    def test_netted_batch_prices_at_spot(self):
        assert pre_fee_price(R, 0.0, 0.003) == 2000.0
        assert effective_price(R, 0.0, 0.003, +1) == pytest.approx(2000.0 / 0.997, rel=1e-12)
        assert effective_price(R, 0.0, 0.003, -1) == pytest.approx(2000.0 * 0.997, rel=1e-12)

    def test_zero_fee_sell_collapses_to_batch_price(self):
        assert effective_price(R, -1.0, 0.0, -1) == pytest.approx(20000.0 / 12.0, rel=1e-12)

    def test_sell_order_in_buying_batch(self):
        # pre-fee price is the buying batch's price, marked down by the fee
        assert effective_price(R, 1.0, 0.1, -1) == pytest.approx(0.9 * 2500.0, rel=1e-12)

    def test_buy_order_in_selling_batch(self):
        # selling batch routes (1-tau) of its volume: pre-fee at x*(1-tau)
        base = 20000.0 / (10.0 + 2 * 0.9)
        assert effective_price(R, -1.0, 0.1, +1) == pytest.approx(base / 0.9, rel=1e-12)
        assert effective_price(R, -1.0, 0.1, -1) == pytest.approx(base * 0.9, rel=1e-12)

    def test_same_sign_matches_single_sided_formula(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            tau = rng.uniform(0.0, 0.05)
            trade = rng.uniform(-4.0, 4.0)
            if trade == 0.0:
                continue
            got = effective_price(R, trade, tau, trade)
            if trade > 0:
                want = fmamm_price(R, trade) / (1 - tau)
            else:
                want = (1 - tau) * fmamm_price(R, trade * (1 - tau))
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_sign_rejected(self):
        with pytest.raises(ValueError):
            effective_price(R, 1.0, 0.0, 0)


class TestObjectiveValue:
    def test_zero_trade_zero_fee(self):
        assert objective_value(0.0, 1234.0, 0.0, R) == 200000.0

    def test_buy_moves_up_the_curve(self):
        got = objective_value(1.0, 2500.0, 0.0, R)
        assert got == pytest.approx((10.0 - 1.0) * (20000.0 + 2500.0), rel=1e-12)
        assert got > 200000.0

    def test_sell_branch_with_fee(self):
        # (10/0.9 + 1) * (20000 - 20000/12) = 5995000/27
        got = objective_value(-1.0, 20000.0 / 12.0, 0.1, R)
        assert got == pytest.approx(5995000.0 / 27.0, rel=1e-12)

    def test_branches_agree_at_zero(self):
        for tau in (0.0, 0.003, 0.3):
            buy_side = (R.x - 0.0) * (R.y / (1 - tau) + 0.0)
            sell_side = (R.x / (1 - tau) - 0.0) * (R.y + 0.0)
            assert buy_side == pytest.approx(sell_side, rel=1e-15)
            assert objective_value(0.0, 2000.0, tau, R) == pytest.approx(buy_side, rel=1e-15)

    def test_zero_trade_exact_and_broadcasts(self):
        # zero trade is exactly x*y/(1-tau) on either branch, and arrays give
        # the same numbers as scalar calls
        rng = np.random.default_rng(33)
        for _ in range(200):
            r = Reserves(rng.uniform(1e2, 1e6), rng.uniform(1e-1, 1e3))
            tau = rng.choice([0.0, 0.0005, 0.003, 0.01, rng.uniform(0.0, 0.1)])
            price = r.spot_price * rng.uniform(0.5, 2.0)
            assert objective_value(0.0, price, tau, r) == r.x * r.y / (1 - tau)
            trades = np.array([-0.1 * r.x, 0.0, 0.1 * r.x])
            got = objective_value(trades, price, tau, r)
            assert got.tolist() == [objective_value(t, price, tau, r) for t in trades]
        assert isinstance(objective_value(1.0, 2500.0, 0.0, R), float)

    def test_executed_trades_move_up_the_curve(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            tau = rng.uniform(0.0, 0.1)
            price = 2000.0 * rng.uniform(0.5, 2.0)
            trade = fmamm_supply(R, price)  # pool's chosen trade at tau = 0
            if tau > 0:
                # with a fee the pool's optimum shifts; evaluate at its own argmax
                lo = R.y / ((1 - tau) * R.x)
                hi_thresh = (1 - tau) * R.y / R.x
                if price > lo:
                    trade = 0.5 * (R.x - R.y / ((1 - tau) * price))
                elif price < hi_thresh:
                    trade = 0.5 * (R.x / (1 - tau) - R.y / price)
                else:
                    trade = 0.0
            base = objective_value(0.0, price, tau, R)
            chosen = objective_value(trade, price, tau, R)
            assert chosen >= base - 1e-9
            if trade != 0.0:
                assert chosen > base


class TestApplyTrade:
    def test_buy_no_fee(self):
        after = apply_trade(R, 1.0, 0.0)
        assert after.y == pytest.approx(22500.0, rel=1e-12)
        assert after.x == 9.0
        assert 2500.0 * after.x == pytest.approx(after.y, rel=1e-12)

    def test_zero_trade_any_fee(self):
        assert apply_trade(R, 0.0, 0.3) == R

    def test_sell_with_fee_balance_conservation(self):
        # conservation oracle: the trader delivers 1 asset unit (fee included),
        # and receives (1-tau) * pre_fee_price(x*(1-tau)) numeraire per unit
        tau = 0.1
        after = apply_trade(R, -1.0, tau)
        assert after.x == pytest.approx(11.0, rel=1e-15)
        payout = 1.0 * (1 - tau) * (20000.0 / (10.0 + 2 * 0.9))
        assert R.y - after.y == pytest.approx(payout, rel=1e-12)

    def test_conservation_random(self):
        # trader outflow + fee retained == pool inflow, per token
        rng = np.random.default_rng(37)
        for _ in range(300):
            tau = rng.uniform(0.0, 0.2)
            trade = rng.uniform(-5.0, 4.9)
            if trade == 0.0:
                continue
            after = apply_trade(R, trade, tau)
            price = effective_price(R, trade, tau, trade)
            # asset leg: pool gains exactly -trade
            assert after.x - R.x == pytest.approx(-trade, rel=1e-15)
            # numeraire leg: pool gains exactly the trader's payment
            assert after.y - R.y == pytest.approx(trade * price, rel=1e-12)

    def test_zero_fee_trade_rebalances_to_trade_price(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            y = rng.uniform(1e2, 1e6)
            x = rng.uniform(1e-1, 1e3)
            r = Reserves(y, x)
            trade = rng.uniform(-x, 0.49 * x)
            price = fmamm_price(r, trade)
            after = apply_trade(r, trade, 0.0)
            assert price * after.x == pytest.approx(after.y, rel=1e-9)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleTradeError):
            apply_trade(R, 5.0, 0.0)


class TestReserves:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Reserves(-1.0, 1.0)
        with pytest.raises(ValueError):
            Reserves(1.0, -1.0)
        with pytest.raises(ValueError):
            Reserves(float("nan"), 1.0)

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                Reserves(bad, 1.0)
            with pytest.raises(ValueError):
                Reserves(1.0, bad)
            with pytest.raises(ValueError):
                pre_fee_price(R, bad, 0.003)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                fmamm_supply(R, bad)
            with pytest.raises(ValueError):
                objective_value(0.0, [2000.0, bad], 0.0, R)

    def test_overflowing_price_rejected(self):
        with pytest.raises(ValueError, match="pre-fee price overflows at y=1e"):
            pre_fee_price(Reserves(1e308, 1e-308), 0.0)
        with pytest.raises(ValueError, match="effective price overflows"):
            effective_price(Reserves(1.7e308, 1.0), 0.0, 0.9, 1.0)

    @pytest.mark.parametrize("call, message", [
        # x - 2t overflows to inf: the price read 0.0, and the numeraire
        # reserve after the trade y + t*0 = 1.0 where the true one is 0.5
        (lambda: pre_fee_price(Reserves(1.0, 1.0), -1e308), "fm-amm price denominator"),
        (lambda: apply_trade(Reserves(1.0, 1.0), -1e308), "fm-amm price denominator"),
        # x - t overflows to inf: the average price read 0.0
        (lambda: cpamm_average_price(Reserves(1.0, 1e308), -1e308), "cpamm price denominator"),
        # a denominator that is finite but tiny, for a price that overflows
        (lambda: fmamm_price(Reserves(1e308, 1.0), 0.25), "fm-amm price"),
        (lambda: cpamm_average_price(Reserves(1e308, 1.0), 0.5), "cpamm average price"),
    ], ids=["pre-fee", "apply-trade", "cpamm-denominator", "fm-amm-quotient", "cpamm-quotient"])
    def test_overflowing_denominator_or_quotient_rejected(self, call, message):
        with pytest.raises(ValueError, match=rf"^{message} overflows at y=1(\.0|e\+308), "
                                             r"x=1(\.0|e\+308), trade "):
            call()

    @pytest.mark.parametrize("price", [fmamm_price, cpamm_average_price])
    @pytest.mark.parametrize("trade", [math.nan, -math.inf])
    def test_non_finite_trade_rejected(self, price, trade):
        # a NaN trade priced at NaN, and -inf at 0.0
        with pytest.raises(ValueError, match=f"^trade must be finite, got {trade}$"):
            price(R, trade)

    def test_overflowing_supply_quotient_rejected(self):
        # y/price overflows to inf: the supply read -inf
        with pytest.raises(ValueError, match=r"^supply quotient y/price overflows at y=1e\+308, "
                                             r"x=1.0, price 1e-10$"):
            fmamm_supply(Reserves(1e308, 1.0), 1e-10)

    def test_value_at(self):
        assert R.value_at(2000.0) == 40000.0
