"""Arbitrage band, rebalancing equilibrium, and attack-bound tests.

The closed-form attack profits are verified against a vectorized grid-search
maximization oracle over the feasible trade range, and the rebalance solver
against a plain bisection oracle on the effective-price curve.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmamm.amm import Reserves, effective_price, fmamm_price, fmamm_supply
from fmamm.arbitrage import (
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
        dec = optimal_rebalance(R, 0.0, 0.0, 2500.0)
        assert dec.rebalanced
        assert dec.trade == pytest.approx(fmamm_supply(R, 2500.0), rel=1e-12)
        assert dec.trade == pytest.approx(1.0, rel=1e-12)

    def test_buy_branch_closed_form_with_fee(self):
        dec = optimal_rebalance(R, 0.0, 0.1, 2500.0)
        want = 0.5 * (10.0 - 20000.0 / (0.9 * 2500.0))
        assert dec.trade == pytest.approx(want, rel=1e-12)
        assert dec.trade == pytest.approx(0.5555555555555556, rel=1e-9)

    def test_inside_band_no_trade(self):
        dec = optimal_rebalance(R, 0.0, 0.3, 2000.0)
        assert not dec.rebalanced
        assert dec.trade == 0.0

    def test_band_edge_is_no_trade(self):
        low, high = no_trade_band(R, 0.0, 0.1)
        for p in (low, high):
            dec = optimal_rebalance(R, 0.0, 0.1, p)
            assert not dec.rebalanced

    def test_pinned_price_random(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            tau = rng.uniform(0.0, 0.05)
            noise = rng.uniform(-2.0, 2.0)
            p_star = 2000.0 * rng.uniform(0.4, 2.5)
            dec = optimal_rebalance(R, noise, tau, p_star)
            if dec.rebalanced:
                net = noise + dec.trade
                got = effective_price(R, net, tau, dec.trade)
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
        dec = optimal_rebalance(R, 0.0, tau, p_star)
        assert dec.trade == pytest.approx(0.5 * (lo + hi), rel=1e-9)

    def test_sign_mixing_sell_into_buying_noise(self):
        # noise net-buys, price drops a little: arbitrageurs sell but the
        # batch stays a net buy, so their price is the discounted batch price
        tau, noise = 0.01, 2.0
        low, _ = no_trade_band(R, noise, tau)
        p_star = low * 0.98
        assert p_star > (1 - tau) * R.spot_price  # net stays positive
        dec = optimal_rebalance(R, noise, tau, p_star)
        net = noise + dec.trade
        assert dec.trade < 0 < net
        assert (1 - tau) * fmamm_price(R, net) == pytest.approx(p_star, rel=1e-9)

    def test_sign_mixing_buy_into_selling_noise(self):
        tau, noise = 0.01, -2.0
        _, high = no_trade_band(R, noise, tau)
        p_star = high * 1.02
        assert p_star < R.spot_price / (1 - tau)  # net stays negative
        dec = optimal_rebalance(R, noise, tau, p_star)
        net = noise + dec.trade
        assert net < 0 < dec.trade
        assert fmamm_price(R, net * (1 - tau)) / (1 - tau) == pytest.approx(p_star, rel=1e-9)

    def test_no_residual_arbitrage(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            tau = rng.uniform(0.0, 0.05)
            noise = rng.uniform(-2.0, 2.0)
            p_star = 2000.0 * rng.uniform(0.5, 2.0)
            dec = optimal_rebalance(R, noise, tau, p_star)
            if not dec.rebalanced:
                continue
            net = noise + dec.trade
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
        dec = optimal_rebalance(reserves, noise * x, tau, p_star)
        net = noise * x + dec.trade
        for dr in (share * x, -share * x):
            extra = dr * (p_star - effective_price(reserves, net + dr, tau, dr))
            assert extra <= 1e-9 * abs(dr) * p_star, (dec, dr, extra)

    def test_band_consistency_when_not_rebalanced(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            tau = rng.uniform(0.001, 0.1)
            noise = rng.uniform(-2.0, 2.0)
            low, high = no_trade_band(R, noise, tau)
            p_star = rng.uniform(low, high)
            dec = optimal_rebalance(R, noise, tau, p_star)
            assert not dec.rebalanced
            assert effective_price(R, noise, tau, +1) >= p_star - 1e-9 * p_star
            assert effective_price(R, noise, tau, -1) <= p_star + 1e-9 * p_star

    def test_zero_fee_rebalance_splits_value_evenly(self):
        dec = optimal_rebalance(R, 0.0, 0.0, 2500.0)
        net = dec.trade
        after = Reserves(R.y + net * 2500.0, R.x - net)
        assert 2500.0 * after.x == pytest.approx(after.y, rel=1e-12)


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
