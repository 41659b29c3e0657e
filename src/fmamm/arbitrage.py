"""Competitive arbitrage response and worst-case extraction bounds.

Competing arbitrageurs watch an external venue price ``p_star`` and trade on
the batch whenever doing so is profitable.  With fee ``tau`` the batch's buy
and sell effective prices straddle the pre-fee price by a factor
``1/(1-tau)`` on each side, so there is a no-trade band: only when
``p_star`` leaves it do arbitrageurs submit the order that pins their own
effective price exactly to ``p_star``.  :func:`no_trade_band` gives that
band; :func:`arbitrage_order` gives the order, element by element, for the
backtest kernel and the value function alike; :func:`optimal_rebalance` is
the same float at one price, with its inputs and its pin checked.

The module also prices the worst case of the off-chain batching step: an
operator that censors everyone else's orders and rebalances the pool alone.
Its maximal extraction is exactly half the profit an arbitrageur makes
rebalancing a constant-product pool from the same reserves.

All functions are pure; prices are taken as given (whatever latency produced
them is the caller's concern).
"""

from __future__ import annotations

import math

import numpy as np

from fmamm.amm import (
    ConvergenceError,
    Reserves,
    _check_price,
    effective_price,
    pre_fee_price,
)

__all__ = [
    "no_trade_band",
    "arbitrage_order",
    "optimal_rebalance",
    "malicious_operator_attack",
    "cpamm_arbitrage_profit",
]

# relative tolerance required of the pinned post-rebalance effective price
_PIN_RTOL = 1e-9


def no_trade_band(reserves: Reserves, net_noise: float, tau: float) -> tuple[float, float]:
    """External-price interval in which arbitrage on the batch cannot profit.

    Centered on the pre-fee price the batch would clear at with noise alone:
    buying on top of the batch costs at least ``pre_fee / (1-tau)`` and
    selling yields at most ``(1-tau) * pre_fee``, so the band is
    ``[(1-tau) * pre_fee, pre_fee / (1-tau)]`` (degenerate at zero fee).
    """
    base = pre_fee_price(reserves, net_noise, tau)
    return ((1.0 - tau) * base, base / (1.0 - tau))


def arbitrage_order(y, x, net_noise, tau: float, p_star):
    """Arbitrageurs' order against reserves ``(y, x)``, element by element.

    Outside the band, arbitrageurs trade until their own effective price
    equals ``p_star``: the same-sign root when their order leaves the batch's
    net trade on their side, that root rescaled by ``(1-tau)`` when the batch
    still nets to the noise's side (sign mixing).  Inside the band, on its
    edges and where the order rounds to the wrong side of zero (the tie), it
    is 0.  Inputs broadcast (``tau`` scalar), scalars return a float, and
    nothing is checked: invalid inputs give junk orders.
    """
    y, x, a, p = (np.asarray(v, dtype=np.float64) for v in (y, x, net_noise, p_star))
    keep = 1.0 - tau
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a net-selling batch routes only (1-tau) of its volume to the pool
        base = np.where(a == 0.0, y / x, y / (x - 2.0 * np.where(a > 0.0, a, a * keep)))
        # buy: Y/((1-tau)(x-2n)) = p*, over (1-tau) when the batch still net-sells
        buy = 0.5 * (x - y / (keep * p))
        buy = np.where(buy >= 0.0, buy, buy / keep) - a
        # sell: (1-tau)Y/(x-2(1-tau)n) = p*, times (1-tau) when the batch still net-buys
        sell = 0.5 * (x / keep - y / p)
        sell = np.where(sell > 0.0, sell * keep, sell) - a
        trade = np.where(p > base / keep, np.where(buy > 0.0, buy, 0.0),
                         np.where(p < keep * base, np.where(sell < 0.0, sell, 0.0), 0.0))
    return float(trade) if trade.ndim == 0 else trade


def optimal_rebalance(reserves: Reserves, net_noise: float, tau: float, p_star: float) -> float:
    """Collective arbitrageur order given noise flow and the external price.

    :func:`arbitrage_order` at one price, with the inputs checked: 0 inside
    the band, otherwise the order whose effective price, at the batch's net
    trade and the order's sign, equals ``p_star``.  The pin is checked at the
    batch's settled net trade, noise plus order, which rounding can move off
    the root; a price that misses ``p_star`` raises :class:`ConvergenceError`.
    """
    _check_price(p_star)
    pre_fee_price(reserves, net_noise, tau)
    trade = arbitrage_order(reserves.y, reserves.x, net_noise, tau, p_star)
    if trade != 0.0:
        pinned = effective_price(reserves, net_noise + trade, tau, trade)
        if not math.isclose(pinned, p_star, rel_tol=_PIN_RTOL):
            raise ConvergenceError(
                f"rebalance solve left effective price {pinned} != target {p_star}"
            )
    return trade


def malicious_operator_attack(reserves: Reserves, p_star: float) -> tuple[float, float]:
    """Censoring batch operator's optimal trade and profit.

    An operator that suppresses all other orders maximizes
    ``x_trade * (p_star - y/(x - 2*x_trade))``, which peaks at
    ``x_trade = (x - sqrt(x*y/p_star))/2`` with value
    ``(y + p_star*x)/2 - sqrt(x*y*p_star)`` -- non-negative, zero only when
    the pool already sits at ``p_star``, and exactly half of
    :func:`cpamm_arbitrage_profit`.
    """
    x_arb, profit = cpamm_arbitrage_profit(reserves, p_star)
    return 0.5 * x_arb, 0.5 * profit


def cpamm_arbitrage_profit(reserves: Reserves, p_star: float) -> tuple[float, float]:
    """Arbitrageur's optimal trade and profit rebalancing a constant-product pool.

    Maximizes ``x_trade * (p_star - y/(x - x_trade))``; the optimum
    ``x_trade = x - sqrt(x*y/p_star)`` brings the pool's marginal price to
    ``p_star`` and earns ``y + p_star*x - 2*sqrt(x*y*p_star)``.  A trade or
    profit that overflows raises ``ValueError``.
    """
    _check_price(p_star)
    x_arb = reserves.x - math.sqrt(reserves.x * reserves.y / p_star)
    gap = reserves.y + p_star * reserves.x - 2.0 * math.sqrt(reserves.x * reserves.y * p_star)
    if not (math.isfinite(x_arb) and math.isfinite(gap)):
        raise ValueError(f"arbitrage overflows at y={reserves.y}, x={reserves.x}, p_star={p_star}")
    return x_arb, max(gap, 0.0)
