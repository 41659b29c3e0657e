"""Competitive arbitrage response and worst-case extraction bounds.

Competing arbitrageurs watch an external venue price ``p_star`` and trade on
the batch whenever doing so is profitable.  With fee ``tau`` the batch's buy
and sell effective prices straddle the pre-fee price by a factor
``1/(1-tau)`` on each side, so there is a no-trade band: only when
``p_star`` leaves it do arbitrageurs submit the order that pins their own
effective price exactly to ``p_star``.

The module also prices the worst case of the off-chain batching step: an
operator that censors everyone else's orders and rebalances the pool alone.
Its maximal extraction is exactly half the profit an arbitrageur makes
rebalancing a constant-product pool from the same reserves.

All functions are pure; prices are taken as given (whatever latency produced
them is the caller's concern).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from fmamm.amm import (
    ConvergenceError,
    Reserves,
    _check_price,
    effective_price,
    pre_fee_price,
)

__all__ = [
    "RebalanceDecision",
    "no_trade_band",
    "optimal_rebalance",
    "malicious_operator_attack",
    "cpamm_arbitrage_profit",
]

# relative tolerance required of the pinned post-rebalance effective price
_PIN_RTOL = 1e-9


@dataclass(frozen=True)
class RebalanceDecision:
    """Arbitrageurs' equilibrium order for one batch.

    ``trade`` is the collective arbitrageur order (zero inside the band);
    when nonzero, the effective price of the batch's net trade at the
    arbitrageurs' order sign equals the external price.
    """

    trade: float
    rebalanced: bool
    band: tuple[float, float]


def no_trade_band(reserves: Reserves, net_noise: float, tau: float) -> tuple[float, float]:
    """External-price interval in which arbitrage on the batch cannot profit.

    Centered on the pre-fee price the batch would clear at with noise alone:
    buying on top of the batch costs at least ``pre_fee / (1-tau)`` and
    selling yields at most ``(1-tau) * pre_fee``, so the band is
    ``[(1-tau) * pre_fee, pre_fee / (1-tau)]`` (degenerate at zero fee).
    """
    base = pre_fee_price(reserves, net_noise, tau)
    return ((1.0 - tau) * base, base / (1.0 - tau))


def optimal_rebalance(
    reserves: Reserves, net_noise: float, tau: float, p_star: float
) -> RebalanceDecision:
    """Collective arbitrageur order given noise flow and the external price.

    Outside the band, arbitrageurs trade until their own effective price
    equals ``p_star``.  Every effective-price branch is ``y`` over a
    linear function of the net trade, so the pin has a closed form: the
    same-sign solution when their order leaves the batch's net trade on
    their own side, that solution rescaled by ``(1-tau)`` when the batch
    still nets to the other side (the price curve is only piecewise
    continuous across the netting point).  The pin is checked at the batch's
    settled net trade, noise plus order, which rounding can move off the
    root; a pinned price that misses ``p_star`` raises
    :class:`ConvergenceError`.  Ties at the band edge are treated as no-trade,
    as is a price just outside it whose order rounds to the wrong side of
    zero (a buy at or below zero, a sell at or above it).
    """
    _check_price(p_star)
    band = no_trade_band(reserves, net_noise, tau)
    if band[0] <= p_star <= band[1]:
        return RebalanceDecision(0.0, False, band)

    keep = 1.0 - tau
    y, x = reserves.y, reserves.x
    if p_star > band[1]:
        # arbitrageurs buy; same-sign closed form from Y/((1-tau)(x-2n)) = p*
        net = 0.5 * (x - y / (keep * p_star))
        if net < 0.0:
            # order buys but the batch still net-sells: pin the buy-side
            # price of a fee-shrunk net trade, Y/((1-tau)(x-2(1-tau)n)) = p*,
            # whose root is the same-sign root over (1-tau)
            net /= keep
    else:
        # arbitrageurs sell; same-sign closed form from (1-tau)Y/(x-2(1-tau)n) = p*
        net = 0.5 * (x / keep - y / p_star)
        if net > 0.0:
            # order sells but the batch still net-buys: (1-tau)Y/(x-2n) = p*,
            # whose root is the same-sign root times (1-tau)
            net *= keep

    trade = net - net_noise
    if (trade <= 0.0) if p_star > band[1] else (trade >= 0.0):
        # an order rounded to the wrong side of zero: p_star is within
        # rounding of the band edge, the tie case
        return RebalanceDecision(0.0, False, band)
    pinned = effective_price(reserves, net_noise + trade, tau, trade)
    if not math.isclose(pinned, p_star, rel_tol=_PIN_RTOL):
        raise ConvergenceError(
            f"rebalance solve left effective price {pinned} != target {p_star}"
        )
    return RebalanceDecision(trade, True, band)


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
