"""Pricing and trade math for constant-product and batch-clearing pools.

Two mechanisms share the same reserve state ``(y, x)`` of numeraire and asset
tokens:

* a constant-product AMM (CPAMM) keeps ``y * x`` invariant, so a trade of
  ``x_trade`` asset units fills at the average price ``y / (x - x_trade)``;
* a function-maximizing AMM (FM-AMM) fills the whole batch at one uniform
  price equal to its own marginal price *after* the trade, which for the
  product function is ``y / (x - 2 * x_trade)`` -- twice the denominator
  shift, hence twice the price impact of the CPAMM.

Sign convention used throughout the package: positive trades mean the pool
sells asset (the batch buys), negative trades mean the pool buys.

With a fee ``tau`` charged in each order's sell token, buyers pay the pre-fee
price marked up by ``1/(1-tau)`` and sellers receive it marked down by
``(1-tau)``; a net-selling batch only moves ``(1-tau)`` of its volume through
the pool, so its pre-fee price is evaluated at the fee-shrunk trade.

All amounts and prices are 64-bit floats (desk-scale simulation, not token
integer accounting). The pool is the product function throughout, and every
quantity has a closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Reserves",
    "InfeasibleTradeError",
    "ConvergenceError",
    "POLE_MARGIN",
    "cpamm_average_price",
    "fmamm_price",
    "fmamm_supply",
    "pre_fee_price",
    "effective_price",
    "objective_value",
    "apply_trade",
]

# Trades are rejected when the post-trade price-pole denominator falls below
# this fraction of the asset reserve.
POLE_MARGIN = 1e-12


class InfeasibleTradeError(ValueError):
    """Trade cannot be filled from the current reserves."""


class ConvergenceError(RuntimeError):
    """A rebalance left its effective price off the external price it pins."""


@dataclass(frozen=True)
class Reserves:
    """Pool state: ``y`` numeraire units and ``x`` asset units."""

    y: float
    x: float

    def __post_init__(self) -> None:
        # the negated comparison also rejects NaN
        if not (0.0 <= self.y < math.inf and 0.0 <= self.x < math.inf):
            raise ValueError(
                f"reserves must be finite and non-negative, got y={self.y}, x={self.x}"
            )

    @property
    def spot_price(self) -> float:
        """Marginal price y/x of the product-function pool."""
        if self.x <= 0.0:
            raise ValueError("marginal price undefined with zero asset reserve")
        return self.y / self.x

    def value_at(self, price: float) -> float:
        """Total reserve value in numeraire terms at an external price."""
        return self.y + price * self.x


def _is_integer(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number: a finite float, or an integer within the float range."""
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_integer(value) and abs(value) <= sys.float_info.max


def _check_fee(tau: float, name: str = "fee") -> None:
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"{name} must satisfy 0 <= tau < 1, got {tau}")


def _check_size(size: float, name: str) -> None:
    # sizes are normal floats: a subnormal one lacks the precision that the
    # kernel's pins and the baseline's fee growth need
    if not size >= sys.float_info.min:
        raise ValueError(f"{name} must be at least {sys.float_info.min!r}, got {size!r}")


def _check_price(price: float) -> None:
    if not 0.0 < price < math.inf:
        raise ValueError(f"price must be positive and finite, got {price}")


def _check_trade(x_trade: float) -> None:
    if not math.isfinite(x_trade):
        raise ValueError(f"trade must be finite, got {x_trade}")


def _finite(value: float, name: str, reserves: Reserves, amount: float,
            what: str = "trade") -> float:
    """``value``, a price or one of its denominators; one that overflowed
    raises ``ValueError`` naming the reserves and the ``amount`` it was
    computed for (a trade, or ``what`` names it)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} overflows at y={reserves.y}, x={reserves.x}, {what} {amount}")
    return value


def cpamm_average_price(reserves: Reserves, x_trade: float) -> float:
    """Average price y/(x - x_trade) paid on a constant-product pool.

    The fill keeps the reserve product constant: after trading ``x_trade``
    at this price, ``y' * x' == y * x``.  A denominator or price that
    overflows raises ``ValueError``, as does a trade that is not finite.
    """
    _check_trade(x_trade)
    if x_trade >= reserves.x:
        raise InfeasibleTradeError(
            f"trade {x_trade} would drain the asset reserve {reserves.x}"
        )
    denom = _finite(reserves.x - x_trade, "cpamm price denominator", reserves, x_trade)
    return _finite(reserves.y / denom, "cpamm average price", reserves, x_trade)


def fmamm_price(reserves: Reserves, x_trade: float) -> float:
    """Uniform batch price y/(x - 2*x_trade) of the function-maximizing pool.

    Equals the pool's marginal price after the trade executes, so buys only
    clear up to the pole at ``x_trade = x/2``.  A sell whose denominator
    overflows, or a price that does, raises ``ValueError``, as does a trade
    that is not finite.
    """
    _check_trade(x_trade)
    denom = reserves.x - 2.0 * x_trade
    if denom <= POLE_MARGIN * reserves.x:
        raise InfeasibleTradeError(
            f"trade {x_trade} is at or beyond the price pole x/2 = {reserves.x / 2.0}"
        )
    denom = _finite(denom, "fm-amm price denominator", reserves, x_trade)
    return _finite(reserves.y / denom, "fm-amm price", reserves, x_trade)


def fmamm_supply(reserves: Reserves, price: float) -> float:
    """Asset amount (x - y/price)/2 the pool supplies at a given price.

    Inverse of :func:`fmamm_price`: positive when the quoted price exceeds
    the marginal price y/x, negative below it, zero at it.  A quotient
    y/price that overflows raises ``ValueError``.
    """
    _check_price(price)
    return 0.5 * (reserves.x - _finite(reserves.y / price, "supply quotient y/price", reserves,
                                       price, "price"))


def pre_fee_price(reserves: Reserves, net_trade: float, tau: float = 0.0) -> float:
    """Uniform price before fees for a batch with the given net trade.

    A net-selling batch only routes ``(1-tau)`` of its volume through the
    pool (the rest is retained as fee), so its price is evaluated at the
    fee-shrunk trade; an exactly-netted batch prices at the spot ratio y/x.
    A price that overflows raises ``ValueError``, as in :func:`effective_price`.
    """
    _check_fee(tau)
    if net_trade == 0.0:
        price = reserves.spot_price
    else:
        price = fmamm_price(reserves, net_trade if net_trade > 0.0 else net_trade * (1.0 - tau))
    return _finite(price, "pre-fee price", reserves, net_trade)


def effective_price(
    reserves: Reserves, net_trade: float, tau: float, order_sign: float
) -> float:
    """Price actually paid (buy) or received (sell) by one order in a batch.

    ``net_trade`` is the whole batch's net trade against the pool and fixes
    the pre-fee price; ``order_sign`` is the sign of the individual order
    being priced.  The fee is charged in each order's sell token: buyers pay
    ``pre_fee / (1-tau)``, sellers receive ``(1-tau) * pre_fee``.
    """
    if order_sign == 0.0 or not math.isfinite(order_sign):
        raise ValueError("order_sign must be a nonzero finite value")
    base = pre_fee_price(reserves, net_trade, tau)
    price = base / (1.0 - tau) if order_sign > 0.0 else (1.0 - tau) * base
    return _finite(price, "effective price", reserves, net_trade)


def objective_value(x_trade, price, tau: float, reserves: Reserves):
    """Reserve-product objective the pool maximizes when trading at ``price``.

    Two branches by trade sign; the fee grosses up the reserve of whichever
    token the batch is selling to the pool, and both branches are exactly
    ``x * y / (1-tau)`` at ``x_trade = 0``.  ``x_trade`` and ``price``
    broadcast as numpy arrays; scalar inputs return a float.
    """
    _check_fee(tau)
    t = np.asarray(x_trade, dtype=np.float64)
    p = np.asarray(price, dtype=np.float64)
    bad = ~((p > 0.0) & (p < math.inf))
    if bad.any():
        raise ValueError(f"prices must be positive and finite, got {float(p[bad][0])!r}")
    keep = 1.0 - tau
    y, x = reserves.y, reserves.x
    value = np.where(
        t >= 0.0, (x - t) * (y + keep * p * t), (x - keep * t) * (y + p * t)
    ) / keep
    return float(value) if value.ndim == 0 else value


def apply_trade(reserves: Reserves, x_trade: float, tau: float = 0.0) -> Reserves:
    """Reserves after filling a net trade, fee retained in the pool.

    The pool's asset reserve changes by the full traded amount (a selling
    batch's asset fee stays in the pool); the numeraire leg moves at the
    trade's effective price.  With ``tau = 0`` the post-trade reserve values
    are equal at the trade price: ``price * x' == y'``.
    """
    _check_fee(tau)
    if x_trade == 0.0:
        return reserves
    price = effective_price(reserves, x_trade, tau, x_trade)
    return Reserves(reserves.y + x_trade * price, reserves.x - x_trade)
