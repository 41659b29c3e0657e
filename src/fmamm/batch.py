"""Order batching and uniform-price settlement.

Orders collected for one block are netted peer-to-peer first; only the net
excess trades against the pool, at a single pre-fee price shared by every
order in the batch.  Buyers then pay that price marked up by ``1/(1-tau)``
and sellers receive it marked down by ``(1-tau)`` -- the fee is charged in
each order's sell token and is retained by the pool, including the fee on
volume that was matched peer-to-peer.

Settlement is a pure state transition ``(Reserves, Batch) -> (Reserves,
SettlementReport)``; an infeasible net trade rejects the whole batch.
Accumulations use exact summation so the result is invariant to the order
in which orders are listed.

The module also hosts the trade-splitting experiment: executing one trade
as ``n`` sequential batches, which converges to constant-product pricing as
``n`` grows (the reason batching must be enforced in the first place).

External formats: batches load from JSON lines ``{"block": int,
"trader_kind": str, "amount": number}`` (a JSON integer block and a finite
JSON number amount, never a string or a boolean; an optional ``"id"`` is a
JSON string) and reports serialize to JSON dicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from fmamm.amm import (
    InfeasibleTradeError,
    POLE_MARGIN,
    Reserves,
    _check_trade,
    _finite,
    _is_integer,
    _is_number,
    pre_fee_price,
)
from fmamm.market_data import _digest

__all__ = [
    "Order",
    "Batch",
    "Fill",
    "SettlementReport",
    "NetFlow",
    "net_orders",
    "settle_batch",
    "split_trade_experiment",
    "load_order_batches",
]

TRADER_KINDS = ("noise", "arbitrageur")


@dataclass(frozen=True)
class Order:
    """One signed market order: positive amount buys asset from the pool."""

    id: str
    trader_kind: str
    amount: float

    def __post_init__(self) -> None:
        if self.trader_kind not in TRADER_KINDS:
            raise ValueError(f"trader_kind must be one of {TRADER_KINDS}, got {self.trader_kind!r}")
        if not (self.amount != 0.0 and math.isfinite(self.amount)):
            raise ValueError(f"order amount must be nonzero and finite, got {self.amount}")


@dataclass(frozen=True)
class Batch:
    """Orders collected for settlement in one block."""

    block_index: int
    orders: tuple[Order, ...]

    def __post_init__(self) -> None:
        if self.block_index < 1:
            raise ValueError(f"block_index must be >= 1, got {self.block_index}")
        object.__setattr__(self, "orders", tuple(self.orders))


class NetFlow(NamedTuple):
    net: float
    matched: float
    buys: float
    sells: float


class Fill(NamedTuple):
    order_id: str
    amount: float
    price: float  # effective (after fee)
    fee_paid: float  # in the order's sell token
    fee_token: str  # "numeraire" for buys, "asset" for sells


@dataclass(frozen=True)
class SettlementReport:
    block_index: int
    net_trade: float
    matched_volume: float
    pre_fee_price: float
    fills: tuple[Fill, ...]
    fee_numeraire: float
    fee_asset: float

    def to_dict(self) -> dict:
        return {
            "block": self.block_index,
            "net_trade": self.net_trade,
            "matched_volume": self.matched_volume,
            "pre_fee_price": self.pre_fee_price,
            "fills": [
                {
                    "id": f.order_id,
                    "amount": f.amount,
                    "price": f.price,
                    "fee_paid": f.fee_paid,
                    "fee_token": f.fee_token,
                }
                for f in self.fills
            ],
            "fee_accrued": {"numeraire": self.fee_numeraire, "asset": self.fee_asset},
        }


def net_orders(orders: Iterable[Order]) -> NetFlow:
    """Net trade, peer-to-peer matched volume, and side totals of a batch.

    ``matched = min(buys, -sells)`` is the volume that never touches the
    pool; ``net = buys + sells`` is what does.
    """
    amounts = [o.amount for o in orders]
    buys = math.fsum(a for a in amounts if a > 0.0)
    sells = math.fsum(a for a in amounts if a < 0.0)
    net = math.fsum(amounts)
    # 0.0 - sells, not -sells: a batch with no sells matches 0.0, never -0.0
    return NetFlow(net=net, matched=min(buys, 0.0 - sells), buys=buys, sells=sells)


def settle_batch(
    reserves: Reserves, batch: Batch, tau: float = 0.0
) -> tuple[Reserves, SettlementReport]:
    """Fill every order in the batch at the uniform pre-fee price.

    Returns the post-settlement reserves and a per-order report.  The pool's
    asset reserve changes by exactly the net trade (sellers' asset fees stay
    in the pool but fund matched buyers' fills); the numeraire reserve takes
    in every buyer payment and pays out every seller receipt, which leaves
    all fee value inside the pool.  A batch whose sums overflow raises
    ``ValueError`` naming its block.
    """
    try:
        flow = net_orders(batch.orders)
        base = pre_fee_price(reserves, flow.net, tau)  # InfeasibleTradeError rejects the batch
        buy_price = base / (1.0 - tau)
        sell_price = (1.0 - tau) * base

        fills = tuple(
            Fill(o.id, o.amount, buy_price, o.amount * base * tau / (1.0 - tau), "numeraire")
            if o.amount > 0.0 else Fill(o.id, o.amount, sell_price, tau * -o.amount, "asset")
            for o in batch.orders
        )
        inflow = math.fsum(f.amount * f.price for f in fills)
        after = Reserves(reserves.y + inflow, reserves.x - flow.net)
        report = SettlementReport(
            block_index=batch.block_index,
            net_trade=flow.net,
            matched_volume=flow.matched,
            pre_fee_price=base,
            fills=fills,
            fee_numeraire=math.fsum(f.fee_paid for f in fills if f.amount > 0.0),
            fee_asset=math.fsum(f.fee_paid for f in fills if f.amount < 0.0),
        )
        return after, report
    except OverflowError as exc:
        raise ValueError(f"block {batch.block_index}: batch sums overflow: {exc}") from exc


def split_trade_experiment(reserves: Reserves, x_trade: float, n: int) -> Reserves:
    """Final reserves when one trade executes as n sequential batches.

    Each slice ``d = x_trade / n`` settles fee-free on its own, so the
    numeraire reserve compounds by ``(x_i - d) / (x_i - 2d)`` per step; the
    factors telescope to ``y * (x - d) / (x - (n+1)*d)``.  Splitting a buy
    strictly lowers the final numeraire reserve, approaching
    ``y * x / (x - x_trade)`` -- the constant-product outcome -- as n grows.
    A sell whose denominator ``x - (n+1)*d`` overflows raises ``ValueError``.
    """
    _check_trade(x_trade)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if x_trade == 0.0:
        return reserves
    step = x_trade / n
    # step k is infeasible when x - (k+1)*d <= POLE_MARGIN*x: for a buy the
    # last step comes nearest, and a sell never gets there
    last = reserves.x - (n + 1) * step
    if last <= POLE_MARGIN * reserves.x:
        k = min(n, max(1, math.ceil((1.0 - POLE_MARGIN) * reserves.x / step) - 1))
        raise InfeasibleTradeError(
            f"split trade infeasible at step {k} of {n}: "
            f"slice {step} hits the price pole with asset reserve {reserves.x - (k - 1) * step}"
        )
    last = _finite(last, "split trade denominator", reserves, x_trade)
    return Reserves(reserves.y * (reserves.x - step) / last, reserves.x - n * step)


def load_order_batches(path, digests=None) -> list[Batch]:
    """Read batches from a JSON-lines file of {block, trader_kind, amount}.

    Orders are grouped by block in file order; block numbers must be
    non-decreasing so that batches come out strictly increasing.  The file
    is parsed in one pass, and the first malformed line is reported with its
    line number.  An optional "id" field, a JSON string, overrides the
    default "<block>:<n>" order id.  ``digests``, when given, gets the
    SHA-256 of the bytes parsed under ``str(path)`` (None for a file that
    is not regular).
    """
    bad_line = (KeyError, TypeError, ValueError, OverflowError)
    groups: list[tuple[int, list[Order]]] = []
    with open(path, errors="surrogateescape") as fh:
        if digests is not None:
            digests[str(path)] = _digest(fh.buffer)
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                # decoded strictly one line at a time, so a bad byte names its line
                line = line.encode(fh.encoding, "surrogateescape").decode(fh.encoding)
                row = json.loads(line)
                block, amount = row["block"], row["amount"]
                if not _is_integer(block):
                    raise ValueError(f"block must be an integer, got {block!r}")
                if block < 1:
                    raise ValueError(f"block must be >= 1, got {block}")
                if not _is_number(amount):
                    raise ValueError(f"amount must be a finite number, got {amount!r}")
            except bad_line as exc:
                raise ValueError(f"{path}:{lineno}: bad order line: {exc}") from exc
            if groups and block < groups[-1][0]:
                raise ValueError(f"{path}:{lineno}: block {block} after block {groups[-1][0]}; "
                                 "blocks must be non-decreasing")
            if not groups or block > groups[-1][0]:
                groups.append((block, []))
            orders = groups[-1][1]
            try:
                order_id = row.get("id", f"{block}:{len(orders)}")
                if not isinstance(order_id, str):
                    raise ValueError(f"id must be a string, got {order_id!r}")
                orders.append(Order(order_id, row["trader_kind"], float(amount)))
            except bad_line as exc:
                raise ValueError(f"{path}:{lineno}: bad order line: {exc}") from exc
    return [Batch(block, tuple(orders)) for block, orders in groups]
