#!/usr/bin/env python3
#
# Walk through the two pricing rules on the same pool, show how the batch
# price doubles the price impact, how fees split the buy and sell sides,
# and why splitting a trade across sequential batches recovers
# constant-product pricing (the reason trades must be batched).
#

from fmamm.amm import (
    Reserves,
    cpamm_average_price,
    effective_price,
    fmamm_price,
    fmamm_supply,
)
from fmamm.batch import split_trade_experiment

POOL = Reserves(20000.0, 10.0)  # 20,000 DAI-like vs 10 ETH-like, spot 2000


def quote_table():
    print(f"pool: y={POOL.y} x={POOL.x}  spot {POOL.spot_price}")
    print(f"{'trade':>8} {'cpamm avg':>12} {'batch price':>12}")
    for trade in (-2.0, -1.0, -0.1, 0.1, 1.0, 2.0):
        cp = cpamm_average_price(POOL, trade)
        fm = fmamm_price(POOL, trade)
        print(f"{trade:>8} {cp:>12.3f} {fm:>12.3f}")
    print("the batch price moves twice as far from spot: same trade, double impact\n")


def supply_inversion():
    for price in (1666.667, 2000.0, 2500.0):
        trade = fmamm_supply(POOL, price)
        print(f"at price {price:>9.3f} the pool supplies {trade:+.4f} "
              f"(round trip {fmamm_price(POOL, trade):.3f})")
    print()


def fee_sides():
    tau = 0.003
    for net in (1.0, 0.0, -1.0):
        buy = effective_price(POOL, net, tau, +1)
        sell = effective_price(POOL, net, tau, -1)
        print(f"net {net:+.0f}: buyers pay {buy:.3f}, sellers receive {sell:.3f}")
    print("every order in a batch shares one pre-fee price; the fee splits the sides\n")


def splitting():
    trade = 2.0
    print(f"buying {trade} in n sequential batches, final numeraire reserve:")
    for n in (1, 2, 10, 100, 10_000, 100_000):
        final = split_trade_experiment(POOL, trade, n)
        print(f"  n={n:<8} y'={final.y:,.3f}")
    cpamm_limit = POOL.y * POOL.x / (POOL.x - trade)
    print(f"  limit      y'={cpamm_limit:,.3f}  (constant-product outcome)")
    print("splitting strictly helps the trader, so the mechanism batches trades per block")


if __name__ == "__main__":
    quote_table()
    supply_inversion()
    fee_sides()
    splitting()
