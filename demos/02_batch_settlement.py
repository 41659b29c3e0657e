#!/usr/bin/env python3
#
# Settle a mixed batch: peer-to-peer matching, one uniform pre-fee price,
# per-side fees, and token conservation across fills, fees, and the pool.
#

import json
import math

from fmamm.amm import Reserves
from fmamm.batch import Batch, Order, settle_batch

POOL = Reserves(20000.0, 10.0)
FEE = 0.003

ORDERS = (
    Order("alice", "noise", +1.5),
    Order("bob", "noise", -0.8),
    Order("carol", "noise", +0.3),
    Order("arb", "arbitrageur", -0.6),
)


def main():
    after, report = settle_batch(POOL, Batch(1, ORDERS), FEE)
    print(f"batch of {len(ORDERS)} orders, fee {FEE:.3%}")
    print(f"net trade {report.net_trade:+.4f}, matched peer-to-peer {report.matched_volume:.4f}")
    print(f"uniform pre-fee price {report.pre_fee_price:.4f}\n")
    for fill in report.fills:
        side = "buys " if fill.amount > 0 else "sells"
        print(f"  {fill.order_id:<6} {side} {abs(fill.amount):.4f} @ {fill.price:.4f} "
              f"(fee {fill.fee_paid:.6f} {fill.fee_token})")

    print(f"\nreserves {POOL.y:.2f}/{POOL.x:.4f} -> {after.y:.2f}/{after.x:.4f}")
    print(f"fees retained: {report.fee_numeraire:.4f} numeraire + {report.fee_asset:.6f} asset")

    # conservation: per token, trader flows + pool delta sum to zero
    asset_flow = math.fsum(f.amount for f in report.fills)
    numeraire_flow = math.fsum(-f.amount * f.price for f in report.fills)
    print(f"\nconservation checks (should both be ~0):")
    print(f"  asset:     {asset_flow + (after.x - POOL.x):+.3e}")
    print(f"  numeraire: {numeraire_flow + (after.y - POOL.y):+.3e}")

    print("\nsettlement report as JSON:")
    print(json.dumps(report.to_dict(), sort_keys=True))


if __name__ == "__main__":
    main()
