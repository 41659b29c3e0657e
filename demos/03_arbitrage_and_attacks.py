#!/usr/bin/env python3
#
# The competitive arbitrage response: the fee-widened no-trade band, the
# order that pins the batch to the external price, and the worst case of a
# censoring batch operator -- whose extraction is exactly half a CPAMM
# arbitrageur's profit from the same reserves.
#

from fmamm.amm import Reserves, effective_price
from fmamm.arbitrage import (
    cpamm_arbitrage_profit,
    malicious_operator_attack,
    no_trade_band,
    optimal_rebalance,
)

POOL = Reserves(20000.0, 10.0)


def band_table():
    print("no-trade band around spot 2000 (no noise flow):")
    for tau in (0.0, 0.0005, 0.003, 0.01, 0.05):
        low, high = no_trade_band(POOL, 0.0, tau)
        print(f"  fee {tau:<7g} [{low:9.3f}, {high:9.3f}]  width {high - low:8.3f}")
    print()


def rebalance_examples():
    for tau, p_star in ((0.0, 2500.0), (0.003, 2500.0), (0.003, 2003.0), (0.01, 1900.0)):
        trade = optimal_rebalance(POOL, 0.0, tau, p_star)
        if trade != 0.0:
            pinned = effective_price(POOL, trade, tau, trade)
            print(f"  fee {tau:<6g} p*={p_star:<7g} arb trades {trade:+.5f}, "
                  f"effective price pinned to {pinned:.4f}")
        else:
            low, high = no_trade_band(POOL, 0.0, tau)
            print(f"  fee {tau:<6g} p*={p_star:<7g} inside band {low:.2f}..{high:.2f}, no trade")
    print()


def attack_comparison():
    print(f"{'p*':>7} {'operator profit':>16} {'cpamm arb profit':>17} {'ratio':>7}")
    for p_star in (1800.0, 2000.0, 2420.0, 2500.0, 3000.0):
        _, op = malicious_operator_attack(POOL, p_star)
        _, cp = cpamm_arbitrage_profit(POOL, p_star)
        ratio = op / cp if cp else float("nan")
        print(f"{p_star:>7.0f} {op:>16.4f} {cp:>17.4f} {ratio:>7.3f}")
    print("\na censoring operator can take at most half of what CPAMM LPs lose "
          "routinely to arbitrageurs")


if __name__ == "__main__":
    band_table()
    rebalance_examples()
    attack_comparison()
