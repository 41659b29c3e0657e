#!/usr/bin/env python3
#
# The pool's maximized objective as a function of the settlement price is
# flat inside the no-trade band and convex outside it, so a mean-preserving
# spread of the price can only raise its expectation -- strictly, once the
# spread pushes mass past the band edges.
#

import numpy as np

from fmamm.amm import Reserves
from fmamm.backtest import risk_monte_carlo, value_function

POOL = Reserves(20000.0, 10.0)
N_DRAWS = 100_000


def value_curve():
    print("maximized objective by settlement price (fee 0.003):")
    for p in (1800.0, 1950.0, 1994.0, 2000.0, 2006.0, 2050.0, 2200.0):
        v = value_function([p], POOL, 0.003)[0]
        print(f"  p={p:<7g} V={v:,.2f}")
    print("flat near 2000 (inside the band), rising on both sides\n")


def spread_experiment():
    base = np.full(N_DRAWS, POOL.spot_price)
    print(f"degenerate base price {POOL.spot_price:.0f}, +-10% two-point spread:")
    for tau in (0.003, 0.01, 0.05, 0.15):
        out = risk_monte_carlo(base, 0.1 * POOL.spot_price, POOL, tau, seed=1)
        print(f"  fee {tau:<6g} objective gain {out.difference:12.4f} "
              f"(z={out.z_score:7.2f})")
    print("once the band is wide enough to swallow both atoms the gain is exactly zero")


if __name__ == "__main__":
    value_curve()
    spread_experiment()
