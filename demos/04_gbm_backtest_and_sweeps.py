#!/usr/bin/env python3
#
# Counterfactual LP returns on a synthetic martingale price path: the
# zero-noise floor per fee, and how balanced noise volume lifts returns
# through fee revenue alone.
#

import numpy as np

from fmamm.backtest import (
    DEFAULT_FEE_GRID,
    NO_NOISE,
    NoiseScenario,
    block_grid_series,
    run_fmamm_backtest,
)
from fmamm.market_data import GbmParams, sample_gbm_path

BLOCKS = 20_000
VOL_PER_SQRT_S = 0.0008  # ~0.28% per 12s block


def main():
    path = sample_gbm_path(
        GbmParams(2000.0, VOL_PER_SQRT_S, step_seconds=12,
                  horizon_seconds=12 * BLOCKS, seed=7)
    )
    # one block grid for every run below: the path is sampled once
    grid = block_grid_series(path)
    print(f"path: {BLOCKS} blocks, terminal price {path.prices[-1]:.2f} "
          f"(start {path.prices[0]:.0f})\n")

    print("zero-noise terminal ROI by fee (the lower bound for LPs):")
    for tau in DEFAULT_FEE_GRID:
        result = run_fmamm_backtest(grid, tau, NO_NOISE)
        print(f"  fee {tau:<8g} roi {result.terminal_roi:+9.4%}  "
              f"rebalances {result.n_rebalances:>6}")

    # noise volume expressed as a fraction of some baseline venue's volume,
    # here a constant 0.2% of the pool's asset reserve per block
    volume = np.full(grid.p_stars.size, 0.002 * 1.0)
    print("\nterminal ROI by balanced noise volume (fee 0.003):")
    for fraction in (0.0, 0.1, 0.3, 0.5, 1.0):
        roi = run_fmamm_backtest(grid, 0.003, NoiseScenario(fraction),
                                 baseline_volume=volume).terminal_roi
        if fraction == 0.0:
            zero = roi
        lift = 100 * (roi - zero)
        print(f"  fraction {fraction:<5g} roi {roi:+9.4%}  vs zero-noise {lift:+7.4f}pp")
    print("\nbalanced noise nets to zero, so it never changes the trades -- "
          "it only adds fee revenue")


if __name__ == "__main__":
    main()
