"""Simulation library for a batch-settled function-maximizing AMM (FM-AMM).

Subpackages cover the pool math (:mod:`fmamm.amm`), uniform-price batch
settlement (:mod:`fmamm.batch`), the competitive arbitrage response and
operator attack bounds (:mod:`fmamm.arbitrage`), price-series handling and
synthetic paths (:mod:`fmamm.market_data`), a full-range Uniswap-v3-style
LP baseline (:mod:`fmamm.uniswap`), and block-level return backtests and
sweeps (:mod:`fmamm.backtest`).  ``fmamm.cli`` exposes all of it on the
command line.
"""

__version__ = "0.1.0"

from fmamm.amm import (
    ConvergenceError,
    InfeasibleTradeError,
    Reserves,
    apply_trade,
    cpamm_average_price,
    effective_price,
    fmamm_price,
    fmamm_supply,
    objective_value,
    pre_fee_price,
)

__all__ = [
    "__version__",
    "ConvergenceError",
    "InfeasibleTradeError",
    "Reserves",
    "apply_trade",
    "cpamm_average_price",
    "effective_price",
    "fmamm_price",
    "fmamm_supply",
    "objective_value",
    "pre_fee_price",
]
