"""Simulation library for a batch-settled function-maximizing AMM (FM-AMM).

Modules cover the pool math (:mod:`fmamm.amm`), uniform-price batch
settlement (:mod:`fmamm.batch`), the competitive arbitrage response and
operator attack bounds (:mod:`fmamm.arbitrage`), price-series handling and
synthetic paths (:mod:`fmamm.market_data`), a full-range Uniswap-v3-style
LP baseline (:mod:`fmamm.uniswap`), and block-level return backtests and
sweeps (:mod:`fmamm.backtest`).  ``fmamm.cli`` exposes all of it on the
command line.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
