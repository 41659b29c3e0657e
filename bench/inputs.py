"""Deterministic synthetic inputs for the benchmark workloads.

Every input comes from the ``--seed`` argument: a driftless GBM price path
(per-second or 12-second rows), synthetic Uniswap-v3 swap records on the
same path, and a scenario JSON.  The same seed, workload and scale give the
same bytes.  Files name each other by relative path, so the scenario is
byte-identical wherever it is written; the CLI runs with the input
directory as its working directory.

Pool depth follows the paper's comparison: the FM-AMM starts with the
baseline pool's asset depth, ``initial_x = L / sqrt(p0)`` for the active
liquidity ``L``.  Swap sizes are capped at 2% of that depth, far inside the
price pole at ``x/2``; a much shallower FM pool makes ``noise-mix`` abort at
the pole (exit 2), a known defect this benchmark does not measure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MU = 12  # block time, seconds (the CLI default)
START = 1_680_307_200  # 2023-04-01T00:00:00Z, start of the paper's study window
P0 = 2000.0
ANNUAL_VOL = 0.8
SECONDS_PER_YEAR = 365 * 86400
POOL_FEE = 0.0005  # fee tier of the baseline pool the swap records come from
ACTIVE_LIQUIDITY = 2.0e5
SIM_SHARE = 1e-3  # simulated baseline position as a share of active liquidity
MEDIAN_SWAP_SHARE = 1e-3  # median swap size as a share of the pool's asset depth
MAX_SWAP_SHARE = 0.02
FIRST_BLOCK = 17_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # fmamm subcommand
    price_step: int  # seconds between price rows
    n_blocks: int
    n_swaps: int = 0
    out_dir: bool = True
    config: dict = field(default_factory=dict)

    @property
    def runs(self) -> list[str]:
        """Run ids of the command's scenarios, in the CLI's order."""
        if self.command == "backtest":
            return ["fm_amm"]
        if self.command == "sweep-fees":
            return [f"fee_{tau:g}" for tau in self.config["fee_grid"]]
        fractions = list(self.config["noise_fractions"])
        if 0.0 not in fractions:
            fractions.insert(0, 0.0)
        return [f"noise_{f:g}" for f in fractions]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "replay-1s",
            "1M per-second prices and 200k swaps: load, baseline replay and output "
            "writing dominate, the block kernel is small",
            "backtest", price_step=1, n_blocks=83_333, n_swaps=200_000,
            config={"fee": 0.003},
        ),
        Workload(
            "fee-grid",
            "4-fee zero-noise sweep on 60k 12-second blocks, no writes: the per-block "
            "rebalance-and-settle kernel dominates",
            "sweep-fees", price_step=MU, n_blocks=60_000, out_dir=False,
            config={"fee_grid": [0.0, 0.0005, 0.003, 0.01]},
        ),
        Workload(
            "noise-mix",
            "random-sign noise sweep on 40k blocks: multi-trader batches, the "
            "sign-mixing root-finder branch and the noise-volume path",
            "sweep-noise", price_step=MU, n_blocks=40_000, n_swaps=20_000,
            config={"fee": 0.003, "noise_fractions": [0.1, 0.3, 1.0],
                    "noise_direction": "random_sign"},
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated scenario plus what the correctness gate needs."""

    directory: Path
    config: str  # relative to ``directory``
    block_prices: np.ndarray  # price at the clock start and at each settlement
    initial_x: float
    n_blocks: int
    swaps: dict | None  # columns of the swap CSV, or None


def scaled(workload: Workload, scale: float) -> Workload:
    """The workload shrunk by ``scale`` (1.0 is the benchmark size)."""
    if scale == 1.0:
        return workload
    return Workload(
        workload.name, workload.why, workload.command, workload.price_step,
        max(20, int(workload.n_blocks * scale)), int(workload.n_swaps * scale),
        workload.out_dir, workload.config,
    )


def generate(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's price CSV, swap CSV and scenario JSON."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    n_blocks = workload.n_blocks
    step = workload.price_step
    n_rows = (n_blocks * MU) // step + 1
    sigma = ANNUAL_VOL * math.sqrt(step / SECONDS_PER_YEAR)
    log_path = np.concatenate(
        ([0.0], np.cumsum(sigma * rng.standard_normal(n_rows - 1) - 0.5 * sigma**2))
    )
    prices = P0 * np.exp(log_path)
    offsets = np.arange(n_rows) * step
    _write_rows(
        directory / "prices.csv", "timestamp,price",
        (f"{START + o},{p!r}" for o, p in zip(offsets.tolist(), prices.tolist())),
    )

    initial_x = ACTIVE_LIQUIDITY / math.sqrt(float(prices[0]))
    config = {"pair": "WETH-USDT", "price_csv": "prices.csv", "initial_x": initial_x,
              "seed": seed, **workload.config}
    swaps = None
    if workload.n_swaps:
        swaps = _swap_columns(rng, workload.n_swaps, n_blocks, prices, step, initial_x)
        _write_rows(
            directory / "swaps.csv",
            "block,timestamp,fee_amount,fee_token,active_liquidity,post_price",
            (
                f"{b},{t},{f!r},{k},{a!r},{p!r}"
                for b, t, f, k, a, p in zip(
                    swaps["block"].tolist(), swaps["timestamp"].tolist(),
                    swaps["fee_amount"].tolist(), swaps["fee_token"],
                    swaps["active_liquidity"].tolist(), swaps["post_price"].tolist(),
                )
            ),
        )
        config.update(swap_csv="swaps.csv", pool_fee=POOL_FEE,
                      baseline_liquidity=SIM_SHARE * ACTIVE_LIQUIDITY)
    (directory / "scenario.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

    block_offsets = np.arange(n_blocks + 1) * MU
    return Inputs(directory, "scenario.json", prices[block_offsets // step], initial_x,
                  n_blocks, swaps)


def _swap_columns(rng, n_swaps, n_blocks, prices, step, depth) -> dict:
    # strictly after the clock start and no later than the last mark, so the
    # baseline replay and the per-block volume use every record
    timestamps = np.sort(rng.integers(1, n_blocks * MU + 1, size=n_swaps))
    post_price = prices[timestamps // step]
    size = np.minimum(depth * MEDIAN_SWAP_SHARE * rng.lognormal(0.0, 1.0, n_swaps),
                      depth * MAX_SWAP_SHARE)
    in_numeraire = rng.integers(0, 2, size=n_swaps).astype(bool)
    return {
        "block": FIRST_BLOCK + timestamps // MU,
        "timestamp": START + timestamps,
        "fee_amount": POOL_FEE * size * np.where(in_numeraire, post_price, 1.0),
        "fee_token": ["token1" if k else "token0" for k in in_numeraire.tolist()],
        "active_liquidity": ACTIVE_LIQUIDITY * np.exp(0.05 * rng.standard_normal(n_swaps)),
        "post_price": post_price,
    }


def _write_rows(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows))
        fh.write("\n")
