"""Block-level LP-return backtests of the batch-settled pool.

Every ``mu`` seconds a block settles one batch: noise orders per the chosen
scenario plus the competitive arbitrageurs' response to the external price
sampled ``gamma`` seconds before settlement.  Reserves evolve through the
batch engine and the LP portfolio is marked each block at the external
price, so the resulting series is directly comparable with an external
benchmark such as the full-range baseline in :mod:`fmamm.uniswap`.

Zero-noise runs are the revenue floor: noise adds fee income and nothing
else, so any balanced-noise scenario ends at or above the zero-noise return
on the same price path.

The module also provides a paired Monte Carlo measuring how the pool's
maximized objective responds to a mean-preserving spread of the settlement
price (the value function is flat inside the no-trade band and convex
outside it, so spreads can only help).

Runs are deterministic given config and seeds; scenario configs load from
JSON (see :class:`ScenarioConfig`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from fmamm.amm import (
    ConvergenceError,
    InfeasibleTradeError,
    POLE_MARGIN,
    Reserves,
    _check_fee,
    objective_value,
)
from fmamm.arbitrage import _PIN_RTOL, arbitrage_order
from fmamm.market_data import (
    LpReturnSeries,
    PriceSeries,
    format_number,
    mean_preserving_spread,
    sample_at,
)
from fmamm.uniswap import COMPOUND_CADENCES

__all__ = [
    "BlockClock",
    "NoiseScenario",
    "NO_NOISE",
    "TRADE_LOG_DTYPE",
    "BacktestResult",
    "RiskMonteCarloResult",
    "ScenarioConfig",
    "DEFAULT_FEE_GRID",
    "MAX_BLOCKS",
    "balanced_reserves",
    "run_fmamm_backtest",
    "value_function",
    "risk_monte_carlo",
]

DEFAULT_FEE_GRID = (0.0, 0.0005, 0.003, 0.01)

# Far above the paper's scale (about 1.3M 12-second blocks per pool); a
# clock with more blocks comes from a mistyped ``mu``, and its settlement
# grid alone would take gigabytes.
MAX_BLOCKS = 10**8

NOISE_DIRECTIONS = ("balanced", "random_sign")

# blocks per pass of the kernel loop: bounds the Python floats alive at once
_CHUNK = 1 << 12


@dataclass(frozen=True)
class BlockClock:
    """Block cadence: settlement every ``mu`` seconds from ``start``,
    prices observed ``gamma`` seconds before each settlement."""

    mu: float = 12.0
    gamma: float = 0.0
    start: float = 0.0
    end: float = 0.0

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 0.0 <= self.gamma < self.mu:
            raise ValueError(f"need 0 <= gamma < mu, got gamma={self.gamma}, mu={self.mu}")
        if self.end < self.start:
            raise ValueError(f"end {self.end} before start {self.start}")
        count = (self.end - self.start) // self.mu
        if count > MAX_BLOCKS:
            raise ValueError(
                f"mu={self.mu!r} gives {format_number(count)} blocks over "
                f"[{format_number(self.start)}, {format_number(self.end)}], "
                f"more than MAX_BLOCKS={MAX_BLOCKS}"
            )

    @property
    def n_blocks(self) -> int:
        return int((self.end - self.start) // self.mu)

    def settlement_times(self) -> np.ndarray:
        return self.start + self.mu * np.arange(1, self.n_blocks + 1)

    @classmethod
    def for_series(cls, series: PriceSeries, mu: float = 12.0, gamma: float = 0.0) -> "BlockClock":
        return cls(mu=mu, gamma=gamma, start=series.start, end=series.end)


@dataclass(frozen=True)
class NoiseScenario:
    """How much noise flow each block receives and how it is signed.

    Each block's noise volume is ``fraction`` of the caller-supplied
    per-block baseline volume (zero without one); ``balanced`` splits it
    into an equal buy and sell (net zero, the conservative reading),
    ``random_sign`` puts the whole volume on one seeded random side.
    """

    fraction: float = 0.0
    direction: str = "balanced"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.direction not in NOISE_DIRECTIONS:
            raise ValueError(f"direction must be one of {NOISE_DIRECTIONS}, got {self.direction!r}")
        if not self.fraction >= 0.0:
            raise ValueError(f"fraction must be non-negative, got {self.fraction}")


NO_NOISE = NoiseScenario()


# One row per block of the backtest log; ``BacktestResult.trades`` holds
# them as columns (``trades.p_star``), and ``trades[i]`` reads one block.
TRADE_LOG_DTYPE = np.dtype([
    ("block", np.int64),
    ("time", np.float64),
    ("p_star", np.float64),
    ("noise_net", np.float64),
    ("arb_trade", np.float64),
    ("net_trade", np.float64),
    ("rebalanced", np.bool_),
    ("y_before", np.float64),
    ("x_before", np.float64),
    ("y_after", np.float64),
    ("x_after", np.float64),
    ("fee_numeraire", np.float64),
    ("fee_asset", np.float64),
])


@dataclass(frozen=True)
class BacktestResult:
    """A run's marked series and summary, and its trade log as the kernel's
    columns: ``columns`` holds per block the arbitrage trade, the reserves
    ``y`` and ``x`` after settlement and the two fee legs; ``marks`` the
    external price at the start and at each settlement (the block grid the
    run is marked on); ``p_stars`` and ``noise_net`` per block the sampled
    price and the noise's net order; ``initial`` the reserves before block 1."""

    series: LpReturnSeries
    summary: dict
    columns: np.ndarray
    marks: PriceSeries
    p_stars: np.ndarray
    noise_net: np.ndarray
    initial: Reserves

    @property
    def terminal_roi(self) -> float:
        return self.series.terminal_roi

    @property
    def n_rebalances(self) -> int:
        return self.summary["n_rebalances"]

    @cached_property
    def trades(self) -> np.recarray:
        """The trade log as :data:`TRADE_LOG_DTYPE` records, built on first access."""
        arb_trade, y_after, x_after, fee_n, fee_a = self.columns.T
        y_before = np.concatenate(([self.initial.y], y_after[:-1]))
        x_before = np.concatenate(([self.initial.x], x_after[:-1]))
        return np.rec.fromarrays(
            (np.arange(1, self.p_stars.size + 1), self.marks.timestamps[1:], self.p_stars,
             self.noise_net, arb_trade, self.noise_net + arb_trade, arb_trade != 0.0,
             y_before, x_before, y_after, x_after, fee_n, fee_a),
            dtype=TRADE_LOG_DTYPE,
        )


def balanced_reserves(price: float, asset_depth: float = 1.0) -> Reserves:
    """Reserves whose two sides hold equal value at the given price."""
    if not (price > 0.0 and asset_depth > 0.0):
        raise ValueError("price and asset_depth must be positive")
    return Reserves(price * asset_depth, asset_depth)


def block_grid_series(series: PriceSeries, clock: BlockClock) -> PriceSeries:
    """The price series resampled onto the clock's block boundaries.

    Dense (e.g. per-second) series can be marked per block this way, which
    also makes their timestamps intersect a backtest's series exactly.
    """
    times = np.concatenate(([clock.start], clock.settlement_times()))
    return PriceSeries(series.pair, times, sample_at(series, times))


def _where(block: int, t: float) -> str:
    return f"block {block} (t={format_number(t)})"


def _pole_error(block: int, t: float, net: float, x: float) -> InfeasibleTradeError:
    return InfeasibleTradeError(
        f"{_where(block, t)}: net trade {net!r} is at or beyond the price pole "
        f"x/2 = {x / 2.0!r}"
    )


def _check_reserve_columns(y: np.ndarray, x: np.ndarray, times: np.ndarray) -> None:
    """Reject the first block whose post-settlement reserves are not finite
    and non-negative (the condition :class:`Reserves` enforces)."""
    bad = ~((y >= 0.0) & (y < math.inf) & (x >= 0.0) & (x < math.inf))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"{_where(k + 1, times[k])}: reserves must be finite and non-negative, "
            f"got y={float(y[k])!r}, x={float(x[k])!r}"
        )


def run_fmamm_backtest(
    prices: PriceSeries,
    clock: BlockClock,
    tau: float,
    noise: NoiseScenario = NO_NOISE,
    initial: Reserves | None = None,
    baseline_volume: Sequence[float] | None = None,
) -> BacktestResult:
    """Drive the pool over the price path, one batch per block.

    Per block: sample the external price ``gamma`` seconds before settlement,
    net the scenario's noise orders (``noise.fraction`` of ``baseline_volume``,
    none without it), add the arbitrageurs' equilibrium order, settle the batch
    at its uniform pre-fee price, and mark the reserves at the external price
    at settlement, as the baseline is marked.  ``initial``
    defaults to value-balanced reserves of one asset unit at the first price
    (the fixed point of the zero-fee strategy, so the run starts neutral).

    The loop works on plain floats.  Its arbitrage order inlines
    :func:`fmamm.arbitrage.arbitrage_order` bit for bit, and it settles with
    the closed forms, operation order and exact summation of
    :func:`fmamm.batch.settle_batch`, so it matches their per-block
    composition (bit for bit without noise).  A rebalancing batch is priced
    once, at its net trade (noise plus arbitrage), and the arbitrageurs' pin
    is checked at that settled price.  The loop walks the blocks in chunks,
    so only one chunk's Python floats are alive at a time.  The summary's
    counts of buy-side and sell-side rebalances and sign-mixing blocks
    (where the arbitrageurs' order leaves the batch netting to the noise's
    side) are read off the log's columns; :attr:`BacktestResult.trades`
    builds the :data:`TRADE_LOG_DTYPE` records from them when first read.

    The block grid (:func:`block_grid_series`) is sampled once, for the
    start price and the marks; a nonzero ``gamma`` samples the trade prices
    once more.

    Errors abort the whole run.  A fee outside ``[0, 1)``, a positive noise
    fraction without a ``baseline_volume``, a non-finite noise volume, and
    arithmetic that overflows or divides by zero raise
    ``ValueError``; every sampled price is one of ``prices``, which
    :class:`PriceSeries` holds finite and positive.  A batch whose
    net trade reaches the price pole (noise buying half the asset reserve or
    more) raises :class:`InfeasibleTradeError` naming the block and its
    settlement time.  A rebalance that misses the external price it pins
    raises :class:`ConvergenceError`.  Reserves that stop being finite and
    non-negative raise ``ValueError`` naming the first such block.  On the
    command line these are exit code 2, except 3 for the pin.
    """
    _check_fee(tau)
    marks = block_grid_series(prices, clock)
    times = marks.timestamps[1:]
    n = times.size
    p_stars = sample_at(prices, times - clock.gamma) if clock.gamma else marks.prices[1:]
    p0 = float(marks.prices[0])
    if initial is None:
        initial = balanced_reserves(p0)

    if baseline_volume is not None:
        volume = np.asarray(baseline_volume, dtype=np.float64)
        if volume.shape != (n,):
            raise ValueError(
                f"baseline volume series misaligned: {volume.size} entries for {n} blocks"
            )
        volumes = noise.fraction * volume
    elif noise.fraction > 0.0:
        raise ValueError(f"noise fraction {noise.fraction!r} needs a per-block "
                         "baseline_volume series")
    else:
        volumes = np.zeros(n)
    # a non-positive volume sends no noise; NaN and +inf cannot be filled
    if not (volumes < math.inf).all():
        raise ValueError("noise volumes must be finite")
    # per block: the noise buy (>= 0) and sell (<= 0) orders
    if noise.direction == "random_sign":
        signs = np.random.default_rng(noise.seed).integers(0, 2, size=n) * 2 - 1
        signed = np.where(volumes > 0.0, signs * volumes, 0.0)
        buys, sells = np.maximum(signed, 0.0), np.minimum(signed, 0.0)
    else:
        buys = np.where(volumes > 0.0, 0.5 * volumes, 0.0)
        sells = -buys

    keep = 1.0 - tau
    fsum, isclose = math.fsum, math.isclose
    y, x = initial.y, initial.x
    # per block: arb trade, y and x after, fee legs; each chunk's Python
    # floats land in ``flat`` (the rows of ``columns``) at the chunk's end
    columns = np.empty((n, 5))
    flat = columns.reshape(-1)
    lo, log = 0, []
    try:
        for lo in range(0, n, _CHUNK):
            hi = lo + _CHUNK
            log = []
            record = log.extend
            # b, s: noise buy and sell orders (0.0 when absent); a: their net,
            # exact because balanced legs cancel and a random sign leaves one at 0
            for block, (t, p, b, s) in enumerate(zip(
                times[lo:hi].tolist(), p_stars[lo:hi].tolist(),
                buys[lo:hi].tolist(), sells[lo:hi].tolist(),
            ), start=lo + 1):
                a = b + s
                # no-trade band around the pre-fee price of the noise alone; a
                # net-selling batch routes only (1-tau) of its volume to the pool
                if a == 0.0:
                    base = y / x
                else:
                    d = x - 2.0 * (a if a > 0.0 else a * keep)
                    if d <= POLE_MARGIN * x:
                        raise _pole_error(block, t, a, x)
                    base = y / d
                # fmamm.arbitrage.arbitrage_order inlined, operation for operation:
                # the same-sign root, rescaled on sign mixing; an order rounded to
                # the wrong side of zero is the band-edge tie
                if p > base / keep:
                    net = 0.5 * (x - y / (keep * p))
                    trade = (net if net >= 0.0 else net / keep) - a
                    if trade < 0.0:
                        trade = 0.0
                elif p < keep * base:
                    net = 0.5 * (x / keep - y / p)
                    trade = (net * keep if net > 0.0 else net) - a
                    if trade > 0.0:
                        trade = 0.0
                else:
                    trade = 0.0

                if trade == 0.0:
                    if not (b or s):
                        record((0.0, y, x, 0.0, 0.0))
                        continue
                    flow = a
                    arb_flow = fee_n = fee_a = 0.0
                else:
                    # the batch's net trade against the pool, priced once; the
                    # arbitrageurs' effective price there must be the one they pin
                    flow = a + trade
                    d = x - 2.0 * (flow if flow > 0.0 else flow * keep)
                    if d <= POLE_MARGIN * x:
                        raise _pole_error(block, t, flow, x)
                    base = y / d
                    pinned = base / keep if trade > 0.0 else keep * base
                    if not isclose(pinned, p, rel_tol=_PIN_RTOL):
                        raise ConvergenceError(
                            f"{_where(block, t)}: rebalance left effective price {pinned} "
                            f"!= target {p}"
                        )
                    arb_flow = trade * pinned
                    fee_n = trade * base * tau / keep if trade > 0.0 else 0.0
                    fee_a = 0.0 if trade > 0.0 else tau * -trade
                # every order fills at the uniform price: buyers pay base/(1-tau)
                # and fund the fee in numeraire, sellers get (1-tau)*base and pay
                # it in asset; all of it stays in the pool
                if b or s:
                    y += fsum((b * (base / keep), s * (keep * base), arb_flow))
                    fee_n += b * base * tau / keep
                    fee_a += tau * -s
                else:
                    y += arb_flow
                x -= flow
                record((trade, y, x, fee_n, fee_a))
            flat[5 * lo : 5 * lo + len(log)] = log
    except ArithmeticError as exc:
        raise ValueError(f"{_where(block, t)}: {exc} at reserves y={y!r}, x={x!r}") from exc
    finally:
        # the failing chunk's settled blocks too (after a full run this
        # rewrites the last chunk's rows unchanged); then every settled
        # block's reserves, so an earlier bad block wins over a later error
        settled = lo + len(log) // 5
        flat[5 * lo : 5 * settled] = log
        _check_reserve_columns(columns[:settled, 1], columns[:settled, 2], times)

    arb_trade, y_after, x_after, fee_n_col, fee_a_col = columns.T
    noise_net = buys + sells
    # sign mixing: the arbitrageurs' order leaves the batch netting to the noise's side
    net_trade = noise_net + arb_trade
    buy, sell = arb_trade > 0.0, arb_trade < 0.0
    mixing = buy & (net_trade < 0.0) | sell & (net_trade > 0.0)

    # marked at the settlement-time price, as the baseline is, whatever the latency
    out_values = np.concatenate(([initial.value_at(p0)], y_after + marks.prices[1:] * x_after))
    series = LpReturnSeries.from_values("fm_amm", marks.timestamps, out_values)
    summary = {
        "venue": "fm_amm",
        "tau": tau,
        "noise_fraction": noise.fraction,
        "noise_direction": noise.direction,
        "seed": noise.seed,
        "n_blocks": n,
        "n_rebalances": int(np.count_nonzero(arb_trade)),
        "n_buy_rebalances": int(np.count_nonzero(buy)),
        "n_sell_rebalances": int(np.count_nonzero(sell)),
        "n_sign_mixing": int(np.count_nonzero(mixing)),
        "initial_value": float(out_values[0]),
        "terminal_value": float(out_values[-1]),
        "terminal_roi": float(series.roi[-1]),
        "fee_numeraire_total": math.fsum(fee_n_col),
        "fee_asset_total": math.fsum(fee_a_col),
    }
    return BacktestResult(series, summary, columns, marks, p_stars, noise_net, initial)


def sweep_run_id(prefix: str, value: float) -> str:
    """A sweep run's id: ``fee_0.003`` for fee 0.003, ``noise_0.1`` for
    fraction 0.1, the value in :func:`format_number`'s exact form, so
    distinct values get distinct ids."""
    return f"{prefix}_{format_number(value)}"


def value_function(prices, reserves: Reserves, tau: float) -> np.ndarray:
    """Maximized trade objective at each settlement price (vectorized).

    :func:`fmamm.amm.objective_value` at the arbitrageurs' zero-noise order
    (:func:`fmamm.arbitrage.arbitrage_order`): ``x*y/(1-tau)`` inside the
    no-trade band, and convex in the price, strictly so wherever a trade
    happens.  ``objective_value`` rejects invalid prices.
    """
    p = np.asarray(prices, dtype=np.float64)
    return objective_value(arbitrage_order(reserves.y, reserves.x, 0.0, tau, p), p, tau, reserves)


@dataclass(frozen=True)
class RiskMonteCarloResult:
    mean_value_base: float
    mean_value_spread: float
    difference: float
    paired_se: float
    z_score: float | None  # None when the se is 0 but the difference is not
    n_draws: int


def risk_monte_carlo(
    base_draws,
    epsilon_sd: float,
    reserves: Reserves,
    tau: float,
    seed: int = 0,
) -> RiskMonteCarloResult:
    """Paired Monte Carlo of the value function under a mean-preserving spread.

    Perturbs each base settlement price (one draw each) with exact
    conditional-mean-zero noise, and compares the pool's maximized objective
    under the two.  The paired difference is non-negative draw by draw; it
    is zero whenever both prices fall inside the no-trade band.
    """
    draws = np.asarray(base_draws, dtype=np.float64)
    if draws.size < 2:
        raise ValueError(f"n_draws must be at least 2 for a paired se, got {draws.size}")
    spread = mean_preserving_spread(draws, epsilon_sd, np.random.default_rng(seed))
    v_base = value_function(draws, reserves, tau)
    v_spread = value_function(spread, reserves, tau)
    diffs = v_spread - v_base
    difference = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(diffs.size))
    z = difference / se if se > 0.0 else (0.0 if difference == 0.0 else None)
    return RiskMonteCarloResult(
        mean_value_base=float(v_base.mean()),
        mean_value_spread=float(v_spread.mean()),
        difference=difference,
        paired_se=se,
        z_score=z,
        n_draws=int(diffs.size),
    )


def _is_number(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _config_value(path, key: str, value):
    """A scenario JSON value checked against its field's type."""
    if value is None and key in ("swap_csv", "pool_fee"):
        return value
    if key in ("fee_grid", "noise_fractions"):
        if isinstance(value, list) and all(_is_number(v) for v in value):
            return tuple(float(v) for v in value)
        kind = "list of finite numbers"
    elif key in ("pair", "price_csv", "swap_csv", "noise_direction", "compound_cadence"):
        if isinstance(value, str):
            return value
        kind = "string"
    elif key == "seed":
        if _is_number(value) and isinstance(value, int):
            return value
        kind = "integer"
    elif _is_number(value):
        return value
    else:
        kind = "finite number"
    raise ValueError(f"{path}: config key '{key}' must be a {kind}, got {value!r}")


@dataclass
class ScenarioConfig:
    """Backtest scenario loaded from JSON; unknown keys, values of the wrong
    type and values out of range are rejected.

    ``swap_csv`` plus ``pool_fee`` enable the baseline comparison and the
    fee-implied per-block volume used by noise sweeps.
    """

    pair: str
    price_csv: str
    swap_csv: str | None = None
    pool_fee: float | None = None
    fee: float = 0.003
    fee_grid: tuple[float, ...] = DEFAULT_FEE_GRID
    noise_fractions: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5)
    noise_direction: str = "balanced"
    mu: float = 12.0
    gamma: float = 0.0
    seed: int = 0
    initial_x: float = 1.0
    baseline_liquidity: float = 1.0
    compound_cadence: str = "block"

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        if "pair" not in raw or "price_csv" not in raw:
            raise ValueError(f"{path}: config requires 'pair' and 'price_csv'")
        cfg = cls(**{key: _config_value(path, key, value) for key, value in raw.items()})
        _check_fee(cfg.fee, f"{path}: config key 'fee'")
        for tau in cfg.fee_grid:
            _check_fee(tau, f"{path}: config key 'fee_grid' entry")
        for key, ok, want in (
            ("noise_direction", cfg.noise_direction in NOISE_DIRECTIONS,
             f"one of {NOISE_DIRECTIONS}"),
            ("compound_cadence", cfg.compound_cadence in COMPOUND_CADENCES,
             f"one of {COMPOUND_CADENCES}"),
            ("fee_grid", len(cfg.fee_grid) > 0, "non-empty"),
            ("pool_fee", cfg.pool_fee is None or 0.0 < cfg.pool_fee < 1.0, "null or in (0, 1)"),
            ("noise_fractions", min(cfg.noise_fractions, default=0.0) >= 0.0, "non-negative"),
            ("initial_x", cfg.initial_x > 0.0, "positive"),
            ("baseline_liquidity", cfg.baseline_liquidity > 0.0, "positive"),
        ):
            if not ok:
                raise ValueError(
                    f"{path}: config key '{key}' must be {want}, got {getattr(cfg, key)!r}")
        return cfg
