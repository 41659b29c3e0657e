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

The module also provides the fee and noise-volume sweeps over a shared
price path, and a paired Monte Carlo measuring how the pool's maximized
objective responds to a mean-preserving spread of the settlement price (the
value function is flat inside the no-trade band and convex outside it, so
spreads can only help).

Runs are deterministic given config and seeds; scenario configs load from
JSON (see :class:`ScenarioConfig`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
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
from fmamm.arbitrage import _PIN_RTOL
from fmamm.market_data import (
    LpReturnSeries,
    PriceSeries,
    format_number,
    format_numbers,
    mean_preserving_spread,
    sample_at,
)

__all__ = [
    "BlockClock",
    "NoiseScenario",
    "NO_NOISE",
    "TRADE_LOG_DTYPE",
    "BacktestResult",
    "ReturnComparison",
    "RiskMonteCarloResult",
    "ScenarioConfig",
    "DEFAULT_FEE_GRID",
    "MAX_BLOCKS",
    "balanced_reserves",
    "run_fmamm_backtest",
    "compare_returns",
    "fee_sweep",
    "noise_volume_sweep",
    "value_function",
    "risk_monte_carlo",
]

DEFAULT_FEE_GRID = (0.0, 0.0005, 0.003, 0.01)

# Far above the paper's scale (about 1.3M 12-second blocks per pool); a
# clock with more blocks comes from a mistyped ``mu``, and its settlement
# grid alone would take gigabytes.
MAX_BLOCKS = 10**8

NOISE_MODES = ("none", "fraction_of_baseline_volume")
NOISE_DIRECTIONS = ("balanced", "random_sign")


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

    ``fraction_of_baseline_volume`` scales a caller-supplied per-block
    volume series; ``balanced`` splits it into an equal buy and sell (net
    zero, the conservative reading), ``random_sign`` puts the whole volume
    on one seeded random side.
    """

    mode: str = "none"
    fraction: float = 0.0
    direction: str = "balanced"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}, got {self.mode!r}")
        if self.direction not in NOISE_DIRECTIONS:
            raise ValueError(f"direction must be one of {NOISE_DIRECTIONS}, got {self.direction!r}")
        if self.fraction < 0.0:
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
    series: LpReturnSeries
    trades: np.recarray
    summary: dict

    @property
    def terminal_roi(self) -> float:
        return self.series.terminal_roi

    @property
    def n_rebalances(self) -> int:
        return int(np.count_nonzero(self.trades.rebalanced))


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

    Per block: sample the external price, net the scenario's noise orders,
    add the arbitrageurs' equilibrium order, settle the batch at its uniform
    pre-fee price, and mark the reserves at the external price.  ``initial``
    defaults to value-balanced reserves of one asset unit at the first price
    (the fixed point of the zero-fee strategy, so the run starts neutral).

    The loop works on plain floats with the closed forms of
    :func:`fmamm.arbitrage.optimal_rebalance` and
    :func:`fmamm.batch.settle_batch`, in the same order of operations and
    exact summation, so it matches that composition block by block (bit for
    bit without noise).  The trade log comes back as columns of
    :data:`TRADE_LOG_DTYPE`; the summary counts buy-side and sell-side
    rebalances and sign-mixing blocks (where the arbitrageurs' order leaves
    the batch netting to the noise's side).

    Errors abort the whole run.  A fee outside ``[0, 1)``, a non-finite
    noise volume, and arithmetic that overflows or divides by zero raise
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
    times = clock.settlement_times()
    n = times.size
    p_stars = sample_at(prices, times - clock.gamma)
    p0 = float(sample_at(prices, [clock.start])[0])
    if initial is None:
        initial = balanced_reserves(p0)

    if noise.mode == "fraction_of_baseline_volume":
        if baseline_volume is None:
            raise ValueError("noise scenario needs a per-block baseline_volume series")
        volume = np.asarray(baseline_volume, dtype=np.float64)
        if volume.shape != (n,):
            raise ValueError(
                f"baseline volume series misaligned: {volume.size} entries for {n} blocks"
            )
        volumes = noise.fraction * volume
    else:
        volumes = np.zeros(n)
    # a non-positive volume sends no noise; NaN and +inf cannot be filled
    if not (volumes < math.inf).all():
        raise ValueError("noise volumes must be finite")
    # per block: noise net, and the noise buy (>= 0) and sell (<= 0) orders
    if noise.direction == "random_sign":
        signs = np.random.default_rng(noise.seed).integers(0, 2, size=n) * 2 - 1
        noise_net = np.where(volumes > 0.0, signs * volumes, 0.0)
        buys = np.maximum(noise_net, 0.0)
        sells = np.minimum(noise_net, 0.0)
    else:
        noise_net = np.zeros(n)
        buys = np.where(volumes > 0.0, 0.5 * volumes, 0.0)
        sells = -buys

    keep = 1.0 - tau
    fsum, isclose = math.fsum, math.isclose
    y, x = initial.y, initial.x
    log: list[float] = []  # per block: arb trade, y and x after, fee legs
    record = log.extend
    n_buy = n_sell = n_mixing = 0
    try:
        # a: noise net trade; b, s: noise buy and sell orders (0.0 when absent)
        for block, (t, p, a, b, s) in enumerate(zip(
            times.tolist(), p_stars.tolist(), noise_net.tolist(), buys.tolist(), sells.tolist()
        ), start=1):
            # no-trade band around the pre-fee price of the noise alone; a
            # net-selling batch routes only (1-tau) of its volume to the pool
            if a == 0.0:
                base = y / x
            else:
                d = x - 2.0 * (a if a > 0.0 else a * keep)
                if d <= POLE_MARGIN * x:
                    raise _pole_error(block, t, a, x)
                base = y / d
            if p > base / keep:
                # arbitrageurs buy; the rescaled root when the batch still net-sells
                net = 0.5 * (x - y / (keep * p))
                mixing = net < 0.0
                if mixing:
                    net /= keep
                trade = net - a
            elif p < keep * base:
                # arbitrageurs sell; the rescaled root when the batch still net-buys
                net = 0.5 * (x / keep - y / p)
                mixing = net > 0.0
                if mixing:
                    net *= keep
                trade = net - a
            else:
                trade = 0.0

            if trade == 0.0:
                if not (b or s):
                    record((0.0, y, x, 0.0, 0.0))
                    continue
                flow = a
                arb_flow = fee_n = fee_a = 0.0
            else:
                d = x - 2.0 * (net if net > 0.0 else net * keep)
                if d <= POLE_MARGIN * x:
                    raise _pole_error(block, t, net, x)
                base = y / d
                pinned = base / keep if trade > 0.0 else keep * base
                if not isclose(pinned, p, rel_tol=_PIN_RTOL):
                    raise ConvergenceError(
                        f"{_where(block, t)}: rebalance left effective price {pinned} "
                        f"!= target {p}"
                    )
                n_mixing += mixing
                # the batch's net trade against the pool: noise plus arbitrage,
                # which with noise can round away from net and is priced anew
                flow = a + trade
                if flow != net:
                    d = x - 2.0 * (flow if flow > 0.0 else flow * keep)
                    if d <= POLE_MARGIN * x:
                        raise _pole_error(block, t, flow, x)
                    base = y / d
                if trade > 0.0:
                    n_buy += 1
                    arb_flow = trade * (base / keep)
                    fee_n = trade * base * tau / keep
                    fee_a = 0.0
                else:
                    n_sell += 1
                    arb_flow = trade * (keep * base)
                    fee_n = 0.0
                    fee_a = tau * -trade
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
    except (ArithmeticError, ValueError, ConvergenceError) as exc:
        # an earlier block's bad reserves are the first error, as if checked per block
        done = np.array(log, dtype=np.float64).reshape(-1, 5)
        _check_reserve_columns(done[:, 1], done[:, 2], times)
        if isinstance(exc, ArithmeticError):
            raise ValueError(f"{_where(block, t)}: {exc} at reserves y={y!r}, x={x!r}") from exc
        raise

    columns = np.array(log, dtype=np.float64).reshape(n, 5)
    arb_trade, y_after, x_after, fee_n_col, fee_a_col = columns.T
    _check_reserve_columns(y_after, x_after, times)
    trades = np.recarray(n, dtype=TRADE_LOG_DTYPE)
    trades.block = np.arange(1, n + 1)
    trades.time = times
    trades.p_star = p_stars
    trades.noise_net = noise_net
    trades.arb_trade = arb_trade
    trades.net_trade = noise_net + arb_trade
    trades.rebalanced = arb_trade != 0.0
    trades.y_before = np.concatenate(([initial.y], y_after[:-1]))
    trades.x_before = np.concatenate(([initial.x], x_after[:-1]))
    trades.y_after = y_after
    trades.x_after = x_after
    trades.fee_numeraire = fee_n_col
    trades.fee_asset = fee_a_col

    out_times = np.concatenate(([clock.start], times))
    out_values = np.concatenate(([initial.value_at(p0)], y_after + p_stars * x_after))
    series = LpReturnSeries.from_values("fm_amm", out_times, out_values)
    summary = {
        "venue": "fm_amm",
        "tau": tau,
        "noise_mode": noise.mode,
        "noise_fraction": noise.fraction,
        "noise_direction": noise.direction,
        "seed": noise.seed,
        "n_blocks": n,
        "n_rebalances": int(np.count_nonzero(trades.rebalanced)),
        "n_buy_rebalances": n_buy,
        "n_sell_rebalances": n_sell,
        "n_sign_mixing": n_mixing,
        "initial_value": float(out_values[0]),
        "terminal_value": float(out_values[-1]),
        "terminal_roi": float(series.roi[-1]),
        "fee_numeraire_total": math.fsum(fee_n_col),
        "fee_asset_total": math.fsum(fee_a_col),
    }
    return BacktestResult(series, trades, summary)


@dataclass(frozen=True)
class ReturnComparison:
    """Pointwise ROI difference between two venues on common timestamps."""

    venue_a: str
    venue_b: str
    timestamps: np.ndarray
    roi_difference: np.ndarray

    @property
    def terminal_difference_pp(self) -> float:
        """Terminal ROI gap in percentage points (a minus b)."""
        return float(100.0 * self.roi_difference[-1])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("timestamp,roi_difference\r\n")
            fh.writelines(map("{},{}\r\n".format, format_numbers(self.timestamps),
                              map(repr, self.roi_difference.tolist())))


def compare_returns(a: LpReturnSeries, b: LpReturnSeries) -> ReturnComparison:
    """ROI difference a minus b on the timestamp intersection."""
    common, ia, ib = np.intersect1d(a.timestamps, b.timestamps, return_indices=True)
    if common.size == 0:
        raise ValueError(f"{a.venue} and {b.venue} share no timestamps")
    return ReturnComparison(a.venue, b.venue, common, a.roi[ia] - b.roi[ib])


def fee_sweep(
    prices: PriceSeries,
    clock: BlockClock,
    fees: Sequence[float] = DEFAULT_FEE_GRID,
    initial: Reserves | None = None,
) -> dict[float, BacktestResult]:
    """One zero-noise backtest per fee, on the same path and start state."""
    return {tau: run_fmamm_backtest(prices, clock, tau, NO_NOISE, initial) for tau in fees}


def noise_volume_sweep(
    prices: PriceSeries,
    clock: BlockClock,
    tau: float,
    fractions: Sequence[float],
    baseline_volume: Sequence[float],
    initial: Reserves | None = None,
    direction: str = "balanced",
    seed: int = 0,
) -> dict[float, BacktestResult]:
    """One backtest per noise fraction of the baseline per-block volume.

    A zero fraction is always included so callers can report each entry's
    gap to the zero-noise floor.
    """
    fracs = list(fractions)
    if 0.0 not in fracs:
        fracs.insert(0, 0.0)
    out: dict[float, BacktestResult] = {}
    for fraction in fracs:
        scenario = NoiseScenario("fraction_of_baseline_volume", fraction, direction, seed)
        out[fraction] = run_fmamm_backtest(prices, clock, tau, scenario, initial, baseline_volume)
    return out


def value_function(prices, reserves: Reserves, tau: float) -> np.ndarray:
    """Maximized trade objective at each settlement price (vectorized).

    Inside the no-trade band the pool keeps ``x*y/(1-tau)``; outside it the
    optimal buy/sell trade applies, and :func:`fmamm.amm.objective_value`
    evaluates either.  Piecewise linear-over-quadratic in the price and
    convex, strictly so wherever a trade happens.
    """
    p = np.asarray(prices, dtype=np.float64)
    keep = 1.0 - tau
    y, x = reserves.y, reserves.x
    # invalid prices yield junk trades here; objective_value rejects them
    with np.errstate(divide="ignore", invalid="ignore"):
        x_buy = 0.5 * (x - y / (keep * p))
        x_sell = 0.5 * (x / keep - y / p)
    trade = np.where(p > y / (keep * x), x_buy, np.where(p < keep * y / x, x_sell, 0.0))
    return objective_value(trade, p, tau, reserves)


@dataclass(frozen=True)
class RiskMonteCarloResult:
    mean_value_base: float
    mean_value_spread: float
    difference: float
    paired_se: float
    z_score: float
    n_draws: int


def risk_monte_carlo(
    base_draws,
    epsilon_sd: float,
    reserves: Reserves,
    tau: float,
    n_draws: int = 100_000,
    seed: int = 0,
) -> RiskMonteCarloResult:
    """Paired Monte Carlo of the value function under a mean-preserving spread.

    Draws settlement prices from the supplied base sample (resampling with
    replacement if sizes differ), perturbs each with exact conditional-mean-
    zero noise, and compares the pool's maximized objective under the two.
    The paired difference is non-negative draw by draw; it is zero whenever
    both prices fall inside the no-trade band.
    """
    base = np.asarray(base_draws, dtype=np.float64)
    if base.size == 0:
        raise ValueError("base_draws must be non-empty")
    rng = np.random.default_rng(seed)
    draws = base if base.size == n_draws else rng.choice(base, size=n_draws, replace=True)
    spread = mean_preserving_spread(draws, epsilon_sd, rng)
    v_base = value_function(draws, reserves, tau)
    v_spread = value_function(spread, reserves, tau)
    diffs = v_spread - v_base
    difference = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(diffs.size)) if diffs.size > 1 else 0.0
    if se > 0.0:
        z = difference / se
    else:
        z = 0.0 if difference == 0.0 else math.inf
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
    """Backtest scenario loaded from JSON; unknown keys and values of the
    wrong type are rejected.

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
        return cls(**{key: _config_value(path, key, value) for key, value in raw.items()})
