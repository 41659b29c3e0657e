"""Block-level LP-return backtests of the batch-settled pool.

Every ``mu`` seconds a block settles one batch: noise orders per the chosen
scenario plus the competitive arbitrageurs' response to the external price
sampled ``gamma`` seconds before settlement.  Reserves evolve through the
batch engine and the LP portfolio is marked each block at the external
price, on the marks where the full-range baseline in :mod:`fmamm.uniswap`
is valued, so the two value columns compare mark for mark.

:func:`block_grid_series` is the one sampler: it forward-fills the series
from its last observation at each mark and trade time, and a fill across a
gap longer than :data:`LONG_GAP_SECONDS` is surfaced as a warning, so that
backtests on patchy data are flagged rather than silently smoothed.

Zero-noise runs are the revenue floor: noise adds fee income and nothing
else, so any balanced-noise scenario ends at or above the zero-noise return
on the same price path.

The module also provides a paired Monte Carlo measuring how the pool's
maximized objective responds to a mean-preserving spread of the settlement
price.  The value function is flat inside the no-trade band and convex
outside it, so a spread cannot lower the expected objective; a single draw
can still lose, when it moves a price from off the band toward it.

Runs are deterministic given config and seeds; scenario configs load from
JSON (see :class:`ScenarioConfig`).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Sequence, get_args, get_type_hints

import numpy as np

from fmamm.amm import (
    ConvergenceError,
    InfeasibleTradeError,
    POLE_MARGIN,
    Reserves,
    _check_fee,
    _check_price,
    _check_size,
    _is_integer,
    _is_number,
    objective_value,
)
from fmamm.arbitrage import _PIN_RTOL, arbitrage_order
from fmamm.market_data import (
    PriceSeries,
    _digest,
    cumulative_roi,
    format_number,
    mean_preserving_spread,
)
from fmamm.uniswap import _check_cadence, _check_pool_fee

__all__ = [
    "BlockGrid",
    "NoiseScenario",
    "NO_NOISE",
    "TRADE_LOG_DTYPE",
    "BacktestResult",
    "RiskMonteCarloResult",
    "ScenarioConfig",
    "DEFAULT_FEE_GRID",
    "LONG_GAP_SECONDS",
    "MAX_BLOCKS",
    "balanced_reserves",
    "block_grid_series",
    "run_fmamm_backtest",
    "sweep_run_id",
    "value_function",
    "risk_monte_carlo",
]

DEFAULT_FEE_GRID = (0.0, 0.0005, 0.003, 0.01)

# Far above the paper's scale (about 1.3M 12-second blocks per pool); a
# clock with more blocks comes from a mistyped ``mu``, and its settlement
# grid alone would take gigabytes.
MAX_BLOCKS = 10**8

# a block filled from an observation older than this warns
LONG_GAP_SECONDS = 300.0

NOISE_DIRECTIONS = ("balanced", "random_sign")

# blocks per pass of the kernel loop: bounds the Python floats alive at once
_CHUNK = 1 << 12


def _check_clock(mu: float, gamma: float, mu_name: str = "mu", gamma_name: str = "gamma") -> None:
    if not 0.0 < mu < math.inf:
        raise ValueError(f"{mu_name} must be positive and finite, got {mu!r}")
    if not 0.0 <= gamma < mu:
        raise ValueError(f"{gamma_name} must be in [0, mu) with mu={mu!r}, got {gamma!r}")


def _check_direction(direction: str, name: str = "direction") -> None:
    if direction not in NOISE_DIRECTIONS:
        raise ValueError(f"{name} must be one of {NOISE_DIRECTIONS}, got {direction!r}")


def _check_fraction(fraction: float, name: str = "fraction") -> None:
    if not 0.0 <= fraction < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {fraction!r}")


def _check_seed(seed: int, name: str = "seed") -> None:
    if not _is_integer(seed):
        raise ValueError(f"{name} must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"{name} must be non-negative, got {seed!r}")


@dataclass(frozen=True)
class NoiseScenario:
    """How much noise flow each block receives and how it is signed.

    Each block's noise volume is ``fraction`` of the caller-supplied
    per-block baseline volume (zero without one); ``balanced`` splits it
    into an equal buy and sell (net zero, the conservative reading),
    ``random_sign`` puts the whole volume on one seeded random side.
    ``fraction`` is finite and non-negative, ``seed`` a non-negative integer.
    """

    fraction: float = 0.0
    direction: str = "balanced"
    seed: int = 0

    def __post_init__(self) -> None:
        _check_direction(self.direction)
        _check_fraction(self.fraction)
        _check_seed(self.seed)


NO_NOISE = NoiseScenario()


# One row per block of the backtest log, as the kernel writes it: the noise's net
# order, the arbitrage trade, the reserves after settlement and the two fee legs;
# ``BacktestResult.trades.y_after`` reads a column, ``trades[i]`` block ``i + 1``.
TRADE_LOG_DTYPE = np.dtype([(name, np.float64) for name in (
    "noise_net", "arb_trade", "y_after", "x_after", "fee_numeraire", "fee_asset")])


@dataclass(frozen=True)
class BlockGrid:
    """A path sampled on a block clock: ``marks`` the price at the start and at
    each settlement, ``p_stars`` one finite positive trade price per block."""

    marks: PriceSeries
    p_stars: np.ndarray

    def __post_init__(self) -> None:
        p_stars, n = np.asarray(self.p_stars, np.float64), len(self.marks) - 1
        if p_stars.shape != (n,):
            raise ValueError(f"block grid misaligned: {p_stars.size} trade prices for {n} blocks")
        if not ((p_stars > 0.0) & (p_stars < math.inf)).all():
            raise ValueError("block grid trade prices must be finite and positive")
        object.__setattr__(self, "p_stars", p_stars)


@dataclass(frozen=True)
class BacktestResult:
    """A run's marked values, its summary and its trade log.  ``values`` is
    the read-only LP value at each of the grid's marks
    (``grid.marks.timestamps``); ``trades`` is the :data:`TRADE_LOG_DTYPE`
    array the kernel wrote, one row per block of the grid."""

    values: np.ndarray
    summary: dict
    trades: np.recarray

    @property
    def terminal_roi(self) -> float:
        return self.summary["terminal_roi"]

    @property
    def n_rebalances(self) -> int:
        return self.summary["n_rebalances"]


def balanced_reserves(price: float, asset_depth: float = 1.0) -> Reserves:
    """Reserves whose two sides hold equal value at the given price, with
    ``asset_depth`` a normal float like every size."""
    _check_price(price)
    _check_size(asset_depth, "asset_depth")
    return Reserves(price * asset_depth, asset_depth)


def block_grid_series(series: PriceSeries, mu: float = 12.0, gamma: float = 0.0) -> BlockGrid:
    """The series sampled once onto its block grid, for every scenario on
    this path: a settlement every ``mu`` seconds from the series' start up
    to its end, with prices observed ``gamma`` seconds before each.  Each
    mark and trade price is the last observation at or before its time.  The
    marks at the start and at each settlement are the trade prices too,
    unless ``gamma`` moves those; then one search samples both, so a gap
    warns once, counting each block whose settlement mark or trade price was
    filled across it, and the warning names the line that called this.

    ``mu`` is positive and finite, ``0 <= gamma < mu``, and a grid of more
    than :data:`MAX_BLOCKS` blocks is rejected before anything is allocated.
    So is, naming ``mu``, a clock that float64 rounding breaks: one finer
    than the spacing of the times it steps over puts two marks on one time,
    and rounding can carry the last mark past the series' end or the first
    trade time before its start."""
    _check_clock(mu, gamma)
    start, end = series.start, series.end
    count = (end - start) // mu
    if not count <= MAX_BLOCKS:  # the negated comparison also rejects an infinite span's NaN
        raise ValueError(f"mu={mu!r} gives {format_number(count)} blocks over "
                         f"[{format_number(start)}, {format_number(end)}], "
                         f"more than MAX_BLOCKS={MAX_BLOCKS}")
    times = start + mu * np.arange(int(count) + 1)
    repeated = np.flatnonzero(times[1:] == times[:-1])  # rounded, the times never decrease
    if repeated.size:
        raise ValueError(f"mu={mu!r} is finer than the float64 spacing of the times it steps "
                         f"over: marks {repeated[0]} and {repeated[0] + 1} both fall at "
                         f"{format_number(times[repeated[0]])}")
    sampled = np.concatenate((times, times[1:] - gamma)) if gamma else times
    if sampled.min() < start or sampled.max() > end:
        raise ValueError(f"mu={mu!r} and gamma={gamma!r} round to times "
                         f"[{format_number(sampled.min())}, {format_number(sampled.max())}] "
                         f"outside the series' range [{format_number(start)}, "
                         f"{format_number(end)}]")
    idx = np.searchsorted(series.timestamps, sampled, side="right") - 1
    prices, gaps = series.prices[idx], sampled - series.timestamps[idx]
    # a block is filled across a gap if its settlement mark or its trade price
    # is; the start mark is an observation
    long = gaps > LONG_GAP_SECONDS
    filled = long[1:times.size] | long[times.size:] if gamma else long[1:]
    if filled.any():
        warnings.warn(
            f"{series.pair}: forward-filled {int(filled.sum())} of {filled.size} blocks "
            f"across gaps longer than {LONG_GAP_SECONDS}s (max gap {gaps.max():.0f}s)",
            stacklevel=2,
        )
    marks = PriceSeries(series.pair, times, prices[:times.size])
    # a copy, so the grid keeps no second set of marks alive
    return BlockGrid(marks, prices[times.size:].copy() if gamma else marks.prices[1:])


def _where(times: np.ndarray, i: int) -> str:
    return f"block {i + 1} (t={format_number(times[i])})"


def _pole_error(times: np.ndarray, i: int, net: float, x: float) -> InfeasibleTradeError:
    return InfeasibleTradeError(
        f"{_where(times, i)}: net trade {net!r} is at or beyond the price pole "
        f"x/2 = {x / 2.0!r}"
    )


def _fsum_nonzero(column: np.ndarray) -> float:
    """The exact sum of a column's nonzero entries, fed as floats a chunk at a time."""
    nonzero = column[column != 0.0]
    return math.fsum(chain.from_iterable(map(np.ndarray.tolist, np.split(
        nonzero, range(_CHUNK, nonzero.size, _CHUNK)))))


def run_fmamm_backtest(
    grid: BlockGrid,
    tau: float,
    noise: NoiseScenario = NO_NOISE,
    initial: Reserves | None = None,
    baseline_volume: Sequence[float] | None = None,
) -> BacktestResult:
    """Drive the pool over a block grid, one batch per block.

    Per block: take the grid's trade price, net the scenario's noise orders
    (``noise.fraction`` of ``baseline_volume``, none without it), add the
    arbitrageurs' equilibrium order, settle the batch at its uniform pre-fee
    price, and mark the reserves at the grid's mark, as the baseline is
    marked.  ``initial`` defaults to value-balanced reserves of one asset
    unit at the first mark (the fixed point of the zero-fee strategy, so the
    run starts neutral).  The kernel samples nothing:
    ``block_grid_series(series, mu, gamma)`` samples the grid, once for every
    scenario on a path, so a forward-fill warning on a gapped series names
    the line that called that function.

    The loop works on plain floats.  Its arbitrage order inlines
    :func:`fmamm.arbitrage.arbitrage_order` bit for bit, and it settles with
    the closed forms, operation order and exact summation of
    :func:`fmamm.batch.settle_batch`, so it matches their per-block
    composition (bit for bit without noise).  A rebalancing batch is priced
    once, at its net trade (noise plus arbitrage), and the arbitrageurs' pin
    is checked at that settled price.  The loop walks the blocks in chunks,
    so only one chunk's Python floats are alive at a time.  A block without
    noise inside the no-trade band costs one comparison; only blocks that
    move the pool are logged, with their settled price, and each chunk's
    fee legs are set from those rows.  The summary's counts of buy-side and
    sell-side rebalances and sign-mixing blocks (where the arbitrageurs'
    order leaves the batch netting to the noise's side) are read off the
    log's columns, :attr:`BacktestResult.trades`, returned uncopied.

    Errors abort the whole run.  A fee outside ``[0, 1)``, a positive noise
    fraction without a ``baseline_volume``, a non-finite noise volume, and
    arithmetic that overflows or divides by zero raise
    ``ValueError``; every price of the grid is finite and positive, as
    :class:`BlockGrid` and :class:`PriceSeries` hold it.  A batch whose
    net trade reaches the price pole (noise buying half the asset reserve or
    more) raises :class:`InfeasibleTradeError` naming the block and its
    settlement time.  A rebalance that misses the external price it pins
    raises :class:`ConvergenceError`.  Reserves that stop being finite and
    non-negative raise ``ValueError`` naming the first such block, and a
    marked value that overflows names the first such mark.  On the
    command line these are exit code 2, except 3 for the pin.
    """
    _check_fee(tau)
    marks, p_stars = grid.marks, grid.p_stars
    times, n = marks.timestamps[1:], p_stars.size
    p0 = float(marks.prices[0])
    if initial is None:
        initial = balanced_reserves(p0)

    if baseline_volume is not None:
        volume = np.asarray(baseline_volume, dtype=np.float64)
        if volume.shape != (n,):
            raise ValueError(
                f"baseline volume series misaligned: {volume.size} entries for {n} blocks"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
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
    fsum, isclose, inf, nan = math.fsum, math.isclose, math.inf, math.nan
    y, x = initial.y, initial.x
    # the no-trade band of a block without noise, kept while the reserves stay;
    # a zero x leaves its division, and the error, to the first block's body
    spot = y / x if x else nan
    top, bottom = spot / keep, keep * spot
    # the price each block is screened at: NaN, which fails every comparison,
    # sends a block with noise to the body (inf would pass when top is inf)
    quiet_run = not (buys.any() or sells.any())
    screen = p_stars if quiet_run else np.where((buys != 0.0) | (sells != 0.0), nan, p_stars)
    # the trade log, written through its float view; a block that moves the pool is logged
    # as (index in chunk, arb trade, y and x after, settled price): at the chunk's end y and
    # x are filled forward, and the fee legs set from the trades, noise legs and prices
    trades = np.zeros(n, TRADE_LOG_DTYPE)
    columns = trades.view(np.float64).reshape(n, 6)
    try:
        for lo in range(0, n, _CHUNK):
            hi = lo + _CHUNK
            log, held = [], [(y, x)]
            screened = screen[lo:hi].tolist()
            ps, bs, ss = (screened, [0.0] * _CHUNK, [0.0] * _CHUNK) if quiet_run else (
                p_stars[lo:hi].tolist(), buys[lo:hi].tolist(), sells[lo:hi].tolist())
            for i, p in enumerate(screened):
                if bottom <= p <= top:  # a quiet block: no noise, inside the band
                    continue
                # b, s: noise buy and sell orders (0.0 when absent); a: their net,
                # exact because balanced legs cancel and a random sign leaves one at 0
                p, b, s = ps[i], bs[i], ss[i]
                a = b + s
                # no-trade band around the pre-fee price of the noise alone; a
                # net-selling batch routes only (1-tau) of its volume to the pool
                if a == 0.0:
                    base = y / x
                else:
                    d = x - 2.0 * (a if a > 0.0 else a * keep)
                    if d <= POLE_MARGIN * x:
                        raise _pole_error(times, lo + i, a, x)
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
                        continue  # the tie without noise moves nothing either
                    flow = a
                    arb_flow = 0.0
                else:
                    # the batch's net trade against the pool, priced once; the
                    # arbitrageurs' effective price there must be the one they pin
                    flow = a + trade
                    d = x - 2.0 * (flow if flow > 0.0 else flow * keep)
                    if d <= POLE_MARGIN * x:
                        raise _pole_error(times, lo + i, flow, x)
                    base = y / d
                    pinned = base / keep if trade > 0.0 else keep * base
                    if not isclose(pinned, p, rel_tol=_PIN_RTOL):
                        raise ConvergenceError(f"{_where(times, lo + i)}: rebalance left "
                                               f"effective price {pinned} != target {p}")
                    arb_flow = trade * pinned
                # every order fills at the uniform price: buyers pay base/(1-tau)
                # and fund the fee in numeraire, sellers get (1-tau)*base and pay
                # it in asset; all of it stays in the pool
                if b or s:
                    y += fsum((b * (base / keep), s * (keep * base), arb_flow))
                else:
                    y += arb_flow
                x -= flow
                # the rule Reserves holds; a block that does not trade keeps
                # the reserves checked when they last changed
                if not (0.0 <= y < inf and 0.0 <= x < inf):
                    raise ValueError(f"{_where(times, lo + i)}: reserves must be finite "
                                     f"and non-negative, got y={y!r}, x={x!r}")
                spot = y / x if x else nan
                top, bottom = spot / keep, keep * spot
                log += (i, trade, y, x, base)
            rows = np.empty((len(log) // 5, 5))
            rows.reshape(-1)[:] = log
            at, chunk = rows[:, 0].astype(np.intp), columns[lo:hi, 1:]
            trade, base = rows[:, 1], rows[:, 4]
            chunk[at, 0] = trade
            chunk[:, 1:3] = np.repeat(np.concatenate((held, rows[:, 2:4])),
                                      np.diff(at, prepend=0, append=len(chunk)), axis=0)
            chunk[at, 3] = (np.where(trade > 0.0, trade, 0.0) * base * tau / keep
                            + buys[lo:hi][at] * base * tau / keep)
            chunk[at, 4] = np.where(trade < 0.0, -trade, 0.0) * tau + tau * -sells[lo:hi][at]
    except ArithmeticError as exc:
        raise ValueError(f"{_where(times, lo + i)}: {exc} at reserves y={y!r}, x={x!r}") from exc

    columns[:, 0] = buys + sells
    noise_net, arb_trade, y_after, x_after, fee_n_col, fee_a_col = columns.T
    # sign mixing: the arbitrageurs' order leaves the batch netting to the noise's side
    net_trade = noise_net + arb_trade
    buy, sell = arb_trade > 0.0, arb_trade < 0.0
    mixing = buy & (net_trade < 0.0) | sell & (net_trade > 0.0)

    # marked at the settlement-time price, as the baseline is, whatever the latency
    with np.errstate(over="ignore"):  # a value that overflows is rejected below
        out_values = np.concatenate(([initial.value_at(p0)], y_after + marks.prices[1:] * x_after))
    bad = ~np.isfinite(out_values)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"fm_amm value is not finite at mark {format_number(marks.timestamps[k])} "
                         f"(price {float(marks.prices[k])!r})")
    out_values.setflags(write=False)
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
        "terminal_roi": float(cumulative_roi(out_values, slice(-1, None))[0]),
        "fee_numeraire_total": _fsum_nonzero(fee_n_col),
        "fee_asset_total": _fsum_nonzero(fee_a_col),
    }
    return BacktestResult(out_values, summary, trades.view(np.recarray))


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
    happens.  ``objective_value`` rejects invalid prices, and a value that
    overflows raises ``ValueError`` naming its price and the reserves.
    """
    p = np.asarray(prices, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        value = objective_value(arbitrage_order(reserves.y, reserves.x, 0.0, tau, p), p, tau,
                                reserves)
    bad = ~np.isfinite(value)
    if bad.any():
        raise ValueError(f"value function is not finite at price {float(p[bad][0])!r} "
                         f"with reserves y={reserves.y!r}, x={reserves.x!r}")
    return value


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
    under the two.  The paired difference is non-negative in expectation,
    by the value function's convexity, but not draw by draw: off the
    no-trade band, a move toward it lowers the value.  It is zero whenever
    both prices fall inside the band.  Statistics that overflow raise
    ``ValueError``.
    """
    draws = np.asarray(base_draws, dtype=np.float64)
    if draws.size < 2:
        raise ValueError(f"n_draws must be at least 2 for a paired se, got {draws.size}")
    with np.errstate(over="ignore"):  # value_function rejects an overflow's inf
        spread = mean_preserving_spread(draws, epsilon_sd, np.random.default_rng(seed))
    v_base = value_function(draws, reserves, tau)
    v_spread = value_function(spread, reserves, tau)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = v_spread - v_base
        stats = (float(v_base.mean()), float(v_spread.mean()), float(diffs.mean()),
                 float(diffs.std(ddof=1) / math.sqrt(diffs.size)))
    if not all(map(math.isfinite, stats)):
        raise ValueError(f"Monte Carlo statistics overflow at reserves y={reserves.y!r}, "
                         f"x={reserves.x!r}: {stats}")
    mean_base, mean_spread, difference, se = stats
    z = difference / se if se > 0.0 else (0.0 if difference == 0.0 else None)
    return RiskMonteCarloResult(mean_base, mean_spread, difference, se, z, int(diffs.size))


# how a scenario field's annotated type is read from JSON: the test a value
# passes and what it must be otherwise
_JSON_TYPES = {
    str: (lambda v: isinstance(v, str), "a string"),
    float: (_is_number, "a finite number"),
    int: (_is_integer, "an integer"),
    tuple[float, ...]: (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                        "a list of finite numbers"),
}


def _config_value(path, key: str, value, kind):
    """A scenario JSON value checked against its field's type ``kind``; a
    list becomes a tuple of floats."""
    if type(None) in get_args(kind):  # ``X | None``
        if value is None:
            return value
        kind = get_args(kind)[0]
    ok, what = _JSON_TYPES[kind]
    if not ok(value):
        raise ValueError(f"{path}: config key '{key}' must be {what}, got {value!r}")
    return tuple(map(float, value)) if isinstance(value, list) else value


def _unique_keys(path, pairs) -> dict:
    """A JSON object of the config, rejecting a key given twice (``json``
    would keep the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"{path}: config key '{key}' is given more than once")
        obj[key] = value
    return obj


@dataclass
class ScenarioConfig:
    """Backtest scenario loaded from JSON; unknown or repeated keys and
    values of the wrong type are rejected, and so are values out of range,
    by the checks of the objects that take them.

    ``swap_csv`` plus ``pool_fee`` enable the baseline comparison and the
    fee-implied per-block volume used by noise sweeps.  A relative
    ``price_csv`` or ``swap_csv`` is opened from the working directory, not
    the config's, and kept as given.
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
    def from_json(cls, path, digests=None) -> "ScenarioConfig":
        """The config in the JSON file ``path``.  ``digests``, when given, gets
        the SHA-256 of the bytes parsed under ``str(path)`` (None for a file
        that is not regular)."""
        with open(path) as fh:
            if digests is not None:
                digests[str(path)] = _digest(fh.buffer)
            try:
                raw = json.load(fh, object_pairs_hook=lambda kv: _unique_keys(path, kv))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object, got {type(raw).__name__}")
        kinds = get_type_hints(cls)
        unknown = set(raw) - set(kinds)
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        if "pair" not in raw or "price_csv" not in raw:
            raise ValueError(f"{path}: config requires 'pair' and 'price_csv'")
        cfg = cls(**{key: _config_value(path, key, value, kinds[key]) for key, value in raw.items()})

        def name(key: str) -> str:
            return f"{path}: config key '{key}'"

        _check_fee(cfg.fee, name("fee"))
        for tau in cfg.fee_grid:
            _check_fee(tau, f"{name('fee_grid')} entry")
        if not cfg.fee_grid:
            raise ValueError(f"{name('fee_grid')} must be non-empty, got ()")
        _check_direction(cfg.noise_direction, name("noise_direction"))
        _check_cadence(cfg.compound_cadence, name("compound_cadence"))
        if cfg.pool_fee is not None:
            _check_pool_fee(cfg.pool_fee, name("pool_fee"))
        for fraction in cfg.noise_fractions:
            _check_fraction(fraction, f"{name('noise_fractions')} entry")
        _check_seed(cfg.seed, name("seed"))
        _check_clock(cfg.mu, cfg.gamma, name("mu"), name("gamma"))
        _check_size(cfg.initial_x, name("initial_x"))
        _check_size(cfg.baseline_liquidity, name("baseline_liquidity"))
        return cfg
