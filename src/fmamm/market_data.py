"""Timestamped price and return series: loading, cross rates, and synthesis.

Price CSVs use the schema ``timestamp,price`` (header required) with integer
epoch seconds and strictly increasing timestamps; pairs are labeled
``BASE-QUOTE``.  :class:`PriceSeries` holds the one rule every series meets
(finite timestamps, finite positive prices, strictly increasing), and series
are immutable after construction.

CSV input and output are columnar: a plain file parses in one
``np.loadtxt`` call straight into a :class:`PriceSeries`, and only a file that
parse or the series rejects is re-read row by row, to name its first bad line.
Writers stream one formatted line per row straight from the columns.

Sampling between observations forward-fills from the last point; gaps longer
than :data:`LONG_GAP_SECONDS` are surfaced as a warning so that backtests on
patchy data are flagged rather than silently smoothed.

Synthetic paths come from a driftless log-Euler geometric Brownian motion
(the simplest positive martingale), and :func:`mean_preserving_spread` adds
exactly conditional-mean-zero two-point noise for risk experiments.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PriceDataError",
    "PricePoint",
    "PriceSeries",
    "LpReturnSeries",
    "GbmParams",
    "LONG_GAP_SECONDS",
    "load_price_series",
    "cross_rate",
    "sample_at",
    "sample_gbm_path",
    "mean_preserving_spread",
    "format_number",
    "format_numbers",
]

LONG_GAP_SECONDS = 300.0


class PriceDataError(ValueError):
    """Price input failed validation (schema, ordering, or coverage)."""


class PricePoint(NamedTuple):
    timestamp: float
    price: float


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PriceSeries:
    """External equilibrium prices for one pair: finite positive prices at
    finite, strictly increasing timestamps (:class:`PriceDataError` otherwise)."""

    pair: str
    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        ts = _frozen_array(self.timestamps, np.float64)
        px = _frozen_array(self.prices, np.float64)
        if ts.size == 0:
            raise PriceDataError(f"{self.pair}: empty price series")
        if ts.shape != px.shape:
            raise PriceDataError(f"{self.pair}: {ts.size} timestamps vs {px.size} prices")
        if not np.isfinite(ts).all():
            raise PriceDataError(f"{self.pair}: timestamps must be finite")
        if not (np.diff(ts) > 0).all():
            raise PriceDataError(f"{self.pair}: timestamps must be strictly increasing")
        if not ((px > 0) & (px < math.inf)).all():
            raise PriceDataError(f"{self.pair}: prices must be finite and positive")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __getitem__(self, i: int) -> PricePoint:
        return PricePoint(float(self.timestamps[i]), float(self.prices[i]))

    @property
    def start(self) -> float:
        return float(self.timestamps[0])

    @property
    def end(self) -> float:
        return float(self.timestamps[-1])


@dataclass(frozen=True)
class LpReturnSeries:
    """Per-block portfolio value and cumulative return for one venue."""

    venue: str
    timestamps: np.ndarray
    values: np.ndarray
    roi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", _frozen_array(self.timestamps, np.float64))
        object.__setattr__(self, "values", _frozen_array(self.values, np.float64))
        object.__setattr__(self, "roi", _frozen_array(self.roi, np.float64))
        if not self.timestamps.size == self.values.size == self.roi.size:
            raise ValueError(f"{self.venue}: mismatched series lengths")

    @classmethod
    def from_values(cls, venue, timestamps, values) -> "LpReturnSeries":
        values = np.asarray(values, dtype=np.float64)
        return cls(venue, timestamps, values, values / values[0] - 1.0)

    @property
    def terminal_roi(self) -> float:
        return float(self.roi[-1])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("timestamp,value,cumulative_roi\r\n")
            fh.writelines(map("{},{},{}\r\n".format, format_numbers(self.timestamps),
                              map(repr, self.values.tolist()), map(repr, self.roi.tolist())))


def format_number(x: float) -> str:
    """Shortest exact decimal form; integral values print without a dot."""
    x = float(x)
    return str(int(x)) if x.is_integer() and abs(x) < 2**53 else repr(x)


def format_numbers(values) -> list[str]:
    """:func:`format_number` of each value.

    A column of integral values below 2**53 in magnitude (the usual epoch
    timestamps) converts to integers in one pass.
    """
    values = np.asarray(values, dtype=np.float64)
    if (np.abs(values) < 2**53).all() and (values == np.trunc(values)).all():
        return list(map(str, values.astype(np.int64).tolist()))
    return list(map(format_number, values.tolist()))


def _parse_columns(path, header: tuple[str, ...], dtype: np.dtype) -> np.ndarray | None:
    """Every data row of a plain CSV as one structured array, or None.

    "Plain" means the first line is exactly ``header`` (case and spaces
    aside, extra trailing names allowed) without quotes, and ``np.loadtxt``
    takes every row: no quotes, no missing or extra columns, no
    whitespace-only lines, integers within 64 bits.  None sends the caller
    to its row-by-row reader, which names the first bad line or accepts the
    few spellings Python's ``int``/``float`` take and ``loadtxt`` does not
    (``1_000``, quoted fields, extra columns).  A file with no data rows
    also returns None.
    """
    with open(path, newline="") as fh, warnings.catch_warnings():
        # loadtxt warns on an empty body rather than raising
        warnings.simplefilter("error")
        try:
            first = fh.readline()
            names = [h.strip().lower() for h in first.split(",")[: len(header)]]
            if names != list(header) or '"' in first:
                return None
            rows = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    return rows if rows.size else None


_PRICE_ROW_DTYPE = np.dtype([("t", np.int64), ("p", np.float64)])


def load_price_series(path, pair: str) -> PriceSeries:
    """Load a ``timestamp,price`` CSV, reporting bad rows by line number."""
    rows = _parse_columns(path, ("timestamp", "price"), _PRICE_ROW_DTYPE)
    if rows is not None:
        try:
            return PriceSeries(pair, rows["t"], rows["p"])
        except PriceDataError:
            pass
    return _read_price_rows(path, pair)


def _read_price_rows(path, pair: str) -> PriceSeries:
    """The row-by-row reader behind :func:`load_price_series`."""
    timestamps: list[int] = []
    prices: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["timestamp", "price"]:
            raise PriceDataError(f"{path}:1: expected header 'timestamp,price', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ts = int(row[0])
                price = float(row[1])
            except (IndexError, ValueError) as exc:
                raise PriceDataError(f"{path}:{lineno}: malformed row {row}: {exc}") from exc
            if not math.isfinite(price) or price <= 0.0:
                raise PriceDataError(f"{path}:{lineno}: price must be positive, got {row[1]}")
            if timestamps and ts <= timestamps[-1]:
                raise PriceDataError(
                    f"{path}:{lineno}: timestamp {ts} not after previous {timestamps[-1]}"
                )
            timestamps.append(ts)
            prices.append(price)
    if not timestamps:
        raise PriceDataError(f"{path}: no data rows")
    return PriceSeries(pair, np.array(timestamps, float), np.array(prices, float))


def _cross_label(pair_a: str, pair_b: str) -> str:
    parts_a, parts_b = pair_a.split("-"), pair_b.split("-")
    if len(parts_a) == len(parts_b) == 2 and parts_a[1] == parts_b[1]:
        return f"{parts_a[0]}-{parts_b[0]}"
    return f"{pair_a}/{pair_b}"


def cross_rate(a: PriceSeries, b: PriceSeries) -> PriceSeries:
    """Pointwise a/b on the timestamp intersection.

    Composes e.g. LDO-USDT with ETH-USDT into LDO-ETH (price of a's base in
    units of b's base).
    """
    common, ia, ib = np.intersect1d(a.timestamps, b.timestamps, return_indices=True)
    if common.size == 0:
        raise PriceDataError(f"{a.pair} and {b.pair} have no overlapping timestamps")
    return PriceSeries(_cross_label(a.pair, b.pair), common, a.prices[ia] / b.prices[ib])


def sample_at(series: PriceSeries, times) -> np.ndarray:
    """Forward-filled prices at the requested times.

    Times must lie inside the series' observed range.  Fills across gaps
    longer than :data:`LONG_GAP_SECONDS` trigger a single aggregated warning.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if times.size == 0:
        return np.empty(0)
    if times.min() < series.start or times.max() > series.end:
        raise PriceDataError(
            f"{series.pair}: requested times [{times.min()}, {times.max()}] outside "
            f"observed range [{series.start}, {series.end}]"
        )
    idx = np.searchsorted(series.timestamps, times, side="right") - 1
    gaps = times - series.timestamps[idx]
    long = gaps > LONG_GAP_SECONDS
    if long.any():
        warnings.warn(
            f"{series.pair}: forward-filled {int(long.sum())} of {times.size} samples "
            f"across gaps longer than {LONG_GAP_SECONDS}s (max gap {gaps.max():.0f}s)",
            stacklevel=2,
        )
    return series.prices[idx]


@dataclass(frozen=True)
class GbmParams:
    """Geometric-Brownian-motion path parameters.

    ``volatility`` is per square-root second.  Paths are driftless, which
    makes the discretized path a martingale.
    """

    initial_price: float
    volatility: float
    step_seconds: float = 1.0
    horizon_seconds: float = 3600.0
    seed: int = 0
    start_time: float = 0.0
    pair: str = "GBM"

    def __post_init__(self) -> None:
        if self.initial_price <= 0.0:
            raise ValueError(f"initial price must be positive, got {self.initial_price}")
        if self.volatility < 0.0:
            raise ValueError(f"volatility must be non-negative, got {self.volatility}")
        if self.step_seconds <= 0.0 or self.horizon_seconds < self.step_seconds:
            raise ValueError("need 0 < step_seconds <= horizon_seconds")


def sample_gbm_path(params: GbmParams) -> PriceSeries:
    """One log-Euler GBM path, deterministic for a given seed.

    Each step multiplies the price by ``exp(-vol^2/2 * dt + vol * sqrt(dt) * z)``,
    so the expected future price equals the current price.
    """
    n = int(params.horizon_seconds // params.step_seconds)
    rng = np.random.default_rng(params.seed)
    dt = params.step_seconds
    vol = params.volatility
    increments = -0.5 * vol**2 * dt + vol * math.sqrt(dt) * rng.standard_normal(n)
    log_path = np.concatenate(([0.0], np.cumsum(increments)))
    prices = params.initial_price * np.exp(log_path)
    timestamps = params.start_time + dt * np.arange(n + 1)
    return PriceSeries(params.pair, timestamps, prices)


def mean_preserving_spread(base, epsilon_sd: float, rng=0) -> np.ndarray:
    """Price draws plus symmetric two-point noise with zero conditional mean.

    Each draw moves up or down by ``min(epsilon_sd, draw/2)`` with equal
    probability, which preserves the conditional mean exactly, keeps prices
    positive, and weakly increases variance.  ``rng`` is a seed or a
    ``numpy.random.Generator``.
    """
    base = np.asarray(base, dtype=np.float64)
    if epsilon_sd < 0.0:
        raise ValueError(f"epsilon_sd must be non-negative, got {epsilon_sd}")
    if epsilon_sd == 0.0:
        return base.copy()
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    delta = np.minimum(epsilon_sd, 0.5 * base)
    signs = gen.integers(0, 2, size=base.shape) * 2 - 1
    return base + signs * delta
