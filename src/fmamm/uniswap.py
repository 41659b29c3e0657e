"""Full-range Uniswap-v3-style LP returns replayed from swap event records.

A full-range liquidity position with liquidity ``L`` at price ``p`` (token1
per token0) holds ``L/sqrt(p)`` token0 and ``L*sqrt(p)`` token1, worth
``2*L*sqrt(p)`` in token1 terms.  That identity replaces any tick-level
bookkeeping: fees earned by a simulated position are credited pro rata to
``L_sim / L_active`` per swap and periodically converted into extra
liquidity ``pending_value / (2*sqrt(p))`` at zero cost.

Each swap's fee is shared at its post-swap active liquidity only; intra-swap
tick crossings are ignored.  The position is assumed small enough not to
move anyone's incentives, and the resulting ROI series is invariant to the
initial position size.

Swap records load from CSVs with schema
``block,timestamp,fee_amount,fee_token,active_liquidity,post_price`` where
``fee_token`` is ``token0`` (asset) or ``token1`` (numeraire), into a
columnar swap log (:data:`SWAP_LOG_DTYPE`).  :func:`run_baseline` replays
the log's columns as plain floats, with one rule for swaps outside the price
marks at every compounding cadence.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fmamm.market_data import LpReturnSeries, PriceSeries, _parse_columns, sample_at

__all__ = [
    "SWAP_LOG_DTYPE",
    "SwapRecord",
    "run_baseline",
    "as_swap_log",
    "load_swap_records",
    "per_block_swap_volume",
]

FEE_TOKENS = ("token0", "token1")

COMPOUND_CADENCES = ("swap", "block", "day")

# One row per swap, the six CSV fields in order; ``load_swap_records``
# returns them as columns (``log.fee_amount``), and ``log[i]`` reads one swap.
SWAP_LOG_DTYPE = np.dtype([
    ("block", np.int64),
    ("timestamp", np.int64),
    ("fee_amount", np.float64),
    ("fee_token", "U6"),
    ("active_liquidity", np.float64),
    ("post_price", np.float64),
])

# loadtxt cuts strings to the field width, so the parse reads one character
# more than a token name and the check rejects anything longer
_SWAP_PARSE_DTYPE = np.dtype(
    [(name, "U7" if name == "fee_token" else SWAP_LOG_DTYPE[name]) for name in SWAP_LOG_DTYPE.names]
)
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class SwapRecord:
    """One pool swap: the fee it paid and the liquidity that shared it."""

    block: int
    timestamp: int
    fee_amount: float
    fee_token: str
    active_liquidity: float
    post_price: float

    def __post_init__(self) -> None:
        if self.fee_token not in FEE_TOKENS:
            raise ValueError(f"fee_token must be one of {FEE_TOKENS}, got {self.fee_token!r}")
        if not self.fee_amount >= 0.0:
            raise ValueError(f"fee_amount must be non-negative, got {self.fee_amount}")
        if not self.active_liquidity > 0.0:
            raise ValueError(f"active_liquidity must be positive, got {self.active_liquidity}")
        if not self.post_price > 0.0:
            raise ValueError(f"post_price must be positive, got {self.post_price}")


def as_swap_log(records) -> np.recarray:
    """The swap log of ``records``: a :data:`SWAP_LOG_DTYPE` array as it is,
    or a sequence of :class:`SwapRecord` converted to one."""
    if isinstance(records, np.ndarray):
        if records.dtype.names != SWAP_LOG_DTYPE.names:
            raise ValueError(f"swap log fields must be {SWAP_LOG_DTYPE.names}, "
                             f"got {records.dtype.names}")
        return records.view(np.recarray)
    rows = [(r.block, r.timestamp, r.fee_amount, r.fee_token, r.active_liquidity, r.post_price)
            for r in records]
    return np.array(rows, dtype=SWAP_LOG_DTYPE).view(np.recarray)


def _compounded(liquidity: float, fees0: float, fees1: float, price: float):
    """Convert pending fees, worth ``fees0*p + fees1``, into extra liquidity
    ``pending / (2*sqrt(p))`` at a positive ``price``, frictionlessly."""
    pending = fees0 * price + fees1
    if pending == 0.0:
        return liquidity, fees0, fees1
    return liquidity + pending / (2.0 * math.sqrt(price)), 0.0, 0.0


def run_baseline(
    records: Sequence[SwapRecord] | np.ndarray,
    price_series: PriceSeries,
    initial_liquidity: float,
    compound_cadence: str = "block",
) -> LpReturnSeries:
    """Replay swap records against a price grid and return the ROI series.

    Each point of ``price_series`` is one mark (a block boundary, in the
    usual setup): fees from records up to that time are accrued pro rata to
    the position's liquidity over the swap's ``active_liquidity``,
    compounding runs per the cadence, and the position is valued at the mark
    price as ``2*L*sqrt(p)`` plus pending fees.  Records (a swap log or a
    sequence of :class:`SwapRecord`) must be sorted by block, with
    timestamps that never decrease.

    ``block`` and ``day`` compound at the mark price (``day`` at the first
    mark of each new UTC day); ``swap`` compounds after each swap at the price
    sampled at its timestamp, clipped to the marks' range.  A swap before
    the first mark is accrued at the first mark, and one after the last
    mark is ignored with a warning.
    """
    if not initial_liquidity > 0.0:
        raise ValueError(f"initial_liquidity must be positive, got {initial_liquidity}")
    if compound_cadence not in COMPOUND_CADENCES:
        raise ValueError(f"compound_cadence must be one of {COMPOUND_CADENCES}")
    log = as_swap_log(records)
    if (log.block[1:] < log.block[:-1]).any():
        raise ValueError("swap records must be sorted by block")
    back = np.flatnonzero(log.timestamp[1:] < log.timestamp[:-1])
    if back.size:
        k = int(back[0]) + 1
        raise ValueError(
            f"swap record {k}: timestamp {log.timestamp[k]} before the previous "
            f"record's {log.timestamp[k - 1]}"
        )

    n = len(log)
    share = float((initial_liquidity / log.active_liquidity).max()) if n else 0.0
    if share > 0.01:
        warnings.warn(
            f"position is {share:.1%} of active liquidity; the small-position "
            "approximation may be poor",
            stacklevel=2,
        )
    per_swap = compound_cadence == "swap"
    if per_swap and n:
        clipped = np.clip(log.timestamp, price_series.start, price_series.end)
        record_prices = sample_at(price_series, clipped).tolist()
    times = log.timestamp.tolist()
    fee_amounts = log.fee_amount.tolist()
    active = log.active_liquidity.tolist()
    in_token0 = (log.fee_token == "token0").tolist()

    liquidity, fees0, fees1 = initial_liquidity, 0.0, 0.0
    values = []
    rec_i = 0
    prev_day = math.floor(price_series.start / 86400.0)
    for t, price in zip(price_series.timestamps.tolist(), price_series.prices.tolist()):
        while rec_i < n and times[rec_i] <= t:
            earned = fee_amounts[rec_i] * (liquidity / active[rec_i])
            if in_token0[rec_i]:
                fees0 += earned
            else:
                fees1 += earned
            if per_swap:
                liquidity, fees0, fees1 = _compounded(liquidity, fees0, fees1,
                                                      record_prices[rec_i])
            rec_i += 1
        day = math.floor(t / 86400.0)
        if compound_cadence == "block" or (compound_cadence == "day" and day != prev_day):
            liquidity, fees0, fees1 = _compounded(liquidity, fees0, fees1, price)
        prev_day = day
        values.append(2.0 * liquidity * math.sqrt(price) + fees0 * price + fees1)
    if rec_i < n:
        warnings.warn(
            f"{n - rec_i} swap records after the last price mark were ignored",
            stacklevel=2,
        )
    return LpReturnSeries.from_values("uniswap_v3_full_range", price_series.timestamps, values)


def load_swap_records(path) -> np.recarray:
    """Load a swap CSV as a swap log, reporting bad rows by line number.

    Rows are checked as :class:`SwapRecord` checks them, and timestamps must
    never decrease.  ``len`` of the log is the number of data rows.
    """
    rows = _parse_columns(path, SWAP_LOG_DTYPE.names, _SWAP_PARSE_DTYPE)
    if rows is not None:
        token = rows["fee_token"]
        ts = rows["timestamp"]
        if (
            np.isin(token, FEE_TOKENS).all()
            and (rows["fee_amount"] >= 0.0).all()
            and (rows["active_liquidity"] > 0.0).all()
            and (rows["post_price"] > 0.0).all()
            and (ts[1:] >= ts[:-1]).all()
        ):
            return rows.astype(SWAP_LOG_DTYPE).view(np.recarray)
    return _read_swap_rows(path)


def _read_swap_rows(path) -> np.recarray:
    """The row-by-row reader behind :func:`load_swap_records`."""
    expected = list(SWAP_LOG_DTYPE.names)
    records: list[SwapRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[: len(expected)]] != expected:
            raise ValueError(f"{path}:1: expected header {','.join(expected)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                record = SwapRecord(
                    block=int(row[0]),
                    timestamp=int(row[1]),
                    fee_amount=float(row[2]),
                    fee_token=row[3].strip(),
                    active_liquidity=float(row[4]),
                    post_price=float(row[5]),
                )
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed swap record {row}: {exc}") from exc
            if not (_INT64.min <= record.block <= _INT64.max
                    and _INT64.min <= record.timestamp <= _INT64.max):
                raise ValueError(
                    f"{path}:{lineno}: block and timestamp must fit in 64 bits, got {row[:2]}"
                )
            if records and record.timestamp < records[-1].timestamp:
                raise ValueError(
                    f"{path}:{lineno}: timestamp {record.timestamp} before the previous "
                    f"row's {records[-1].timestamp}"
                )
            records.append(record)
    return as_swap_log(records)


def per_block_swap_volume(
    records: Sequence[SwapRecord] | np.ndarray, settlement_times: np.ndarray, pool_fee: float
) -> np.ndarray:
    """Asset-unit trade volume per block interval, inferred from fees paid.

    Each swap's volume is ``fee / pool_fee`` in its sell token, converted to
    asset units at the swap's own price when the fee was paid in numeraire.
    Volumes are summed into the half-open block intervals ending at each
    settlement time.
    """
    if not 0.0 < pool_fee < 1.0:
        raise ValueError(f"pool_fee must be in (0, 1), got {pool_fee}")
    settlement_times = np.asarray(settlement_times, dtype=np.float64)
    volumes = np.zeros(settlement_times.size)
    log = as_swap_log(records)
    if not len(log):
        return volumes
    times = log.timestamp.astype(np.float64)
    sizes = log.fee_amount / pool_fee / np.where(log.fee_token == "token1", log.post_price, 1.0)
    idx = np.searchsorted(settlement_times, times, side="left")
    keep = idx < settlement_times.size
    np.add.at(volumes, idx[keep], sizes[keep])
    return volumes
