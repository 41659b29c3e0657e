"""Full-range Uniswap-v3-style LP returns replayed from swap event records.

A full-range liquidity position with liquidity ``L`` at price ``p`` (token1
per token0) holds ``L/sqrt(p)`` token0 and ``L*sqrt(p)`` token1, worth
``2*L*sqrt(p)`` in token1 terms.  That identity replaces any tick-level
bookkeeping: fees earned by a simulated position are credited pro rata to
``L_sim / L_active`` per swap and periodically converted into extra
liquidity ``pending_value / (2*sqrt(p))`` at zero cost.

Each swap's fee is shared at its post-swap active liquidity only; intra-swap
tick crossings are ignored.  The position is assumed small enough not to
move anyone's incentives, and the position's cumulative ROI is invariant to
the initial position size.

Swap records load from CSVs with schema
``block,timestamp,fee_amount,fee_token,active_liquidity,post_price`` where
``fee_token`` is ``token0`` (asset) or ``token1`` (numeraire), into a
columnar swap log (:data:`SWAP_LOG_DTYPE`) by :mod:`fmamm.market_data`'s one
CSV reader; every log meets the swap rule.  Its ``fee_token`` is ASCII
bytes, to be compared with :data:`FEE_TOKENS` (a ``str`` matches no row).
The log is the one input form: :func:`run_baseline` and
:func:`per_block_swap_volume` take only such an array, which one function,
:func:`_cut`, checks, cuts at the price marks and reports the swaps after
the last mark for both.  :func:`run_baseline` replays it in closed
form: ``L`` is constant between compounding points, so one cumulative
product of per-point growth factors serves every cadence, with one rule for
swaps outside the price marks.  It agrees with a per-record replay within
1e-12 relative.
"""

from __future__ import annotations

import warnings

import numpy as np

from fmamm.amm import _check_size
from fmamm.market_data import PriceSeries, _read_csv, format_number

__all__ = [
    "FEE_TOKENS",
    "SWAP_LOG_DTYPE",
    "run_baseline",
    "as_swap_log",
    "load_swap_records",
    "per_block_swap_volume",
]

FEE_TOKENS = (b"token0", b"token1")  # as ``log.fee_token`` holds them


def _token_words(tokens) -> np.ndarray:
    """Each token of at most 8 bytes (an array or one element) as the 8-byte
    word of its NUL-padded text: two tokens are equal as numpy compares
    bytes (trailing NULs aside) exactly when their words are, and one
    integer compare per row costs less than numpy's string compare.  Both
    sides of a compare are built here, so byte order does not matter."""
    return np.asarray(tokens).astype("S8").view(np.uint64)


_FEE_WORDS = _token_words(FEE_TOKENS)

COMPOUND_CADENCES = ("swap", "block", "day")

# One row per swap, the six CSV fields in order, as parsed, cached and
# replayed; ``log.fee_amount`` reads a column and ``log[i]`` one swap.  loadtxt
# cuts text to the field width, so ``fee_token`` is one byte wider than a
# token name and the swap rule rejects anything longer.
SWAP_LOG_DTYPE = np.dtype([
    ("block", np.int64),
    ("timestamp", np.int64),
    ("fee_amount", np.float64),
    ("fee_token", "S7"),
    ("active_liquidity", np.float64),
    ("post_price", np.float64),
])


# The swap rule: each field's test on a column and what it must be, then the
# columns that must never decrease
_TOKEN_WANT = f"one of {tuple(token.decode() for token in FEE_TOKENS)}"
_SWAP_FIELD_RULES = (
    ("fee_token", lambda v: np.isin(_token_words(v), _FEE_WORDS), _TOKEN_WANT),
    ("fee_amount", lambda v: (v >= 0.0) & (v < np.inf), "non-negative and finite"),
    ("active_liquidity", lambda v: (v > 0.0) & (v < np.inf), "positive and finite"),
    ("post_price", lambda v: (v > 0.0) & (v < np.inf), "positive and finite"),
)
_SWAP_SORTED_BY = ("block", "timestamp")


def _swap_fault(log) -> tuple[int, str] | None:
    """The swap rule: the first row of a swap log that breaks it and why, or None."""
    bad = np.zeros(len(log), bool)
    for name, ok, _ in _SWAP_FIELD_RULES:
        bad |= ~ok(log[name])
    for name in _SWAP_SORTED_BY:
        bad[1:] |= log[name][1:] < log[name][:-1]
    if not bad.any():
        return None
    k = int(bad.argmax())
    for name, ok, want in _SWAP_FIELD_RULES:
        if not ok(log[name][k]):
            value = log[name][k].item()
            if isinstance(value, bytes):  # a token, quoted as the text it was
                value = value.decode("latin-1")
            return k, f"{name} must be {want}, got {value!r}"
    name = next(name for name in _SWAP_SORTED_BY if log[name][k] < log[name][k - 1])
    return k, (f"{name} {log[name][k]} before the previous record's {log[name][k - 1]}; "
               f"swap records must be sorted by {name}")


def as_swap_log(log) -> np.recarray:
    """``log``, a 1-D array of :data:`SWAP_LOG_DTYPE`, as a swap log (not
    copied) once every row meets the swap rule.  Nothing is coerced: an
    array of any other dtype is rejected."""
    if not (isinstance(log, np.ndarray) and log.ndim == 1 and log.dtype == SWAP_LOG_DTYPE):
        got = (type(log).__name__ if not isinstance(log, np.ndarray) else
               f"a {log.ndim}-D array" if log.ndim != 1 else f"an array of dtype {log.dtype}")
        raise ValueError(f"a swap log must be a 1-D array of SWAP_LOG_DTYPE, got {got}")
    fault = _swap_fault(log)
    if fault is not None:
        raise ValueError(f"swap record {fault[0]}: {fault[1]}")
    return log.view(np.recarray)


def _cut(records, marks: np.ndarray) -> tuple[np.recarray, np.ndarray]:
    """``records`` checked as a swap log (:func:`as_swap_log`), and ``cut[k]``,
    its swaps at or before each of the ``marks``; those after the last mark
    (all, with no marks) are ignored with a warning naming the caller's caller."""
    log = as_swap_log(records)
    cut = np.searchsorted(log.timestamp, marks, "right")
    ignored = len(log) - (int(cut[-1]) if cut.size else 0)
    if ignored:
        warnings.warn(f"{ignored} swap records after the last price mark were ignored",
                      stacklevel=3)
    return log, cut


def _check_cadence(cadence: str, name: str = "compound_cadence") -> None:
    if cadence not in COMPOUND_CADENCES:
        raise ValueError(f"{name} must be one of {COMPOUND_CADENCES}, got {cadence!r}")


def _check_pool_fee(pool_fee: float, name: str = "pool_fee") -> None:
    if not 0.0 < pool_fee < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {pool_fee!r}")


def run_baseline(
    records: np.ndarray,
    price_series: PriceSeries,
    initial_liquidity: float,
    compound_cadence: str = "block",
) -> np.ndarray:
    """Replay swap records against a price grid and return the position's
    read-only value at each mark.

    Each point of ``price_series`` is one mark (a block boundary, in the
    usual setup): fees from records up to that time are accrued pro rata to
    the position's liquidity over the swap's ``active_liquidity``,
    compounding runs per the cadence, and the position is valued at the mark
    price as ``2*L*sqrt(p)`` plus pending fees.  ``records`` is a swap log
    (see :func:`as_swap_log`); its rows must meet the swap rule, which sorts
    them by block and by timestamp.

    ``block`` and ``day`` compound at the mark price (``day`` at the first
    mark of each new UTC day); ``swap`` compounds after each swap at its own
    ``post_price``, the pool's price right after it.  A swap before
    the first mark is accrued at the first mark, and one after the last
    mark is ignored with a warning (:func:`_cut`, as for
    :func:`per_block_swap_volume`).  A position above 1% of the smallest
    ``active_liquidity`` among the replayed swaps (ignored ones do not
    count) warns that the small-position approximation may be poor.
    ``initial_liquidity`` is a normal float, like every size (at least
    ``sys.float_info.min``).  A value that overflows raises ``ValueError``
    naming the first such mark and the liquidity.
    """
    _check_size(initial_liquidity, "initial_liquidity")
    _check_cadence(compound_cadence)
    marks, prices = price_series.timestamps, price_series.prices
    log, cut = _cut(records, marks)  # cut[k] swaps accrued by mark k
    kept = int(cut[-1])
    share = float(initial_liquidity / log.active_liquidity[:kept].min()) if kept else 0.0
    if share > 0.01:
        warnings.warn(f"position is {share:.1%} of active liquidity; the small-position "
                      "approximation may be poor", stacklevel=2)
    # an overflow's inf or NaN reaches the values, which are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        per_liquidity = log.fee_amount[:kept] / log.active_liquidity[:kept]
        fees0 = np.where(_token_words(log.fee_token[:kept]) == _FEE_WORDS[0], per_liquidity, 0.0)
        fees1 = per_liquidity - fees0

        # The compounding points: how many swaps each has accrued and the price
        # it converts them at; ``passed`` counts the points at or before each mark.
        if compound_cadence == "swap":
            accrued = np.arange(1, kept + 1)
            point_prices = log.post_price[:kept]
            passed = cut
        else:  # every mark, or the first mark of each new UTC day
            days = np.floor(marks / 86400.0)
            at_mark = (np.diff(days, prepend=days[0]) != 0) | (compound_cadence == "block")
            accrued, point_prices = cut[at_mark], prices[at_mark]
            passed = np.cumsum(at_mark)
        # L is constant between points, so a point's fees per unit of liquidity
        # (A0, A1) multiply L by 1 + (A0*q + A1) / (2*sqrt(q)) at its price q.
        # Swap j's point is the first to accrue it: the count of points that
        # accrued j swaps or fewer, a running sum of how many accrued each count.
        point = np.cumsum(np.bincount(accrued, minlength=kept + 1)[:kept])
        a0, a1 = (np.bincount(point, fees, accrued.size + 1)[:-1] for fees in (fees0, fees1))
        growth = 1.0 + (a0 * point_prices + a1) / (2.0 * np.sqrt(point_prices))
        liquidity = np.cumprod(np.concatenate(([initial_liquidity], growth)))[passed]
        # Fees a mark accrued since its last point stay pending (``day`` only).
        # Running sums that drop each point's total at the next swap hold them
        # without the rounding of a difference of two long cumulative sums; a
        # mark with no swap since its last point has nothing pending.
        since = np.concatenate(([0], accrued))[passed]
        r0, r1 = (
            np.cumsum(np.concatenate(([0.0], fees - np.bincount(accrued, a, kept + 1)[:kept])))
            for fees, a in ((fees0, a0), (fees1, a1)))
        pending = np.where(cut > since, r0[cut] * prices + r1[cut], 0.0)
        values = liquidity * (2.0 * np.sqrt(prices) + pending)
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"baseline value is not finite at mark {format_number(marks[k])} "
                         f"(price {float(prices[k])!r}) with initial_liquidity "
                         f"{initial_liquidity!r}")
    values.setflags(write=False)
    return values


def load_swap_records(path, digests=None) -> np.recarray:
    """Load a swap CSV as a swap log, reporting bad rows by line number.

    Rows must meet the swap rule (finite fields, blocks and timestamps that
    never decrease).  ``len`` of the log is the number of data rows.
    ``digests``, when given, gets the file's SHA-256 under ``str(path)``.
    """
    return _read_csv(path, SWAP_LOG_DTYPE, _swap_fault, digests).view(np.recarray)


def per_block_swap_volume(
    records: np.ndarray, mark_times: np.ndarray, pool_fee: float
) -> np.ndarray:
    """Asset-unit trade volume per block, inferred from fees paid by the
    swaps of ``records``, a swap log (see :func:`as_swap_log`).

    Each swap's volume is ``fee / pool_fee`` in its sell token, converted to
    asset units at the swap's own price when the fee was paid in numeraire.
    ``mark_times``, a block grid's strictly increasing marks from the start
    (``grid.marks.timestamps``), cut the log by :func:`_cut`, with its
    warning, as for :func:`run_baseline`: block ``k`` sums swaps
    ``cut[k]:cut[k + 1]``, those in ``(mark_times[k], mark_times[k + 1]]``.
    """
    _check_pool_fee(pool_fee)
    log, cut = _cut(records, mark_times)
    blocks = max(cut.size - 1, 0)
    kept = log[cut[0]:cut[-1]] if blocks else log[:0]
    with np.errstate(over="ignore"):  # the kernel rejects an overflow's inf volume
        in_numeraire = _token_words(kept.fee_token) == _FEE_WORDS[1]
        sizes = kept.fee_amount / pool_fee / np.where(in_numeraire, kept.post_price, 1.0)
    counts = np.diff(cut)
    del cut  # a sweep's marks can outnumber its swaps: hold one per-mark column less
    volume = np.bincount(np.repeat(np.arange(blocks), counts), sizes, blocks)
    return volume.astype(np.float64, copy=False)  # integer zeros when no block holds a swap
