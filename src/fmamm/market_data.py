"""Timestamped price series and marked values: loading, returns and synthesis.

Price CSVs use the schema ``timestamp,price`` (header required) with 64-bit
integer epoch seconds; pairs are labeled ``BASE-QUOTE``.  One price rule holds
for every series, loaded or built: finite timestamps, strictly increasing as
float64, and finite positive prices.  Series are immutable.

CSV input is columnar.  Both loaders (swaps in :mod:`fmamm.uniswap`) go
through one reader, :func:`_read_csv`: a plain file parses in one
``np.loadtxt`` call and one rule pass, and only a file either rejects is
read again row by row, to name its first bad line.  The rows of a file that
loads are kept in ``__fmamm_cache__`` beside it, keyed by the file's
SHA-256, so a later load of the same bytes skips the parse.  The ROI of a
value column is :func:`cumulative_roi`; the out-dir's CSV text is
:mod:`fmamm.cli`'s.

Synthetic paths come from a driftless log-Euler geometric Brownian motion
(the simplest positive martingale), and :func:`mean_preserving_spread` adds
exactly conditional-mean-zero two-point noise for risk experiments.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PriceSeries",
    "GbmParams",
    "load_price_series",
    "sample_gbm_path",
    "mean_preserving_spread",
    "cumulative_roi",
    "format_number",
]


def _price_fault(timestamps, prices) -> tuple[int, str] | None:
    """The price rule, finite timestamps strictly increasing as float64 and
    finite positive prices: the first point that breaks it and why, or None."""
    ts, px = np.asarray(timestamps, np.float64), np.asarray(prices, np.float64)
    bad = ~(np.isfinite(ts) & (px > 0.0) & (px < math.inf))
    bad[1:] |= ~(ts[1:] > ts[:-1])
    if not bad.any():
        return None
    k = int(bad.argmax())
    if not math.isfinite(ts[k]):
        return k, f"timestamp {float(ts[k])} is not finite"
    if not 0.0 < px[k] < math.inf:
        return k, f"price must be finite and positive, got {float(px[k])!r}"
    return k, f"timestamp {format_number(ts[k])} not after previous {format_number(ts[k - 1])}"


@dataclass(frozen=True)
class PriceSeries:
    """External equilibrium prices for one pair: finite positive prices at
    finite, strictly increasing timestamps (``ValueError`` otherwise)."""

    pair: str
    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        ts, px = np.array(self.timestamps, np.float64), np.array(self.prices, np.float64)
        if ts.size == 0:
            raise ValueError(f"{self.pair}: empty price series")
        if ts.shape != px.shape:
            raise ValueError(f"{self.pair}: {ts.size} timestamps vs {px.size} prices")
        fault = _price_fault(ts, px)
        if fault is not None:
            raise ValueError(f"{self.pair}: point {fault[0]}: {fault[1]}")
        ts.setflags(write=False)
        px.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def start(self) -> float:
        return float(self.timestamps[0])

    @property
    def end(self) -> float:
        return float(self.timestamps[-1])


def cumulative_roi(values, rows: slice = slice(None)) -> np.ndarray:
    """The return on the first value at each point of a marked value column:
    ``values / values[0] - 1.0``, the one ROI formula of every run (an empty
    column gives an empty one).  Only the points ``rows`` selects are
    computed, element by element, so a slice of the ROI column has the same
    bits either way."""
    values = np.asarray(values, dtype=np.float64)
    return values[rows] / values[:1] - 1.0


def format_number(x: float) -> str:
    """Shortest exact decimal form; integral values print without a dot."""
    x = float(x)
    return str(int(x)) if x.is_integer() and abs(x) < 2**53 else repr(x)


def _int64(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


# how the row reader parses a field of each dtype kind: text into Latin-1 bytes, as loadtxt
_FIELD_PARSERS = {"i": _int64, "f": float, "S": lambda text: text.strip().encode("latin-1")}


# Cache entries live in this directory beside each input CSV.  Bump the
# format when a CSV would parse to other rows or an entry's layout changes;
# a change of rule needs no bump, since a cached array meets its file's rule
# again on every load.
_CACHE_DIR = "__fmamm_cache__"
_CACHE_FORMAT = 2


def _digest(fh) -> str | None:
    """SHA-256 hex digest of an open binary file, read in 1 MiB chunks, which
    it leaves rewound; None for a pipe, FIFO or device, which it would drain."""
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None
    digest = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        digest.update(chunk)
    fh.seek(0)
    return digest.hexdigest()


def _read_csv(path, dtype: np.dtype, rule, digests=None) -> np.ndarray:
    """Every data row of a CSV as one ``dtype`` array that ``rule`` accepts.

    ``rule(rows)`` gives the first row that breaks the file's rule and why,
    or None, judging a row by the rows up to it.  A regular file is hashed
    first (:func:`_digest`), and a cache entry for its bytes
    (:func:`_cache_entry`) that loads as rows that ``rule`` accepts stands
    in for the parse; any other entry is a miss.  On a miss the file is
    parsed (:func:`_parse_csv`) and the accepted rows, if any, are cached.
    ``digests``, when given, maps ``str(path)`` to the file's SHA-256 (None
    for a file that is not regular, which is read into memory, and neither
    hashed nor cached).
    """
    # an undecodable byte reaches the parse as a lone surrogate, which no
    # field accepts, so the row reader names its line
    with open(path, newline="", errors="surrogateescape") as fh:
        before = os.fstat(fh.fileno())
        digest = _digest(fh.buffer)
        entry = None if digest is None else _cache_entry(path, digest, dtype)
        if digests is not None:
            digests[str(path)] = digest
        if entry is not None:
            rows = _cached_rows(entry, dtype, rule)
            if rows is not None:
                return rows
        # a pipe or FIFO cannot seek back for the row reader: it is parsed from memory
        rows = _parse_csv(path, fh if digest else io.StringIO(fh.read(), newline=""), dtype,
                          rule)
        after = os.fstat(fh.fileno())
    # a file edited while it was read is not cached, nor one with no rows
    # (which a loader may still reject: a price file needs one)
    unchanged = (before.st_size, before.st_mtime_ns) == (after.st_size, after.st_mtime_ns)
    if entry is not None and unchanged and rows.size:
        _store_rows(entry, path, rows)
    return rows


def _cache_entry(path, digest: str, dtype: np.dtype) -> Path:
    """``<dir>/__fmamm_cache__/<name>.<sha256 of the CSV>.<tag>.npy``, where
    the tag stands for the row dtype and :data:`_CACHE_FORMAT`."""
    path = Path(path)
    tag = hashlib.sha256(f"{_CACHE_FORMAT} {dtype.descr}".encode()).hexdigest()[:8]
    return path.parent / _CACHE_DIR / f"{path.name}.{digest}.{tag}.npy"


def _cached_rows(entry: Path, dtype: np.dtype, rule) -> np.ndarray | None:
    """The rows a cache entry holds, if it loads as a 1-D ``dtype`` array
    and ``rule`` accepts them; None otherwise."""
    try:
        with open(entry, "rb") as fh:
            rows = np.load(fh, allow_pickle=False)
        if (isinstance(rows, np.ndarray) and rows.dtype == dtype and rows.ndim == 1
                and rule(rows) is None):
            return rows
    except Exception:
        # an entry is untrusted, and a foreign file makes np.load raise
        # ValueError, EOFError, OverflowError, MemoryError, BadZipFile...:
        # whatever it raises, the entry is a miss, never an input error
        pass
    return None


def _store_rows(entry: Path, path, rows: np.ndarray) -> None:
    """Save ``rows`` as ``entry``, as they are, through a temporary file,
    and delete the other entries of the same CSV and tag: an entry of
    another tag is another row dtype or format, which another version of
    fmamm may still read.  A cache that cannot be written is skipped."""
    tmp = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
    tag = entry.name.rsplit(".", 2)[1]
    stale = re.compile(re.escape(Path(path).name)
                       + rf"\.[0-9a-f]{{64}}\.{tag}\.npy(\.\d+\.tmp)?")
    try:
        entry.parent.mkdir(exist_ok=True)
        with open(tmp, "wb") as fh:
            np.save(fh, rows, allow_pickle=False)
        os.replace(tmp, entry)
        for old in os.listdir(entry.parent):
            if old != entry.name and stale.fullmatch(old):
                os.unlink(entry.parent / old)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _parse_csv(path, fh, dtype: np.dtype, rule) -> np.ndarray:
    """The rows of an open CSV (text, ``newline=""``) for :func:`_read_csv`.

    The header is ``dtype``'s field names (case and spaces aside, extra
    trailing names allowed).  ``np.loadtxt`` reads only the named columns,
    with the csv module's quoting, so extra columns take the one-call parse
    too.  Only a file that ``np.loadtxt`` or the rule rejects goes on to
    :func:`_read_rows`, which raises ``ValueError`` naming ``path:line``.
    """
    names = list(dtype.names)
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"{path}:1: {exc}") from exc
    if [h.strip().lower() for h in (header or [])[: len(names)]] != names:
        raise ValueError(f"{path}:1: expected header {','.join(names)!r}, got {header}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on an empty body
            rows = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1,
                              usecols=range(len(names)), quotechar='"')
        if rule(rows) is None:
            return rows
    except (ValueError, Warning):
        pass
    fh.seek(0)
    next(reader)
    return _read_rows(path, reader, dtype, rule)


def _read_rows(path, reader, dtype: np.dtype, rule) -> np.ndarray:
    """The row-by-row reader behind :func:`_read_csv`, from line 2 on.

    Each field goes through Python's ``int`` (within 64 bits) or ``float``,
    or is stripped text in Latin-1 bytes, so ``1_000``, quoted fields and
    extra columns are taken; blank lines are skipped.  The first bad line is the first row
    that does not parse, or an earlier row that ``rule`` names.
    """
    parsers = [_FIELD_PARSERS[dtype[name].kind] for name in dtype.names]
    values, lines, failure = [], [], None
    lineno = 1
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values.append(tuple(parse(row[i]) for i, parse in enumerate(parsers)))
            except (IndexError, ValueError) as exc:
                failure = f"{lineno}: malformed row {row}: {exc}"
                break
            lines.append(lineno)
    except csv.Error as exc:  # the line after the last one read
        failure = f"{lineno + 1}: {exc}"
    rows = np.array(values, dtype)
    fault = rule(rows)
    if fault is not None:
        failure = f"{lines[fault[0]]}: {fault[1]}"
    if failure is not None:
        raise ValueError(f"{path}:{failure}")
    return rows


_PRICE_ROW_DTYPE = np.dtype([("timestamp", np.int64), ("price", np.float64)])


def load_price_series(path, pair: str, digests=None) -> PriceSeries:
    """Load a ``timestamp,price`` CSV, reporting bad rows by line number.

    ``digests``, when given, gets the file's SHA-256 under ``str(path)``.
    """
    rows = _read_csv(path, _PRICE_ROW_DTYPE,
                     lambda rows: _price_fault(rows["timestamp"], rows["price"]), digests)
    if not rows.size:
        raise ValueError(f"{path}: no data rows")
    return PriceSeries(pair, rows["timestamp"], rows["price"])


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
        # the negated comparisons also reject NaN
        if not 0.0 < self.initial_price < math.inf:
            raise ValueError(f"initial_price must be positive and finite, got {self.initial_price}")
        if not 0.0 <= self.volatility < math.inf:
            raise ValueError(f"volatility must be non-negative and finite, got {self.volatility}")
        if not 0.0 < self.step_seconds < math.inf:
            raise ValueError(f"step_seconds must be positive and finite, got {self.step_seconds}")
        if not self.step_seconds <= self.horizon_seconds < math.inf:
            raise ValueError(f"horizon_seconds must be finite and at least step_seconds="
                             f"{self.step_seconds}, got {self.horizon_seconds}")
        if not -math.inf < self.start_time < math.inf:
            raise ValueError(f"start_time must be finite, got {self.start_time}")


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
    if not 0.0 <= epsilon_sd < math.inf:  # the negated comparison also rejects NaN
        raise ValueError(f"epsilon_sd must be non-negative and finite, got {epsilon_sd}")
    if epsilon_sd == 0.0:
        return base.copy()
    gen = np.random.default_rng(rng)  # a Generator comes back as it is
    delta = np.minimum(epsilon_sd, 0.5 * base)
    signs = gen.integers(0, 2, size=base.shape) * 2 - 1
    return base + signs * delta
