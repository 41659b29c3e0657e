"""Columnar CSV I/O tests: the one-call parses against row-by-row readers,
and the chunked writers against ``csv.writer``.

The references below are the row-by-row readers and the ``csv.writer``
writers that the columnar code replaced, kept here as oracles.
"""

import csv
import hashlib
import math
import os
import shutil
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import write_config, write_price_csv, write_swap_csv

from fmamm import cli, market_data
from fmamm.cli import _write_comparison, _write_runs, main
from fmamm.market_data import (
    PriceDataError,
    PriceSeries,
    cumulative_roi,
    format_number,
    format_numbers,
    formatted_chunks,
    load_price_series,
)
from fmamm.uniswap import SWAP_LOG_DTYPE, load_swap_records

PRICE_HEADER = "timestamp,price"
SWAP_HEADER = "block,timestamp,fee_amount,fee_token,active_liquidity,post_price"


def int64(text):
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def reference_rows(path, header, parsers, error):
    """(line number, parsed fields) of each data row, read with csv.reader;
    a row that does not parse raises ``error`` naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None or [h.strip().lower() for h in names[:len(parsers)]] != header:
            raise error(f"{path}:1: expected header {','.join(header)!r}, got {names}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                fields = [parse(row[i]) for i, parse in enumerate(parsers)]
            except (IndexError, ValueError) as exc:
                raise error(f"{path}:{lineno}: malformed row {row}: {exc}") from exc
            yield lineno, fields


def reference_prices(path, pair):
    """Row-by-row price reader: csv.reader, int() and float() per row."""
    timestamps, prices = [], []
    for lineno, (ts, price) in reference_rows(path, ["timestamp", "price"], [int64, float],
                                              PriceDataError):
        if not math.isfinite(price) or price <= 0.0:
            raise PriceDataError(
                f"{path}:{lineno}: price must be finite and positive, got {price!r}")
        if timestamps and float(ts) <= float(timestamps[-1]):
            raise PriceDataError(f"{path}:{lineno}: timestamp {format_number(ts)} not after "
                                 f"previous {format_number(timestamps[-1])}")
        timestamps.append(ts)
        prices.append(price)
    if not timestamps:
        raise PriceDataError(f"{path}: no data rows")
    return PriceSeries(pair, np.array(timestamps, float), np.array(prices, float))


def reference_swap_fault(fields, previous):
    """The swap rule for one row, written out again so the oracle does not
    lean on the code under test: why ``fields`` breaks it after the row
    ``previous`` (None for the first), or None."""
    block, timestamp, fee_amount, fee_token, active_liquidity, post_price = fields
    if fee_token not in ("token0", "token1"):
        return f"fee_token must be one of ('token0', 'token1'), got {fee_token!r}"
    if not 0.0 <= fee_amount < math.inf:
        return f"fee_amount must be non-negative and finite, got {fee_amount!r}"
    if not 0.0 < active_liquidity < math.inf:
        return f"active_liquidity must be positive and finite, got {active_liquidity!r}"
    if not 0.0 < post_price < math.inf:
        return f"post_price must be positive and finite, got {post_price!r}"
    for i, name in ((0, "block"), (1, "timestamp")):
        if previous is not None and fields[i] < previous[i]:
            return (f"{name} {fields[i]} before the previous record's {previous[i]}; "
                    f"swap records must be sorted by {name}")
    return None


def reference_swaps(path):
    """Row-by-row swap reader: the rule per row, then one array.

    The loader reads ``fee_token`` into 7 characters, one more than a token
    name, so a longer one is quoted cut to 7 in its error.
    """
    parsers = [int64, int64, float, lambda text: text.strip()[:7], float, float]
    rows = []
    for lineno, fields in reference_rows(path, SWAP_HEADER.split(","), parsers, ValueError):
        fault = reference_swap_fault(fields, rows[-1] if rows else None)
        if fault is not None:
            raise ValueError(f"{path}:{lineno}: {fault}")
        rows.append(tuple(fields))
    return np.array(rows, dtype=SWAP_LOG_DTYPE)


def outcome(fn, *args):
    """What a loader does with a file: its arrays as bytes, or its error."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(result, PriceSeries):
        return ("series", result.pair, result.timestamps.tobytes(), result.prices.tobytes())
    return ("log", result.dtype.descr, np.asarray(result).tobytes())


def assert_same_prices(path):
    expected = outcome(reference_prices, path, "X-Y")
    assert outcome(load_price_series, path, "X-Y") == expected
    return expected


def assert_same_swaps(path):
    expected = outcome(reference_swaps, path)
    got = outcome(load_swap_records, path)
    assert got == expected
    return expected


PRICE_CORPUS = {
    "plain": "1,1.5\n2,2.5\n",
    "crlf and blank lines": "1,1.5\r\n\r\n2,2.5\r\n\n",
    "cr only": "1,1.5\r2,2.5\r",
    "no final newline": "1,1.5\n2,2.5",
    "plus sign": "+5,1.5\n6,2\n",
    "spaces": " 5 , 1.5 \n\t6,\t2\n",
    "underscore int": "1_000,1.5\n1_001,2\n",
    "underscore float": "1,1_0.5\n",
    "quoted": '"2",1.5\n3,"2.5"\n',
    "extra columns": "1,1.5,x\n2,2.5\n",
    # csv quoting: the quoted extra field spans two lines, so three rows are two
    "quoted extra column across lines": '1,1.5,"note\n2,2.5,"\n3,3.5\n',
    "trailing comma": "1,1.5,\n",
    "negative timestamps": "-5,1.5\n-4,2\n",
    "int at 2**63": "9223372036854775807,1.5\n9223372036854775808,2\n",
    "ints colliding as floats": "9223372036854775808,1.5\n9223372036854775809,2\n",
    "ints colliding as float64": "9007199254740992,1.5\n9007199254740993,2\n",
    "int below -2**63": "-9223372036854775809,1.5\n",
    "decrease before a bad row": "2,1.5\n1,2\noops\n",
    "subnormal price": "1,5e-324\n",
    "comment marker": "#1,1.5\n",
    "hash in price": "1,1.5#\n",
    "whitespace line": "1,1.5\n   \n2,2.5\n",
    "nan": "1,1.5\n2,nan\n",
    "inf": "1,inf\n",
    "overflowing price": "1,1e400\n",
    "underflowing price": "1,1e-400\n",
    "negative zero": "1,-0.0\n",
    "float timestamp": "1.0,2\n",
    "missing price": "1\n",
    "empty timestamp": ",2\n",
    "repeated timestamp": "1,1.5\n1,2\n",
    "decreasing timestamp": "2,1.5\n1,2\n",
    "header only": "",
    "blank body": "\n\n",
}


class TestPriceParse:
    @pytest.mark.parametrize("name", sorted(PRICE_CORPUS))
    def test_corpus_matches_row_reader(self, tmp_path, name):
        path = tmp_path / "p.csv"
        path.write_text(PRICE_HEADER + "\n" + PRICE_CORPUS[name], newline="")
        assert_same_prices(path)

    @pytest.mark.parametrize("text", [
        "", "\n1,2\n", "time,price\n1,2\n", '"timestamp",price\n1,2\n',
        "Timestamp , PRICE ,extra\n1,2\n", "timestamp\n1,2\n",
        # an unclosed quote makes the whole rest of the file part of the header
        'timestamp,price,"note\n1,2\n3,4\n',
    ])
    def test_headers_match_row_reader(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_text(text)
        assert_same_prices(path)

    def test_errors_name_the_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(PRICE_HEADER + "\n1,1.5\n2,2.5\n3,nan\n")
        with pytest.raises(PriceDataError, match=r"p\.csv:4: price must be finite and positive, got nan$"):
            load_price_series(path, "X-Y")

    def test_undecodable_byte_names_the_line(self, tmp_path, monkeypatch, capsys):
        # the byte reaches the row reader as a lone surrogate, which no float takes
        monkeypatch.chdir(tmp_path)
        write_price_csv(tmp_path / "prices.csv", blocks=10)
        lines = (tmp_path / "prices.csv").read_bytes().splitlines()
        lines[2] += b"\xff"
        (tmp_path / "prices.csv").write_bytes(b"\n".join(lines) + b"\n")
        cfg = write_config(tmp_path / "cfg.json", "prices.csv")
        assert main(["backtest", "--config", str(cfg)]) == 2
        row = lines[2].decode("utf-8", "surrogateescape").split(",")
        assert capsys.readouterr().err == (f"error: prices.csv:3: malformed row {row}: "
                                           f"could not convert string to float: {row[1]!r}\n")

    def test_plain_file_skips_the_row_reader(self, tmp_path, monkeypatch):
        def row_reader(*args):
            raise AssertionError("the row reader ran on a plain file")

        monkeypatch.setattr(market_data, "_read_rows", row_reader)
        path = tmp_path / "p.csv"
        path.write_text(PRICE_HEADER + "\r\n" + "".join(f"{t},{t / 7!r}\r\n" for t in range(1, 500)))
        series = load_price_series(path, "X-Y")
        assert series.timestamps.tolist() == list(range(1, 500))
        assert series.prices.tolist() == [t / 7 for t in range(1, 500)]


ODD_FIELDS = ["", " ", "+3", " 4 ", "1_0", '"5"', "nan", "inf", "-inf", "1e400", "1e-400",
              "-0.0", "5e-324", "1.0", "#", "x", "token0", "token1", " token1", "token00",
              "9223372036854775808", "-9223372036854775809"]


def plain_float(lo=1e-300, hi=1e300):
    return st.floats(lo, hi).map(repr)


@st.composite
def csv_text(draw, valid_rows, n_fields):
    """A CSV body: mostly valid rows, maybe with one field or line made odd."""
    rows = draw(valid_rows)
    lines = [",".join(r) for r in rows]
    edit = draw(st.sampled_from(["none", "field", "line", "blank"]))
    if lines and edit == "field":
        i = draw(st.integers(0, len(rows) - 1))
        row = list(rows[i])
        row[draw(st.integers(0, n_fields - 1))] = draw(st.sampled_from(ODD_FIELDS))
        lines[i] = ",".join(row)
    elif edit == "line":
        fields = st.lists(st.one_of(st.sampled_from(ODD_FIELDS), plain_float()),
                          max_size=n_fields + 1)
        lines.insert(draw(st.integers(0, len(lines))), ",".join(draw(fields)))
    elif edit == "blank":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + newline for line in lines)


@st.composite
def price_rows(draw):
    steps = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
    start = draw(st.integers(-10**9, 10**12))
    times = np.cumsum([start] + steps[1:]).tolist()
    return [(str(t), draw(plain_float())) for t in times]


@st.composite
def swap_rows(draw):
    n = draw(st.integers(1, 8))
    blocks = np.cumsum(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))).tolist()
    times = np.cumsum(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))).tolist()
    return [
        (str(b), str(t), draw(plain_float(0.0, 1e12)), draw(st.sampled_from(["token0", "token1"])),
         draw(plain_float(1e-3, 1e20)), draw(plain_float()))
        for b, t in zip(blocks, times)
    ]


class TestPropertyFastEqualsRowReader:
    @settings(max_examples=300, deadline=None)
    @given(body=csv_text(price_rows(), 2))
    def test_prices(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("prices") / "p.csv"
        path.write_text(PRICE_HEADER + "\n" + body, newline="")
        assert_same_prices(path)

    @settings(max_examples=300, deadline=None)
    @given(body=csv_text(swap_rows(), 6))
    def test_swaps(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("swaps") / "s.csv"
        path.write_text(SWAP_HEADER + "\n" + body, newline="")
        assert_same_swaps(path)


SWAP_CORPUS = {
    "plain": "1,10,0.5,token0,1e6,2.0\n2,20,0.25,token1,1e6,2.1\n",
    "spaced token": "1,10,0.5, token1 ,1e6,2.0\n",
    "long token": "1,10,0.5,token00,1e6,2.0\n",
    "unknown token": "1,10,0.5,token2,1e6,2.0\n",
    "quoted": '"1",10,0.5,"token0",1e6,2.0\n',
    "underscores": "1_0,1_000,0.5,token0,1e6,2.0\n",
    "extra column": "1,10,0.5,token0,1e6,2.0,x\n",
    "quoted extra column across lines":
        '1,10,0.5,token0,1e6,2.0,"a\n2,20,0.25,token1,1e6,2.1,"\n3,30,0.5,token0,1e6,2.2\n',
    "missing column": "1,10,0.5,token0,1e6\n",
    "zero fee": "1,10,0.0,token0,1e6,2.0\n",
    "negative fee": "1,10,-1.0,token0,1e6,2.0\n",
    "nan fee": "1,10,nan,token0,1e6,2.0\n",
    "infinite liquidity": "1,10,0.5,token0,inf,2.0\n",
    "zero liquidity": "1,10,0.5,token0,0,2.0\n",
    "zero price": "1,10,0.5,token0,1e6,0\n",
    "block at 2**63": "9223372036854775808,10,0.5,token0,1e6,2.0\n",
    "timestamp below -2**63": "1,-9223372036854775809,0.5,token0,1e6,2.0\n",
    "equal timestamps": "1,10,0.5,token0,1e6,2.0\n1,10,0.5,token1,1e6,2.0\n",
    "decreasing timestamps": "1,150,0.5,token0,1e6,2.0\n1,120,0.5,token0,1e6,2.0\n",
    "unsorted blocks": "2,10,0.5,token0,1e6,2.0\n1,20,0.5,token0,1e6,2.0\n",
    "decrease before a bad row": "1,20,0.5,token0,1e6,2.0\n1,10,0.5,token0,1e6,2.0\n1,30\n",
    "bad token before a bad row": "1,10,0.5,token00,1e6,2.0\n1,x,0.5,token0,1e6,2.0\n",
    "blank lines": "\n1,10,0.5,token0,1e6,2.0\r\n\r\n",
    "header only": "",
}


class TestSwapParse:
    @pytest.mark.parametrize("name", sorted(SWAP_CORPUS))
    def test_corpus_matches_row_reader(self, tmp_path, name):
        path = tmp_path / "s.csv"
        path.write_text(SWAP_HEADER + "\n" + SWAP_CORPUS[name], newline="")
        assert_same_swaps(path)

    def test_decreasing_timestamp_names_the_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(SWAP_HEADER + "\n" + SWAP_CORPUS["decreasing timestamps"])
        with pytest.raises(ValueError, match=r"s\.csv:3: timestamp 120 before the previous"):
            load_swap_records(path)

    @pytest.mark.parametrize("token, why", [
        ("tökX", "fee_token must be one of ('token0', 'token1'), got 'tökX'"),
        ("t€ken0", "malformed row {row}: 'latin-1' codec can't encode character '\\u20ac' in "
                   "position 1: ordinal not in range(256)"),
    ], ids=["latin-1", "outside latin-1"])
    def test_non_ascii_token_names_the_line(self, tmp_path, monkeypatch, capsys, token, why):
        # a token parses as its Latin-1 bytes and is quoted as the text it
        # was; one that has none cannot parse
        monkeypatch.chdir(tmp_path)
        series = write_price_csv(tmp_path / "prices.csv", blocks=60)
        write_swap_csv(tmp_path / "swaps.csv", series)
        lines = (tmp_path / "swaps.csv").read_text().splitlines()
        lines[2] = lines[2].replace("token1", token)
        (tmp_path / "swaps.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", "prices.csv", "swaps.csv")
        assert main(["backtest", "--config", str(cfg)]) == 2
        why = why.format(row=lines[2].split(","))
        assert capsys.readouterr().err == f"error: swaps.csv:3: {why}\n"

    def test_undecodable_byte_names_the_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        series = write_price_csv(tmp_path / "prices.csv", blocks=60)
        write_swap_csv(tmp_path / "swaps.csv", series)
        lines = (tmp_path / "swaps.csv").read_bytes().splitlines()
        lines[2] = lines[2].replace(b"token1", b"tok\xffX")
        (tmp_path / "swaps.csv").write_bytes(b"\n".join(lines) + b"\n")
        cfg = write_config(tmp_path / "cfg.json", "prices.csv", "swaps.csv")
        assert main(["backtest", "--config", str(cfg)]) == 2
        row = lines[2].decode("utf-8", "surrogateescape").split(",")
        assert capsys.readouterr().err == (
            f"error: swaps.csv:3: malformed row {row}: 'latin-1' codec can't encode character "
            "'\\udcff' in position 3: ordinal not in range(256)\n")

    def test_plain_file_skips_the_row_reader(self, tmp_path, monkeypatch):
        def row_reader(*args):
            raise AssertionError("the row reader ran on a plain file")

        monkeypatch.setattr(market_data, "_read_rows", row_reader)
        path = tmp_path / "s.csv"
        path.write_text(SWAP_HEADER + "\n" + SWAP_CORPUS["plain"])
        log = load_swap_records(path)
        assert len(log) == 2
        assert log.fee_token.tolist() == [b"token0", b"token1"]
        assert log[1].post_price == 2.1


@pytest.mark.parametrize("load, header, rows, extra", [
    (lambda path: load_price_series(path, "X-Y"), PRICE_HEADER,
     [f"{t},{t / 7!r}" for t in range(1, 500)], ",volume"),
    (load_swap_records, SWAP_HEADER,
     [f"{t},{10 * t},0.5,token{t % 2},1e6,2.0" for t in range(1, 500)], ",tx,"),
], ids=["prices", "swaps"])
def test_extra_columns_skip_the_row_reader(tmp_path, monkeypatch, load, header, rows, extra):
    def row_reader(*args):
        raise AssertionError("the row reader ran on a file with extra columns")

    monkeypatch.setattr(market_data, "_read_rows", row_reader)
    plain, wide = tmp_path / "plain.csv", tmp_path / "wide.csv"
    plain.write_text(header + "\n" + "".join(f"{row}\n" for row in rows))
    wide.write_text(header + extra + "\n" + "".join(f"{row}{extra}\n" for row in rows))
    assert outcome(load, wide) == outcome(load, plain)


def test_extra_columns_are_not_read(tmp_path):
    """Only the named columns are parsed, so an extra field over the csv
    module's 128 KiB limit does not stop a file that loads."""
    path = tmp_path / "p.csv"
    path.write_text(PRICE_HEADER + f"\n1,1.5,{'1' * 200_000}\n2,2.5\n")
    assert load_price_series(path, "X-Y").prices.tolist() == [1.5, 2.5]


# beyond the csv module's default field limit of 128 KiB
OVERSIZED = "1" * 200_000


@pytest.mark.parametrize("load, header, row, big_row", [
    (lambda path: load_price_series(path, "X-Y"), PRICE_HEADER, "1,1.5", f"2,{OVERSIZED}"),
    (load_swap_records, SWAP_HEADER, "1,10,0.5,token0,1e6,2.0",
     f"{OVERSIZED},11,0.5,token0,1e6,2.0"),
], ids=["prices", "swaps"])
def test_oversized_field_names_its_line(tmp_path, load, header, row, big_row):
    path = tmp_path / "in.csv"
    for text, line in ((f"{header},{OVERSIZED}\n{row}\n", 1),
                       (f"{header}\n{row}\n\n{big_row}\n", 4)):
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"in\.csv:{line}: field larger than field limit"):
            load(path)


def reference_returns_csv(path, marks, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value", "cumulative_roi"])
        for t, v, r in zip(marks, values, cumulative_roi(values)):
            writer.writerow([format_number(t), repr(float(v)), repr(float(r))])


def reference_comparison_csv(path, timestamps, roi_difference):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "roi_difference"])
        for t, d in zip(timestamps, roi_difference):
            writer.writerow([format_number(t), repr(float(d))])


def reference_long_csv(path, marks, runs):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "timestamp", "metric", "value"])
        for run_id, values in runs.items():
            for metric, column in (("value", values), ("cumulative_roi", cumulative_roi(values))):
                for t, v in zip(marks, column):
                    writer.writerow([run_id, format_number(t), metric, repr(float(v))])


def assert_out_dir_matches(out, marks, runs):
    """``_write_runs``' files against the ``csv.writer`` oracles."""
    for run_id, values in runs.items():
        reference_returns_csv(out / "want.csv", marks, values)
        assert (out / f"{run_id}_returns.csv").read_bytes() == (out / "want.csv").read_bytes()
    reference_long_csv(out / "want.csv", marks, runs)
    assert (out / "long.csv").read_bytes() == (out / "want.csv").read_bytes()


def around(x, k=4):
    """``x`` and the ``k`` floats on each side of it."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


# where repr turns from fixed point to exponent form, and the extremes
BOUNDARY_FLOATS = [0.0, -0.0, *around(1e-4), *around(1e16), 1e-5, 2.0**53 - 2, 2.0**53 + 2,
                   5e-324, sys.float_info.max]
BOUNDARY_FLOATS += [-x for x in BOUNDARY_FLOATS]
SMALL_CHUNK = 8
RUN = (1_680_000_000 + 12.0 * np.arange(2 * SMALL_CHUNK + 3)).tolist()  # ends mid-chunk
ODD_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, 0.1, -2.5, 3.0,
              *BOUNDARY_FLOATS]
STAMP_SETS = {
    "integral": [0.0, 12.0, 1_680_000_000.0, -12.0],
    "int64 extremes": [0.0, -12.0, 2.0**53 - 1, -(2.0**53 - 1)],
    "fractional": [0.5, 12.25, 1_680_000_000.125, -0.0],
    "at 2**53": [2.0**53 - 1, 2.0**53, 2.0**60, -(2.0**53)],
    "odd": [math.nan, math.inf, -math.inf, 5e-324],
    "empty": [],
    # SMALL_CHUNK rows per chunk: format_numbers' integer fast path holds in
    # some chunks of these runs and not in others
    "three chunks, integral": RUN,
    "three chunks, fractional in the last": RUN[:-1] + [RUN[-1] + 0.5],
    "three chunks, 2**53 in the last": RUN[:-1] + [2.0**53],
    "three chunks, fractional in the first only": [RUN[0] + 0.5] + RUN[1:],
    "two full chunks": RUN[: 2 * SMALL_CHUNK],
    # as many rows as ODD_VALUES, so every odd value is written in every column
    "every odd value": (1_680_000_000 + 12.0 * np.arange(len(ODD_VALUES))).tolist(),
}


def formatted_column(column):
    """``formatted_chunks``' text of one float column, its chunks joined."""
    return [text for _, chunk in formatted_chunks(np.zeros(len(column)), column)
            for text in chunk]


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(market_data, "CSV_CHUNK_ROWS", SMALL_CHUNK)


class TestWriters:
    @pytest.mark.parametrize("name", sorted(STAMP_SETS))
    def test_format_numbers_is_format_number(self, name):
        values = STAMP_SETS[name] + ODD_VALUES
        assert format_numbers(values) == [format_number(v) for v in values]
        stamps = STAMP_SETS[name]
        assert format_numbers(stamps) == [format_number(v) for v in stamps]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), max_size=50))
    def test_float_columns_are_repr(self, values):
        # NaN, infinities and subnormals included
        assert formatted_column(np.array(values, dtype=np.float64)) == list(map(repr, values))

    def test_boundary_floats_are_repr(self, small_chunks):
        column = np.array(BOUNDARY_FLOATS)
        assert formatted_column(column) == list(map(repr, BOUNDARY_FLOATS))
        # a strided view formats as its values do
        assert formatted_column(column[::2]) == list(map(repr, BOUNDARY_FLOATS[::2]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-(2**53 - 1), 2**53 - 1), max_size=50))
    def test_integral_stamps_are_format_number(self, stamps):
        stamps = [float(t) for t in stamps]
        assert format_numbers(stamps) == [format_number(t) for t in stamps]

    @pytest.mark.parametrize("name", sorted(STAMP_SETS))
    def test_byte_identical_to_csv_writer(self, tmp_path, name, small_chunks):
        stamps = np.asarray(STAMP_SETS[name], float)
        n = len(stamps)
        values = np.asarray((ODD_VALUES * 2)[:n], float)
        gap = np.asarray((ODD_VALUES[::-1] * 2)[:n], float)
        _write_comparison(tmp_path / "got.csv", stamps, gap)
        reference_comparison_csv(tmp_path / "want.csv", stamps, gap)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        # a run's ROI column is derived from its values, so the odd values
        # reach the value columns, and their quotients the ROI columns
        runs = {"fm_amm": values, "fee_0.003": gap}
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _write_runs(tmp_path, stamps, runs)
            assert_out_dir_matches(tmp_path, stamps, runs)

    def test_long_run_matches(self, tmp_path):
        rng = np.random.default_rng(5)
        stamps = 1_680_000_000 + 12.0 * np.arange(5000)
        runs = {"v": 1.0 + rng.standard_normal(5000) ** 2}
        _write_runs(tmp_path, stamps, runs)
        assert_out_dir_matches(tmp_path, stamps, runs)

    def test_out_dir_writer_holds_one_chunk(self, tmp_path):
        """The out-dir writer's peak allocation, less the ``cumulative_roi``
        text that ``long.csv`` must hold back until the run's ``value`` rows
        are out and the float ROI column it derives from the values, stays
        well below one fully formatted column: it never holds a whole column
        of strings or a whole file."""
        n = 50_000  # about 12 chunks; tracemalloc makes each row cost ~20 us
        rng = np.random.default_rng(7)
        marks = 1_680_000_000 + 12.0 * np.arange(n)
        values = np.exp(np.cumsum(rng.normal(0, 1e-3, n)))
        column = list(map(repr, values.tolist()))
        column_bytes = sys.getsizeof(column) + sum(map(sys.getsizeof, column))
        del column
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _write_runs(tmp_path, marks, {"fm_amm": values})
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        long = (tmp_path / "long.csv").read_bytes()
        pending = len(long) - long.index(b"fm_amm,1680000000,cumulative_roi,")
        assert peak - pending - values.nbytes < column_bytes / 2, (peak, pending, column_bytes)


class TestCommandOutDirs:
    """The sweeps' out-dir CSVs against the oracles, with runs spanning chunks."""

    def run(self, monkeypatch, argv):
        monkeypatch.setattr(market_data, "CSV_CHUNK_ROWS", 32)
        seen = {}

        def recording(out, marks, runs):
            seen.update(runs, marks=marks)
            return _write_runs(out, marks, runs)

        monkeypatch.setattr(cli, "_write_runs", recording)
        assert main(argv) == 0
        marks = seen.pop("marks")
        assert len(seen) >= 2 and all(len(v) == len(marks) == 101 for v in seen.values())
        return marks, seen

    def test_sweep_fees(self, tmp_path, monkeypatch):
        write_price_csv(tmp_path / "prices.csv", blocks=100)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", fee_grid=[0.0, 0.003])
        out = tmp_path / "out"
        marks, runs = self.run(monkeypatch,
                               ["sweep-fees", "--config", str(cfg), "--out-dir", str(out)])
        assert_out_dir_matches(out, marks, runs)

    def test_sweep_noise(self, tmp_path, monkeypatch):
        series = write_price_csv(tmp_path / "prices.csv", blocks=100)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "prices.csv", tmp_path / "swaps.csv",
                           noise_fractions=[0.1, 0.3])
        out = tmp_path / "out"
        marks, runs = self.run(monkeypatch,
                               ["sweep-noise", "--config", str(cfg), "--out-dir", str(out)])
        assert_out_dir_matches(out, marks, runs)


PLAIN_PRICES = PRICE_HEADER + "\n" + "".join(f"{t},{t / 7!r}\n" for t in range(1, 200))
# the row reader's spellings: an underscore int and quoted fields
ODD_PRICES = PRICE_HEADER + '\n1_000,1.5\n"1001",2.5\n1002,"0.25"\n'
SWAPS = SWAP_HEADER + "\n" + SWAP_CORPUS["plain"]
ODD_SWAPS = SWAP_HEADER + '\n1_0,"100",0.5,"token0",1e6,2.0\n11,1_01,0.25,token1,2e6,2.5\n'


def break_rule(rows):
    """A copy of cached rows that breaks its file's rule in the first row."""
    rows = rows.copy()
    if "price" in rows.dtype.names:
        rows["price"][0] = -1.0
    else:
        rows["fee_token"][0] = "token9"
    return rows


def non_ascii(rows):
    """A copy of cached rows with a byte above 127 in each text field."""
    rows = rows.copy()
    for name in rows.dtype.names:
        if rows.dtype[name].kind == "S":
            rows[name][0] = b"\xfftoken"
    return rows


def save_npz(entry, rows):
    with open(entry, "wb") as fh:
        np.savez(fh, rows=rows)


def claim_rows(n):
    """A spoiler that keeps the rows' bytes under a header claiming ``n`` rows."""
    def spoil(entry, rows):
        header = {"descr": np.lib.format.dtype_to_descr(rows.dtype), "fortran_order": False,
                  "shape": (n,)}
        with open(entry, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            fh.write(rows.tobytes())
    return spoil


# ways a cache entry goes bad: each writes ``entry`` from the rows it held
SPOILS = {
    "truncated": lambda entry, rows: entry.write_bytes(entry.read_bytes()[:-5]),
    "header only": lambda entry, rows: entry.write_bytes(entry.read_bytes()[:40]),
    "empty": lambda entry, rows: entry.write_bytes(b""),
    "foreign": lambda entry, rows: entry.write_bytes(b"not an array"),
    # the same names, with the float fields rounded to single precision
    "wrong dtype": lambda entry, rows: np.save(entry, rows.astype(
        [(n, "<f4" if rows.dtype[n].kind == "f" else rows.dtype[n]) for n in rows.dtype.names])),
    "two-dimensional": lambda entry, rows: np.save(entry, np.stack([rows, rows])),
    "pickled objects": lambda entry, rows: np.save(
        entry, np.array([{"rows": 1}, None], dtype=object), allow_pickle=True),
    "npz archive": save_npz,
    "corrupt zip": lambda entry, rows: entry.write_bytes(b"PK\x03\x04" + rows.tobytes()),
    # more rows than memory holds (MemoryError), than int64 counts (OverflowError)
    "claims 10**15 rows": claim_rows(10**15),
    "claims 10**23 rows": claim_rows(10**23),
    "breaks the rule": lambda entry, rows: np.save(entry, break_rule(rows)),
    # text fields as the loaders return them, or bytes that are not ASCII
    "unicode text": lambda entry, rows: np.save(entry, rows.astype(
        [(n, f"U{rows.dtype[n].itemsize}" if rows.dtype[n].kind == "S" else rows.dtype[n])
         for n in rows.dtype.names])),
    "non-ASCII text": lambda entry, rows: np.save(entry, non_ascii(rows)),
}


def cache_entries(directory):
    cache = directory / "__fmamm_cache__"
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


class TestInputCache:
    """The binary copy of each loaded CSV kept in ``__fmamm_cache__`` beside it."""

    @pytest.mark.parametrize("text, load", [
        (PLAIN_PRICES, lambda path: load_price_series(path, "X-Y")),
        (ODD_PRICES, lambda path: load_price_series(path, "X-Y")),
        (SWAPS, load_swap_records),
        (ODD_SWAPS, load_swap_records),
    ], ids=["plain prices", "odd prices", "plain swaps", "odd swaps"])
    def test_warm_load_is_bit_identical_and_skips_the_parse(self, tmp_path, monkeypatch, text,
                                                            load):
        path = tmp_path / "in.csv"
        path.write_text(text, newline="")
        cold = outcome(load, path)
        assert cold[0] != "error"
        [entry] = cache_entries(tmp_path)
        assert entry.startswith("in.csv.") and entry.endswith(".npy")

        def parse(*args):
            raise AssertionError("a warm load parsed the CSV")

        monkeypatch.setattr(market_data, "_parse_csv", parse)
        assert outcome(load, path) == cold
        assert cache_entries(tmp_path) == [entry]

    def test_store_keeps_the_entries_of_other_tags(self, tmp_path, monkeypatch):
        # one entry per CSV name and tag: a store deletes the stale entry of
        # its own tag and keeps that of another format, which another version
        # reading the same directory loads
        path = tmp_path / "in.csv"
        path.write_text(PLAIN_PRICES)
        load_price_series(path, "X-Y")
        [old_format] = cache_entries(tmp_path)
        monkeypatch.setattr(market_data, "_CACHE_FORMAT", market_data._CACHE_FORMAT + 1)
        load_price_series(path, "X-Y")
        [stale] = set(cache_entries(tmp_path)) - {old_format}
        assert old_format in cache_entries(tmp_path)
        path.write_text(ODD_PRICES)
        load_price_series(path, "X-Y")
        [new] = set(cache_entries(tmp_path)) - {old_format}
        assert old_format in cache_entries(tmp_path)
        assert new != stale and new.split(".")[-2] == stale.split(".")[-2]
        monkeypatch.undo()
        load_price_series(path, "X-Y")
        assert new in cache_entries(tmp_path) and old_format not in cache_entries(tmp_path)
        assert len(cache_entries(tmp_path)) == 2

    def test_swap_entry_stores_text_as_ascii_bytes(self, tmp_path):
        """A swap row takes 47 bytes in its entry: five 8-byte numbers and
        ``fee_token`` as 7 ASCII bytes, not the 28 of a 7-character str."""
        n = 1000
        path = tmp_path / "s.csv"
        path.write_text(SWAP_HEADER + "\n" + "".join(
            f"{t},{10 * t},0.5,token{t % 2},1e6,2.0\n" for t in range(n)))
        log = load_swap_records(path)
        [name] = cache_entries(tmp_path)
        with open(tmp_path / "__fmamm_cache__" / name, "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            _, _, dtype = np.lib.format.read_array_header_1_0(fh)
            header = fh.tell()
        assert dtype.itemsize == 47 and dtype["fee_token"] == np.dtype("S7")
        assert os.path.getsize(tmp_path / "__fmamm_cache__" / name) == header + 47 * n
        assert log.fee_token.tolist() == [b"token%d" % (t % 2) for t in range(n)]

    def test_swap_load_memory_per_row_is_bounded(self, tmp_path):
        """A cold and a warm swap load keep one 47-byte row per swap and peak
        under 64 B/row: the rows parse, are cached and come back in their one
        layout, with no copy in another (a copy alone would take 94 B/row).
        The hash's 1 MiB read buffer adds about 10 B/row at this size."""
        n = 100_000
        path = tmp_path / "s.csv"
        path.write_text(SWAP_HEADER + "\n" + "".join(
            f"{t},{10 * t},0.5,token{t % 2},1e6,2.0\n" for t in range(n)))
        for load in ("cold", "warm"):
            tracemalloc.start()
            try:
                log = load_swap_records(path)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(log) == n and len(cache_entries(tmp_path)) == 1
            assert peak <= 64 * n, (load, peak / n)
            assert 47 * n <= kept < 48 * n, (load, kept / n)
            del log
        assert SWAP_LOG_DTYPE.itemsize == 47

    @pytest.mark.parametrize("spoil", sorted(SPOILS))
    def test_spoiled_entry_is_a_miss_and_is_rewritten(self, tmp_path, monkeypatch, capsys, spoil):
        monkeypatch.chdir(tmp_path)
        series = write_price_csv(tmp_path / "prices.csv", blocks=60)
        write_swap_csv(tmp_path / "swaps.csv", series)
        cfg = write_config(tmp_path / "cfg.json", "prices.csv", "swaps.csv")
        argv = ["backtest", "--config", str(cfg)]
        assert main(argv + ["--out-dir", "cold"]) == 0
        printed = capsys.readouterr()
        cache = tmp_path / "__fmamm_cache__"
        entries = {name: np.load(cache / name) for name in cache_entries(tmp_path)}
        assert len(entries) == 2
        for name, rows in entries.items():
            SPOILS[spoil](cache / name, rows)
        assert main(argv + ["--out-dir", "spoiled"]) == 0
        assert capsys.readouterr() == printed
        for name in ("fm_amm_returns.csv", "uniswap_v3_full_range_returns.csv", "manifest.json"):
            assert (tmp_path / "spoiled" / name).read_bytes() == \
                (tmp_path / "cold" / name).read_bytes(), name
        assert cache_entries(tmp_path) == sorted(entries)
        for name, rows in entries.items():
            assert np.load(cache / name).tobytes() == rows.tobytes()

    def test_edited_csv_misses_and_names_its_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_price_csv(tmp_path / "prices.csv", blocks=60)
        cfg = write_config(tmp_path / "cfg.json", "prices.csv")
        assert main(["backtest", "--config", str(cfg)]) == 0
        lines = (tmp_path / "prices.csv").read_text().splitlines(keepends=True)
        lines[2] = lines[2].split(",")[0] + ",-1.0\n"
        with open(tmp_path / "prices.csv", "r+") as fh:  # in place, the same file
            fh.write("".join(lines))
            fh.truncate()
        capsys.readouterr()
        assert main(["backtest", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: prices.csv:3: price must be finite and positive, got -1.0\n")

    @pytest.mark.parametrize("text, load", [
        (PRICE_HEADER + "\n1,1.5\n1,2.5\n", lambda path: load_price_series(path, "X-Y")),
        (PRICE_HEADER + "\n", lambda path: load_price_series(path, "X-Y")),
        ("time,price\n1,1.5\n", lambda path: load_price_series(path, "X-Y")),
        (SWAP_HEADER + "\n" + SWAP_CORPUS["decreasing timestamps"], load_swap_records),
    ], ids=["repeated timestamp", "no rows", "bad header", "swaps out of order"])
    def test_failing_csv_is_never_cached(self, tmp_path, text, load):
        path = tmp_path / "in.csv"
        path.write_text(text)
        for _ in range(2):
            with pytest.raises(ValueError):
                load(path)
        assert cache_entries(tmp_path) == []

    def test_unwritable_cache_leaves_the_run_uncached(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_price_csv(tmp_path / "prices.csv", blocks=60)
        cfg = write_config(tmp_path / "cfg.json", "prices.csv")
        assert main(["sweep-fees", "--config", str(cfg)]) == 0
        printed = capsys.readouterr()
        shutil.rmtree(tmp_path / "__fmamm_cache__")
        # a regular file where the directory would go: it cannot be created
        (tmp_path / "__fmamm_cache__").write_text("mine")
        for _ in range(2):
            assert main(["sweep-fees", "--config", str(cfg)]) == 0
            assert capsys.readouterr() == printed
        assert (tmp_path / "__fmamm_cache__").read_text() == "mine"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "__fmamm_cache__", "cfg.json", "prices.csv"]

    def test_pipe_is_read_once_and_not_cached(self, tmp_path):
        path = tmp_path / "in.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(PLAIN_PRICES,))
        writer.start()
        digests = {}
        try:
            series = load_price_series(path, "X-Y", digests)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert len(series) == 199 and digests == {str(path): None}
        assert cache_entries(tmp_path) == []

    def test_one_entry_per_input_after_edits(self, tmp_path):
        # a second input whose name starts with the first one's keeps its entry
        prices, swaps = tmp_path / "p.csv", tmp_path / "p.csv.old.csv"
        swaps.write_text(SWAPS)
        load_swap_records(swaps)
        for n in (5, 6, 7, 5):
            prices.write_text(PRICE_HEADER + "\n" + "".join(f"{t},1.5\n" for t in range(n)))
            assert len(load_price_series(prices, "X-Y")) == n
            digest = hashlib.sha256(prices.read_bytes()).hexdigest()
            names = cache_entries(tmp_path)
            assert len(names) == 2 and names[0].startswith(f"p.csv.{digest}."), names
            assert names[1].startswith("p.csv.old.csv.")
