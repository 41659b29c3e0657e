"""Price series loading, sampling, and synthesis tests."""

import math
import re

import numpy as np
import pytest

from fmamm.backtest import block_grid_series
from fmamm.cli import _write_runs
from fmamm.market_data import (
    GbmParams,
    PriceDataError,
    PriceSeries,
    cumulative_roi,
    load_price_series,
    mean_preserving_spread,
    sample_gbm_path,
)


def write_csv(path, rows, header="timestamp,price"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestPriceSeries:
    @pytest.mark.parametrize("timestamps, prices, problem", [
        ([0, 1], [2.0, math.inf], "point 1: price must be finite and positive, got inf"),
        ([0, 1], [2.0, 0.0], "point 1: price must be finite and positive, got 0.0"),
        ([0, math.inf], [2.0, 2.0], "point 1: timestamp inf is not finite"),
        ([math.nan], [2.0], "point 0: timestamp nan is not finite"),
        ([1, 1], [2.0, 2.0], "point 1: timestamp 1 not after previous 1"),
        ([2**53, 2**53 + 1], [2.0, 2.0],
         "point 1: timestamp 9007199254740992.0 not after previous 9007199254740992.0"),
        ([], [], "empty price series"),
        ([0, 1], [2.0], "2 timestamps vs 1 prices"),
    ], ids=["inf-price", "zero-price", "inf-time", "nan-time-one-point", "repeated-time",
            "ints-colliding-as-float64", "empty", "mismatched"])
    def test_rule(self, timestamps, prices, problem):
        with pytest.raises(PriceDataError, match=f"^X-Y: {re.escape(problem)}$"):
            PriceSeries("X-Y", timestamps, prices)


class TestLoadPriceSeries:
    def test_valid_two_rows(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["1680000000,1850.5", "1680000001,1850.75"])
        series = load_price_series(path, "WETH-USDT")
        assert len(series) == 2
        assert (series.timestamps[1], series.prices[1]) == (1680000001.0, 1850.75)
        assert series.pair == "WETH-USDT"

    def test_nonpositive_price_names_row(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["100,2.0", "101,-1.0"])
        with pytest.raises(PriceDataError, match=":3:"):
            load_price_series(path, "X-Y")

    def test_out_of_order_timestamps(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["100,2.0", "100,2.1"])
        with pytest.raises(PriceDataError, match="not after"):
            load_price_series(path, "X-Y")

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["100,2.0"], header="time,px")
        with pytest.raises(PriceDataError, match="header"):
            load_price_series(path, "X-Y")

    def test_malformed_row_names_line(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["100,2.0", "oops"])
        with pytest.raises(PriceDataError, match=":3:"):
            load_price_series(path, "X-Y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_price_series(tmp_path / "nope.csv", "X-Y")

    def test_series_is_immutable(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["100,2.0", "101,2.1"])
        series = load_price_series(path, "X-Y")
        with pytest.raises(ValueError):
            series.prices[0] = 5.0


class TestSampleAt:
    """Sampling a series onto its block grid: forward-filled marks and trade
    prices, the times float64 rounding puts outside the series, and the
    grid's gap warning."""

    def test_forward_fill(self):
        s = PriceSeries("X-Y", [0, 10, 20], [1.0, 2.0, 3.0])
        grid = block_grid_series(s, mu=5.0, gamma=1.0)
        assert list(grid.marks.prices) == [1.0, 1.0, 2.0, 2.0, 3.0]
        assert list(grid.p_stars) == [1.0, 1.0, 2.0, 2.0]  # at 4, 9, 14 and 19 s

    def test_out_of_range_rejected(self):
        # float64 rounding carries these clocks outside the series, and the
        # error is the clock's, not the price data's
        fine = 12.0 + 0.4 * 2.0**-12
        for (start, end), mu, gamma, problem in [
            # the span 2**53 + 3 rounds up to one mu, and so does the last mark
            ((-1.0, 2.0**53 + 2), 2.0**53 + 4, 0.0,
             "round to times [-1, 9007199254740996.0] outside the series' range "
             "[-1, 9007199254740994.0]"),
            # the first settlement rounds down by more than a quarter of the
            # spacing above 2**40, and a latency just under mu takes its trade
            # time below 2**40, where the spacing halves
            ((2.0**40, 2.0**40 + 100), fine, math.nextafter(fine, 0.0),
             "round to times [1099511627775.9999, 1099511627872.0007] outside the series' "
             "range [1099511627776, 1099511627876]"),
        ]:
            s = PriceSeries("X-Y", [start, end], [1.0, 2.0])
            with pytest.raises(ValueError, match=re.escape(
                    f"mu={mu!r} and gamma={gamma!r} {problem}")) as caught:
                block_grid_series(s, mu, gamma)
            assert type(caught.value) is ValueError

    def test_long_gap_warns(self):
        # one warning that counts the blocks filled across a long gap (the
        # marks at 400-900 s), and names the line that built the grid
        s = PriceSeries("X-Y", [0, 1000], [1.0, 2.0])
        with pytest.warns(UserWarning) as caught:
            block_grid_series(s, mu=100.0)
        [warning] = caught
        assert "forward-filled 6 of 10 blocks" in str(warning.message)
        assert "(max gap 900s)" in str(warning.message)
        assert warning.filename == __file__

    def test_short_gap_silent(self, recwarn):
        s = PriceSeries("X-Y", [0, 100], [1.0, 2.0])
        block_grid_series(s, mu=50.0)
        assert not recwarn.list


class TestGbm:
    def test_zero_volatility_constant(self):
        series = sample_gbm_path(GbmParams(2000.0, 0.0, horizon_seconds=100, step_seconds=10))
        assert np.all(series.prices == 2000.0)
        assert len(series) == 11

    def test_bit_reproducible(self):
        p = GbmParams(2000.0, 0.0005, step_seconds=12, horizon_seconds=3600, seed=42)
        a, b = sample_gbm_path(p), sample_gbm_path(p)
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.timestamps, b.timestamps)
        c = sample_gbm_path(GbmParams(2000.0, 0.0005, step_seconds=12, horizon_seconds=3600, seed=43))
        assert not np.array_equal(a.prices, c.prices)

    def test_martingale_terminal_mean(self):
        # driftless GBM: mean terminal price over many seeds ~ initial price
        terminals = np.array(
            [
                sample_gbm_path(
                    GbmParams(2000.0, 0.0005, step_seconds=60, horizon_seconds=3600, seed=s)
                ).prices[-1]
                for s in range(10_000)
            ]
        )
        se = terminals.std(ddof=1) / np.sqrt(terminals.size)
        assert abs(terminals.mean() - 2000.0) < 3 * se

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GbmParams(0.0, 0.1)
        with pytest.raises(ValueError):
            GbmParams(1.0, -0.1)
        with pytest.raises(ValueError):
            GbmParams(1.0, 0.1, step_seconds=10, horizon_seconds=5)

    @pytest.mark.parametrize("field", ["initial_price", "volatility", "step_seconds",
                                       "horizon_seconds", "start_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            GbmParams(**{"initial_price": 1.0, "volatility": 0.1, field: value})


class TestMeanPreservingSpread:
    def test_zero_sd_identity(self):
        base = np.array([1.0, 2.0, 3.0])
        out = mean_preserving_spread(base, 0.0)
        assert np.array_equal(out, base)

    def test_two_point_split(self):
        base = np.full(10_000, 2000.0)
        out = mean_preserving_spread(base, 100.0, rng=1)
        assert set(np.unique(out)) == {1900.0, 2100.0}
        counts = (out == 2100.0).sum()
        assert 4500 < counts < 5500

    def test_sample_mean_preserved(self):
        rng = np.random.default_rng(3)
        base = rng.lognormal(np.log(2000.0), 0.2, size=100_000)
        out = mean_preserving_spread(base, 50.0, rng=4)
        se = (out - base).std(ddof=1) / np.sqrt(base.size)
        assert abs(out.mean() - base.mean()) < 3 * se
        assert out.var() >= base.var()

    def test_positivity_cap(self):
        base = np.array([1.0, 1.0, 1.0, 1.0])
        out = mean_preserving_spread(base, 10.0, rng=5)
        assert (out > 0).all()
        assert set(np.unique(out)) <= {0.5, 1.5}

    def test_negative_sd_rejected(self):
        for sd in (-1.0, math.nan):
            with pytest.raises(ValueError, match="epsilon_sd"):
                mean_preserving_spread([1.0], sd)


class TestCumulativeRoi:
    def test_cumulative_roi_and_csv(self, tmp_path):
        values = [100.0, 110.0, 99.0]
        roi = cumulative_roi(values)
        assert roi.dtype == np.float64 and roi[0] == 0.0
        assert roi[-1] == pytest.approx(-0.01, rel=1e-12)
        for out in (tmp_path / "a", tmp_path / "b"):
            out.mkdir()
            _write_runs(out, np.array([0.0, 12.0, 24.0]), {"venue": np.array(values)})
        path = tmp_path / "a" / "venue_returns.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "timestamp,value,cumulative_roi"
        assert lines[1] == "0,100.0,0.0"
        # byte-identical on rewrite
        assert (tmp_path / "b" / "venue_returns.csv").read_bytes() == path.read_bytes()
