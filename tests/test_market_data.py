"""Price series loading, cross rates, sampling, and synthesis tests."""

import math

import numpy as np
import pytest

from fmamm.market_data import (
    GbmParams,
    LpReturnSeries,
    PriceDataError,
    PriceSeries,
    cross_rate,
    load_price_series,
    mean_preserving_spread,
    sample_at,
    sample_gbm_path,
)


def write_csv(path, rows, header="timestamp,price"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestPriceSeries:
    @pytest.mark.parametrize("timestamps, prices, problem", [
        ([0, 1], [2.0, math.inf], "prices must be finite and positive"),
        ([0, 1], [2.0, 0.0], "prices must be finite and positive"),
        ([0, math.inf], [2.0, 2.0], "timestamps must be finite"),
        ([math.nan], [2.0], "timestamps must be finite"),
        ([1, 1], [2.0, 2.0], "timestamps must be strictly increasing"),
    ], ids=["inf-price", "zero-price", "inf-time", "nan-time-one-point", "repeated-time"])
    def test_rule(self, timestamps, prices, problem):
        with pytest.raises(PriceDataError, match=f"X-Y: {problem}"):
            PriceSeries("X-Y", timestamps, prices)


class TestLoadPriceSeries:
    def test_valid_two_rows(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["1680000000,1850.5", "1680000001,1850.75"])
        series = load_price_series(path, "WETH-USDT")
        assert len(series) == 2
        assert series[1] == (1680000001.0, 1850.75)
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


class TestCrossRate:
    def test_ratio(self):
        a = PriceSeries("LDO-USDT", [10, 11], [2.0, 2.2])
        b = PriceSeries("ETH-USDT", [10, 11], [2000.0, 2000.0])
        c = cross_rate(a, b)
        assert c.pair == "LDO-ETH"
        assert c.prices[0] == pytest.approx(0.001, rel=1e-15)

    def test_identity(self):
        a = PriceSeries("X-Y", [1, 2, 3], [5.0, 6.0, 7.0])
        c = cross_rate(a, a)
        assert np.all(c.prices == 1.0)

    def test_intersection_only(self):
        a = PriceSeries("A-Q", [1, 2, 3], [1.0, 2.0, 3.0])
        b = PriceSeries("B-Q", [2, 3, 4], [4.0, 6.0, 8.0])
        c = cross_rate(a, b)
        assert list(c.timestamps) == [2.0, 3.0]
        assert c.prices[0] == 0.5

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_ratio_rejected(self):
        a = PriceSeries("A-Q", [1, 2], [1.0, 1e300])
        b = PriceSeries("B-Q", [1, 2], [1.0, 1e-10])
        with pytest.raises(PriceDataError, match="A-B: prices must be finite"):
            cross_rate(a, b)

    def test_disjoint_ranges(self):
        a = PriceSeries("A-Q", [1, 2], [1.0, 2.0])
        b = PriceSeries("B-Q", [3, 4], [4.0, 6.0])
        with pytest.raises(PriceDataError, match="no overlapping"):
            cross_rate(a, b)


class TestSampleAt:
    def test_forward_fill(self):
        s = PriceSeries("X-Y", [0, 10, 20], [1.0, 2.0, 3.0])
        got = sample_at(s, [0, 5, 10, 19, 20])
        assert list(got) == [1.0, 1.0, 2.0, 2.0, 3.0]

    def test_out_of_range_rejected(self):
        s = PriceSeries("X-Y", [0, 10], [1.0, 2.0])
        with pytest.raises(PriceDataError, match="outside"):
            sample_at(s, [11])
        with pytest.raises(PriceDataError, match="outside"):
            sample_at(s, [-1])

    def test_long_gap_warns(self):
        s = PriceSeries("X-Y", [0, 1000], [1.0, 2.0])
        with pytest.warns(UserWarning, match="forward-filled"):
            sample_at(s, [500])

    def test_short_gap_silent(self, recwarn):
        s = PriceSeries("X-Y", [0, 100], [1.0, 2.0])
        sample_at(s, [50])
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
        with pytest.raises(ValueError):
            mean_preserving_spread([1.0], -1.0)


class TestLpReturnSeries:
    def test_from_values_and_csv(self, tmp_path):
        s = LpReturnSeries.from_values("venue", [0, 12, 24], [100.0, 110.0, 99.0])
        assert s.roi[0] == 0.0
        assert s.terminal_roi == pytest.approx(-0.01, rel=1e-12)
        path = tmp_path / "lp.csv"
        s.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "timestamp,value,cumulative_roi"
        assert lines[1] == "0,100.0,0.0"
        # byte-identical on rewrite
        s.write_csv(tmp_path / "lp2.csv")
        assert (tmp_path / "lp2.csv").read_bytes() == path.read_bytes()
