"""Full-range baseline tests: accrual, compounding, and ROI identities."""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from fmamm.market_data import GbmParams, LpReturnSeries, PriceSeries, sample_at, sample_gbm_path
from fmamm.uniswap import (
    SWAP_LOG_DTYPE,
    SwapRecord,
    as_swap_log,
    load_swap_records,
    per_block_swap_volume,
    run_baseline,
)


def record(block=1, ts=10, fee=100.0, token="token1", liq=1e6, price=4.0):
    return SwapRecord(block, ts, fee, token, liq, price)


class TestRunBaseline:
    def test_no_swaps_flat_price(self):
        series = PriceSeries("X-Y", [0, 12, 24], [4.0, 4.0, 4.0])
        out = run_baseline([], series, 1.0)
        assert np.all(out.roi == 0.0)

    def test_no_swaps_divergence_identity(self):
        series = PriceSeries("X-Y", [0, 12], [4.0, 9.0])
        out = run_baseline([], series, 7.0)
        assert out.roi[-1] == pytest.approx(np.sqrt(9.0 / 4.0) - 1.0, rel=1e-12)

    def test_single_swap_flat_price(self):
        series = PriceSeries("X-Y", [0, 12], [4.0, 4.0])
        rec = record(block=1, ts=5, fee=100.0, liq=1e6, price=4.0)
        out = run_baseline([rec], series, 1.0)
        # share s = 1e-6; roi = s*fee / (2*L*sqrt(p))
        assert out.roi[-1] == pytest.approx(1e-4 / 4.0, rel=1e-12)

    def test_roi_invariant_to_position_scale(self):
        series = PriceSeries("X-Y", [0, 12, 24, 36], [4.0, 4.4, 3.9, 4.2])
        recs = [
            record(block=1, ts=6, fee=10.0, liq=1e8, price=4.2),
            record(block=2, ts=18, fee=7.0, token="token0", liq=1e8, price=4.1),
            record(block=3, ts=30, fee=3.0, liq=1e8, price=4.0),
        ]
        a = run_baseline(recs, series, 1.0)
        b = run_baseline(recs, series, 1e6)
        assert np.allclose(a.roi, b.roi, rtol=1e-12, atol=1e-15)

    def test_fee_monotonicity(self):
        series = PriceSeries("X-Y", [0, 12, 24], [4.0, 4.1, 4.05])
        base = run_baseline([record(block=1, ts=6, fee=5.0, liq=1e8)], series, 1.0)
        more = run_baseline(
            [
                record(block=1, ts=6, fee=5.0, liq=1e8),
                record(block=2, ts=18, fee=5.0, liq=1e8, price=4.1),
            ],
            series,
            1.0,
        )
        assert np.all(more.roi >= base.roi - 1e-15)

    def test_unsorted_records_rejected(self):
        series = PriceSeries("X-Y", [0, 12], [4.0, 4.0])
        recs = [record(block=2, ts=5), record(block=1, ts=6)]
        with pytest.raises(ValueError, match="sorted"):
            run_baseline(recs, series, 1.0)

    @pytest.mark.parametrize("as_log", [False, True])
    def test_decreasing_timestamps_rejected(self, as_log):
        # sorted by block, but the fee at t=120 would be missed at the t=130
        # mark behind the record at t=150
        series = PriceSeries("X-Y", [0, 130, 260], [2.0, 2.0, 2.0])
        recs = [record(block=1, ts=150), record(block=1, ts=120), record(block=2, ts=250)]
        with pytest.raises(ValueError, match=r"swap record 1: timestamp 120 before .* 150"):
            run_baseline(as_swap_log(recs) if as_log else recs, series, 1.0)

    def test_cadences_agree_when_prices_align(self):
        # record timestamps sit exactly on marks, so swap/block compounding
        # use the same conversion price
        series = PriceSeries("X-Y", [0, 12, 24], [4.0, 4.0, 4.0])
        recs = [record(block=1, ts=12, fee=10.0, liq=1e6)]
        a = run_baseline(recs, series, 1.0, compound_cadence="swap")
        b = run_baseline(recs, series, 1.0, compound_cadence="block")
        assert np.allclose(a.values, b.values, rtol=1e-12)

    def test_day_cadence_defers_compounding(self):
        series = PriceSeries("X-Y", [0, 12, 86_500], [4.0, 4.0, 4.0])
        recs = [record(block=1, ts=6, fee=10.0, liq=1e3)]
        daily = run_baseline(recs, series, 1.0, compound_cadence="day")
        # value identical at flat price whether compounded or pending
        assert daily.values[-1] == pytest.approx(
            run_baseline(recs, series, 1.0).values[-1], rel=1e-12
        )

    def test_big_position_warns(self):
        series = PriceSeries("X-Y", [0, 12], [4.0, 4.0])
        with pytest.warns(UserWarning, match="small-position"):
            run_baseline([record(liq=10.0)], series, 1.0)


# The scalar reference replay: one SimPosition per step, built from the
# per-swap helpers below.  run_baseline must match it bit for bit.


@dataclass(frozen=True)
class SimPosition:
    """Simulated full-range position: liquidity plus uncompounded fees."""

    liquidity: float
    fees_token0: float = 0.0
    fees_token1: float = 0.0

    def __post_init__(self) -> None:
        if not self.liquidity > 0.0:
            raise ValueError(f"liquidity must be positive, got {self.liquidity}")


def accrue_swap_fees(position: SimPosition, record: SwapRecord) -> SimPosition:
    """Credit the position its pro-rata share of one swap's fee."""
    share = position.liquidity / record.active_liquidity
    earned = record.fee_amount * share
    if record.fee_token == "token0":
        return replace(position, fees_token0=position.fees_token0 + earned)
    return replace(position, fees_token1=position.fees_token1 + earned)


def compound_fees(position: SimPosition, price: float) -> SimPosition:
    """Convert pending fees into extra full-range liquidity at ``price``.

    Frictionless by assumption: the pending value ``fees0*p + fees1`` buys
    ``value / (2*sqrt(p))`` liquidity with no slippage or gas.
    """
    if not price > 0.0:
        raise ValueError(f"price must be positive, got {price}")
    pending = position.fees_token0 * price + position.fees_token1
    if pending == 0.0:
        return position
    return SimPosition(position.liquidity + pending / (2.0 * math.sqrt(price)))


def position_value(position: SimPosition, price: float) -> float:
    """Position value in token1 terms: 2*L*sqrt(p) plus pending fees."""
    if not price > 0.0:
        raise ValueError(f"price must be positive, got {price}")
    return (
        2.0 * position.liquidity * math.sqrt(price)
        + position.fees_token0 * price
        + position.fees_token1
    )


class TestAccrual:
    def test_proportional_share(self):
        pos = accrue_swap_fees(SimPosition(1.0), record(fee=100.0, liq=1e6))
        assert pos.fees_token1 == pytest.approx(1e-4, rel=1e-12)
        assert pos.fees_token0 == 0.0

    def test_zero_fee_unchanged(self):
        pos = SimPosition(1.0)
        assert accrue_swap_fees(pos, record(fee=0.0)) == pos

    def test_tiny_share_no_underflow(self):
        pos = accrue_swap_fees(SimPosition(1e-6), record(fee=1.0, liq=1e6))
        assert pos.fees_token1 == pytest.approx(1e-12, rel=1e-12)
        assert pos.fees_token1 > 0.0

    def test_token0_fee(self):
        pos = accrue_swap_fees(SimPosition(2.0), record(fee=50.0, token="token0", liq=100.0))
        assert pos.fees_token0 == pytest.approx(1.0, rel=1e-12)


class TestCompounding:
    def test_zero_pending_unchanged(self):
        pos = SimPosition(1.0)
        assert compound_fees(pos, 4.0) == pos

    def test_value_identity(self):
        # pending worth 2 token1 at price 4 buys 2/(2*sqrt(4)) = 0.5 liquidity
        pos = SimPosition(1.0, fees_token1=2.0)
        out = compound_fees(pos, 4.0)
        assert out.liquidity == pytest.approx(1.5, rel=1e-12)
        assert out.fees_token1 == 0.0

    def test_token0_converted_at_price(self):
        pos = SimPosition(1.0, fees_token0=1.0)
        out = compound_fees(pos, 4.0)
        assert out.liquidity == pytest.approx(1.0 + 4.0 / 4.0, rel=1e-12)

    def test_two_compounds_equal_one_at_fixed_price(self):
        a = compound_fees(compound_fees(SimPosition(1.0, fees_token1=1.0), 4.0), 4.0)
        b = compound_fees(SimPosition(1.0, fees_token1=1.0), 4.0)
        assert a.liquidity == pytest.approx(b.liquidity, rel=1e-15)
        split = compound_fees(
            SimPosition(compound_fees(SimPosition(1.0, fees_token1=0.4), 4.0).liquidity, fees_token1=0.6),
            4.0,
        )
        assert split.liquidity == pytest.approx(b.liquidity, rel=1e-12)

    def test_compounding_preserves_value(self):
        pos = SimPosition(1.0, fees_token0=0.5, fees_token1=2.0)
        out = compound_fees(pos, 4.0)
        assert position_value(out, 4.0) == pytest.approx(position_value(pos, 4.0), rel=1e-12)


class TestPositionValue:
    def test_identity(self):
        assert position_value(SimPosition(1.0), 4.0) == 4.0

    def test_zero_liquidity_rejected(self):
        with pytest.raises(ValueError):
            SimPosition(0.0)

    def test_monotone_in_price(self):
        values = [position_value(SimPosition(3.0), p) for p in (1.0, 2.0, 4.0, 9.0)]
        assert values == sorted(values)


def reference_baseline(records, price_series, initial_liquidity, compound_cadence="block"):
    """Per-record replay from the scalar helpers, one SimPosition per step."""
    if compound_cadence == "swap" and records:
        clipped = [min(max(r.timestamp, price_series.start), price_series.end) for r in records]
        record_prices = sample_at(price_series, clipped)
    position = SimPosition(initial_liquidity)
    values = []
    rec_i = 0
    prev_day = math.floor(price_series.start / 86400.0)
    for t, price in zip(price_series.timestamps, price_series.prices):
        while rec_i < len(records) and records[rec_i].timestamp <= t:
            position = accrue_swap_fees(position, records[rec_i])
            if compound_cadence == "swap":
                position = compound_fees(position, float(record_prices[rec_i]))
            rec_i += 1
        day = math.floor(t / 86400.0)
        if compound_cadence == "block" or (compound_cadence == "day" and day != prev_day):
            position = compound_fees(position, float(price))
        prev_day = day
        values.append(position_value(position, float(price)))
    return LpReturnSeries.from_values("uniswap_v3_full_range", price_series.timestamps, values)


def random_replay(seed, heavy=False, n_marks=1500, n_swaps=4000, step=300.0, overhang=900):
    """A GBM mark grid over several days and sorted random swaps on it,
    some at mark times, some with zero fee, and with ``overhang`` some
    after the last mark.

    With ``heavy``, prices sit near 1 and each fee is about 2% of the active
    liquidity, so the position compounds fast and a reordered floating-point
    operation shows in the last bits of the values.
    """
    p0 = 1.0 if heavy else 1800.0
    marks = sample_gbm_path(GbmParams(p0, 0.002, step_seconds=step,
                                      horizon_seconds=step * n_marks, seed=seed,
                                      start_time=1_680_000_000.0))
    rng = np.random.default_rng(seed)
    times = rng.integers(1_680_000_001, int(marks.end) + overhang + 1, size=n_swaps)
    on_mark = rng.random(n_swaps) < 0.05
    times[on_mark] = rng.choice(marks.timestamps[1:].astype(np.int64), size=on_mark.sum())
    times.sort()
    liquidity = 1e9 * np.exp(0.3 * rng.standard_normal(n_swaps))
    fees = (0.02 * liquidity if heavy else 2.0) * rng.exponential(1.0, n_swaps)
    fees *= rng.random(n_swaps) > 0.1
    tokens = np.where(rng.random(n_swaps) < 0.5, "token0", "token1")
    prices = p0 * np.exp(0.01 * rng.standard_normal(n_swaps))
    records = [
        SwapRecord(i // 3, int(t), float(f), str(k), float(a), float(p))
        for i, (t, f, k, a, p) in enumerate(zip(times, fees, tokens, liquidity, prices))
    ]
    return marks, records


class TestBaselineMatchesReference:
    @pytest.mark.parametrize("seed, heavy", [(0, False), (1, True)])
    @pytest.mark.parametrize("cadence", ["swap", "block", "day"])
    def test_bit_identical(self, seed, heavy, cadence, recwarn):
        marks, records = random_replay(seed, heavy)
        want = reference_baseline(records, marks, 2.5e5, cadence)
        for given in (records, as_swap_log(records)):
            got = run_baseline(given, marks, 2.5e5, cadence)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.roi.tobytes() == want.roi.tobytes()
            assert got.timestamps.tobytes() == want.timestamps.tobytes()

    @pytest.mark.parametrize("cadence", ["swap", "block", "day"])
    def test_swaps_outside_the_marks(self, cadence):
        # one rule at every cadence: a swap before the first mark is accrued
        # at the first mark, and one after the last mark is ignored
        marks, inside = random_replay(3, heavy=True, n_marks=300, n_swaps=800, overhang=0)
        start, end = int(marks.start), int(marks.end)
        early = [replace(r, block=0, timestamp=start - 50 + 10 * k) for k, r in enumerate(inside[:4])]
        late = [replace(r, block=10**6, timestamp=end + 1 + k) for k, r in enumerate(inside[:3])]
        records = early + inside + late
        want = run_baseline([replace(r, timestamp=start) for r in early] + inside,
                            marks, 2.5e5, cadence)
        with pytest.warns(UserWarning, match="3 swap records after the last price mark"):
            got = run_baseline(records, marks, 2.5e5, cadence)
        assert got.values.tobytes() == want.values.tobytes()
        oracle = reference_baseline(records, marks, 2.5e5, cadence)
        assert oracle.values.tobytes() == want.values.tobytes()

    def test_loaded_log_matches_records(self, tmp_path):
        marks, records = random_replay(2, n_marks=300, n_swaps=800)
        path = tmp_path / "swaps.csv"
        path.write_text(
            "block,timestamp,fee_amount,fee_token,active_liquidity,post_price\n"
            + "".join(f"{r.block},{r.timestamp},{r.fee_amount!r},{r.fee_token},"
                      f"{r.active_liquidity!r},{r.post_price!r}\n" for r in records)
        )
        log = load_swap_records(path)
        assert log.dtype.names == SWAP_LOG_DTYPE.names
        assert np.asarray(log).tobytes() == np.asarray(as_swap_log(records)).tobytes()
        with pytest.warns(UserWarning, match="after the last price mark"):
            got = run_baseline(log, marks, 2.5e5, "day")
        want = reference_baseline(records, marks, 2.5e5, "day")
        assert got.values.tobytes() == want.values.tobytes()
        settle = marks.timestamps[1:]
        assert np.array_equal(per_block_swap_volume(log, settle, 0.003),
                              per_block_swap_volume(records, settle, 0.003))

    def test_foreign_array_rejected(self):
        with pytest.raises(ValueError, match="swap log fields"):
            as_swap_log(np.zeros(2, dtype=[("block", "i8")]))


class TestSwapRecordIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "swaps.csv"
        path.write_text(
            "block,timestamp,fee_amount,fee_token,active_liquidity,post_price\n"
            "100,1680000000,12.5,token1,2.5e8,1850.0\n"
            "101,1680000012,0.004,token0,2.4e8,1851.0\n"
        )
        recs = load_swap_records(path)
        assert len(recs) == 2
        assert recs[0].fee_amount == 12.5
        assert recs[1].fee_token == "token0"

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "swaps.csv"
        path.write_text(
            "block,timestamp,fee_amount,fee_token,active_liquidity,post_price\n"
            "100,1680000000,12.5,token1,0.0,1850.0\n"
        )
        with pytest.raises(ValueError, match=":2:"):
            load_swap_records(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "swaps.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_swap_records(path)


class TestPerBlockVolume:
    def test_fee_inversion(self):
        recs = [
            record(block=1, ts=5, fee=3.0, token="token1", price=2.0),
            record(block=1, ts=11, fee=1.0, token="token0", price=2.0),
            record(block=2, ts=17, fee=2.0, token="token1", price=4.0),
        ]
        vols = per_block_swap_volume(recs, np.array([12.0, 24.0]), pool_fee=0.01)
        # block 1: 3/0.01/2 + 1/0.01 = 150 + 100; block 2: 2/0.01/4 = 50
        assert vols[0] == pytest.approx(250.0, rel=1e-12)
        assert vols[1] == pytest.approx(50.0, rel=1e-12)

    def test_swaps_after_last_block_dropped(self):
        recs = [record(block=1, ts=100, fee=1.0)]
        vols = per_block_swap_volume(recs, np.array([12.0]), pool_fee=0.003)
        assert vols[0] == 0.0
