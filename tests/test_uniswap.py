"""Full-range baseline tests: accrual, compounding, and ROI identities."""

import bisect
import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_backtest import forward_fill

from fmamm.backtest import block_grid_series
from fmamm.market_data import (
    GbmParams,
    PriceSeries,
    cumulative_roi,
    sample_gbm_path,
)
from fmamm.uniswap import (
    _FEE_WORDS,
    _SWAP_FIELD_RULES,
    COMPOUND_CADENCES,
    FEE_TOKENS,
    SWAP_LOG_DTYPE,
    _token_words,
    as_swap_log,
    load_swap_records,
    per_block_swap_volume,
    run_baseline,
)


def record(block=1, ts=10, fee=100.0, token=b"token1", liq=1e6, price=4.0):
    """One swap log row, the CSV's six fields in order."""
    return block, ts, fee, token, liq, price


def log_of(*rows):
    """A swap log of ``rows``, built without the code under test."""
    return np.array(list(rows), SWAP_LOG_DTYPE)


NO_SWAPS = log_of()


class TestRunBaseline:
    def test_no_swaps_flat_price(self):
        series = PriceSeries("X-Y", [0, 12, 24], [4.0, 4.0, 4.0])
        out = run_baseline(NO_SWAPS, series, 1.0)
        assert np.all(cumulative_roi(out) == 0.0)

    @pytest.mark.parametrize("liquidity", [0.0, -1.0, math.nan, 1e-320])
    def test_bad_liquidity_rejected(self, liquidity):
        series = PriceSeries("X-Y", [0, 12], [4.0, 4.0])
        with pytest.raises(ValueError, match=f"initial_liquidity must be at least "
                                             f"2.2250738585072014e-308, got {liquidity}"):
            run_baseline(NO_SWAPS, series, liquidity)

    def test_bad_cadence_rejected(self):
        series = PriceSeries("X-Y", [0, 12], [4.0, 4.0])
        with pytest.raises(ValueError, match=re.escape(
                "compound_cadence must be one of ('swap', 'block', 'day')")):
            run_baseline(NO_SWAPS, series, 1.0, "hourly")

    @pytest.mark.parametrize("cadence", ["swap", "block", "day"])
    def test_overflowing_value_names_the_mark(self, cadence):
        # the position alone overflows at the first mark; a fee whose share
        # per unit of liquidity overflows, at the mark that accrues it
        series = PriceSeries("X-Y", [0, 12, 24], [4.0, 4.0, 4.0])
        with pytest.raises(ValueError, match=re.escape(
                "baseline value is not finite at mark 0 (price 4.0) with initial_liquidity 1e+308")):
            run_baseline(NO_SWAPS, series, 1e308, cadence)
        swaps = log_of(record(block=1, ts=5, fee=1e300, liq=1e-10))
        with pytest.warns(UserWarning, match="small-position"), pytest.raises(
                ValueError, match=re.escape("at mark 12 (price 4.0) with initial_liquidity 1.0")):
            run_baseline(swaps, series, 1.0, cadence)

    def test_no_swaps_divergence_identity(self):
        series = PriceSeries("X-Y", [0, 12], [4.0, 9.0])
        out = run_baseline(NO_SWAPS, series, 7.0)
        assert cumulative_roi(out)[-1] == pytest.approx(np.sqrt(9.0 / 4.0) - 1.0, rel=1e-12)

    def test_single_swap_flat_price(self):
        series = PriceSeries("X-Y", [0, 12], [4.0, 4.0])
        rec = record(block=1, ts=5, fee=100.0, liq=1e6, price=4.0)
        out = run_baseline(log_of(rec), series, 1.0)
        # share s = 1e-6; roi = s*fee / (2*L*sqrt(p))
        assert cumulative_roi(out)[-1] == pytest.approx(1e-4 / 4.0, rel=1e-12)

    def test_roi_invariant_to_position_scale(self):
        series = PriceSeries("X-Y", [0, 12, 24, 36], [4.0, 4.4, 3.9, 4.2])
        recs = log_of(
            record(block=1, ts=6, fee=10.0, liq=1e8, price=4.2),
            record(block=2, ts=18, fee=7.0, token=b"token0", liq=1e8, price=4.1),
            record(block=3, ts=30, fee=3.0, liq=1e8, price=4.0),
        )
        a = run_baseline(recs, series, 1.0)
        b = run_baseline(recs, series, 1e6)
        assert np.allclose(cumulative_roi(a), cumulative_roi(b), rtol=1e-12, atol=1e-15)
        # a power-of-two position scales every value exactly, so the ROI is
        # bit-identical at each cadence; marks 5 minutes apart over 3 days
        # leave fees pending between daily compoundings
        rng = np.random.default_rng(29)
        marks = PriceSeries("X-Y", 300.0 * np.arange(865),
                            4.0 * np.exp(np.cumsum(rng.normal(0.0, 0.002, 865))))
        times = np.sort(rng.integers(1, 300 * 864, 200))
        recs = log_of(*(record(block=i + 1, ts=int(t), fee=float(rng.uniform(1.0, 100.0)),
                               token=FEE_TOKENS[i % 2], liq=1e12) for i, t in enumerate(times)))
        for cadence in ("swap", "block", "day"):
            roi = cumulative_roi(run_baseline(recs, marks, 1.0, cadence))
            for k in (-3, 5, 20):
                scaled = cumulative_roi(run_baseline(recs, marks, 2.0**k, cadence))
                assert np.array_equal(scaled, roi), (cadence, k)

    def test_fee_monotonicity(self):
        series = PriceSeries("X-Y", [0, 12, 24], [4.0, 4.1, 4.05])
        base = run_baseline(log_of(record(block=1, ts=6, fee=5.0, liq=1e8)), series, 1.0)
        more = run_baseline(
            log_of(
                record(block=1, ts=6, fee=5.0, liq=1e8),
                record(block=2, ts=18, fee=5.0, liq=1e8, price=4.1),
            ),
            series,
            1.0,
        )
        assert np.all(cumulative_roi(more) >= cumulative_roi(base) - 1e-15)

    def test_unsorted_records_rejected(self):
        series = PriceSeries("X-Y", [0, 12], [4.0, 4.0])
        recs = log_of(record(block=2, ts=5), record(block=1, ts=6))
        with pytest.raises(ValueError, match="sorted"):
            run_baseline(recs, series, 1.0)

    @pytest.mark.parametrize("as_log", [False, True])
    def test_decreasing_timestamps_rejected(self, as_log):
        # sorted by block, but the fee at t=120 would be missed at the t=130
        # mark behind the record at t=150; a plain array and its record view
        # are checked alike
        series = PriceSeries("X-Y", [0, 130, 260], [2.0, 2.0, 2.0])
        recs = log_of(record(block=1, ts=150), record(block=1, ts=120), record(block=2, ts=250))
        with pytest.raises(ValueError, match=r"swap record 1: timestamp 120 before .* 150"):
            run_baseline(recs.view(np.recarray) if as_log else recs, series, 1.0)

    def test_cadences_agree_when_prices_align(self):
        # record timestamps sit exactly on marks, so swap/block compounding
        # use the same conversion price
        series = PriceSeries("X-Y", [0, 12, 24], [4.0, 4.0, 4.0])
        recs = log_of(record(block=1, ts=12, fee=10.0, liq=1e6))
        a = run_baseline(recs, series, 1.0, compound_cadence="swap")
        b = run_baseline(recs, series, 1.0, compound_cadence="block")
        assert np.allclose(a, b, rtol=1e-12)

    def test_day_cadence_defers_compounding(self):
        series = PriceSeries("X-Y", [0, 12, 86_500], [4.0, 4.0, 4.0])
        recs = log_of(record(block=1, ts=6, fee=10.0, liq=1e3))
        daily = run_baseline(recs, series, 1.0, compound_cadence="day")
        # value identical at flat price whether compounded or pending
        assert daily[-1] == pytest.approx(
            run_baseline(recs, series, 1.0)[-1], rel=1e-12
        )

    def test_big_position_warns(self):
        series = PriceSeries("X-Y", [0, 12], [4.0, 4.0])
        with pytest.warns(UserWarning, match="small-position"):
            run_baseline(log_of(record(liq=10.0)), series, 1.0)

    def test_ignored_swaps_do_not_count_toward_the_share(self):
        # the thin pool's swap after the last mark is ignored, so only the
        # replayed swap bounds the position's share: 0.1%, under the 1% that warns
        series = PriceSeries("X-Y", [0, 12, 24], [4.0, 4.0, 4.0])
        late = record(block=2, ts=30, liq=1.0)
        for swaps in (log_of(record(block=1, ts=5, liq=1e3), late), log_of(late)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_baseline(swaps, series, 1.0)
            assert [str(w.message) for w in caught] == [
                "1 swap records after the last price mark were ignored"]

    # measured at 73.1, 89.8 and 98.0 B/swap; one per-swap column kept as a
    # Python list of floats would add about 32
    @pytest.mark.parametrize("cadence, bound", [("day", 88), ("block", 108), ("swap", 118)])
    def test_peak_memory_per_swap_is_bounded(self, cadence, bound):
        # the replay-1s benchmark's shape: 200,000 swaps over 83,334 marks
        marks, records = random_replay(11, n_marks=83_333, n_swaps=200_000, step=12.0,
                                       overhang=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_baseline(records, marks, 1e3, cadence)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(records), peak / len(records)


# The scalar reference replay: one SimPosition per step, built from the
# per-swap helpers below.  run_baseline's cumulative products must match it
# within ORACLE_RTOL.

ORACLE_RTOL = 1e-12


@dataclass(frozen=True)
class SimPosition:
    """Simulated full-range position: liquidity plus uncompounded fees."""

    liquidity: float
    fees_token0: float = 0.0
    fees_token1: float = 0.0

    def __post_init__(self) -> None:
        if not self.liquidity > 0.0:
            raise ValueError(f"liquidity must be positive, got {self.liquidity}")


def accrue_swap_fees(position: SimPosition, swap) -> SimPosition:
    """Credit the position its pro-rata share of one swap's fee (a log row)."""
    share = position.liquidity / swap["active_liquidity"]
    earned = swap["fee_amount"] * share
    if swap["fee_token"] == b"token0":
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
        pos = accrue_swap_fees(SimPosition(1.0), log_of(record(fee=100.0, liq=1e6))[0])
        assert pos.fees_token1 == pytest.approx(1e-4, rel=1e-12)
        assert pos.fees_token0 == 0.0

    def test_zero_fee_unchanged(self):
        pos = SimPosition(1.0)
        assert accrue_swap_fees(pos, log_of(record(fee=0.0))[0]) == pos

    def test_tiny_share_no_underflow(self):
        pos = accrue_swap_fees(SimPosition(1e-6), log_of(record(fee=1.0, liq=1e6))[0])
        assert pos.fees_token1 == pytest.approx(1e-12, rel=1e-12)
        assert pos.fees_token1 > 0.0

    def test_token0_fee(self):
        pos = accrue_swap_fees(SimPosition(2.0),
                               log_of(record(fee=50.0, token=b"token0", liq=100.0))[0])
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
    """Per-row replay of a swap log from the scalar helpers, one SimPosition
    per step; ``swap`` compounds each row at its own post-swap price."""
    position = SimPosition(initial_liquidity)
    values = []
    rec_i = 0
    prev_day = math.floor(price_series.start / 86400.0)
    for t, price in zip(price_series.timestamps, price_series.prices):
        while rec_i < len(records) and records[rec_i]["timestamp"] <= t:
            position = accrue_swap_fees(position, records[rec_i])
            if compound_cadence == "swap":
                position = compound_fees(position, float(records[rec_i]["post_price"]))
            rec_i += 1
        day = math.floor(t / 86400.0)
        if compound_cadence == "block" or (compound_cadence == "day" and day != prev_day):
            position = compound_fees(position, float(price))
        prev_day = day
        values.append(position_value(position, float(price)))
    return np.array(values)


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
    tokens = np.where(rng.random(n_swaps) < 0.5, b"token0", b"token1")
    prices = p0 * np.exp(0.01 * rng.standard_normal(n_swaps))
    records = np.rec.fromarrays((np.arange(n_swaps) // 3, times, fees, tokens, liquidity, prices),
                                dtype=SWAP_LOG_DTYPE)
    return marks, records


def assert_matches_oracle(got, want):
    np.testing.assert_allclose(got, want, rtol=ORACLE_RTOL, atol=0.0)
    # one read-only value per mark
    assert got.dtype == np.float64 and got.shape == want.shape and not got.flags.writeable


@st.composite
def swap_logs(draw):
    """A few marks over several days and a sorted swap log around them,
    some swaps before the first mark, on marks or after the last one, each
    fee up to 5% of its active liquidity."""
    steps = draw(st.lists(st.integers(1, 2 * 86400), max_size=25))
    times = 1_680_000_000 + np.cumsum([0] + steps)
    prices = draw(st.lists(st.floats(1e-3, 1e3), min_size=times.size, max_size=times.size))
    marks = PriceSeries("X-Y", times, prices)
    when = st.integers(int(times[0]) - 600, int(times[-1]) + 600) | st.sampled_from(times)
    swap = st.tuples(when,
                     st.just(0.0) | st.floats(0.0, 0.05), st.sampled_from(FEE_TOKENS),
                     st.floats(1e3, 1e12), st.floats(1e-3, 1e3))
    swaps = sorted(draw(st.lists(swap, max_size=60)), key=lambda s: s[0])
    records = log_of(*((i, t, f * a, k, a, p) for i, (t, f, k, a, p) in enumerate(swaps)))
    return marks, records


class TestBaselineMatchesReference:
    @pytest.mark.parametrize("seed, heavy", [(0, False), (1, True)])
    @pytest.mark.parametrize("cadence", ["swap", "block", "day"])
    def test_matches_reference(self, seed, heavy, cadence, recwarn):
        marks, records = random_replay(seed, heavy)
        want = reference_baseline(records, marks, 2.5e5, cadence)
        got = run_baseline(records, marks, 2.5e5, cadence)
        assert_matches_oracle(got, want)

    @settings(max_examples=200, deadline=None)
    @given(swap_logs(), st.sampled_from(["swap", "block", "day"]))
    def test_random_logs_match_reference(self, replay, cadence):
        marks, records = replay
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # big positions, ignored swaps
            assert_matches_oracle(run_baseline(records, marks, 1.0, cadence),
                                  reference_baseline(records, marks, 1.0, cadence))

    @pytest.mark.parametrize("cadence", ["swap", "block", "day"])
    def test_swaps_outside_the_marks(self, cadence):
        # one rule at every cadence: a swap before the first mark is accrued
        # at the first mark, and one after the last mark is ignored
        marks, inside = random_replay(3, heavy=True, n_marks=300, n_swaps=800, overhang=0)
        start, end = int(marks.start), int(marks.end)
        early, late = inside[:4].copy(), inside[:3].copy()
        early.block, early.timestamp = 0, start - 50 + 10 * np.arange(4)
        late.block, late.timestamp = 10**6, end + 1 + np.arange(3)
        records = np.concatenate((early, inside, late))
        at_start = early.copy()
        at_start.timestamp = start
        want = run_baseline(np.concatenate((at_start, inside)), marks, 2.5e5, cadence)
        with pytest.warns(UserWarning, match="3 swap records after the last price mark"):
            got = run_baseline(records, marks, 2.5e5, cadence)
        assert got.tobytes() == want.tobytes()
        assert_matches_oracle(got, reference_baseline(records, marks, 2.5e5, cadence))
        # with every swap after the last mark, the position stays at 2*L*sqrt(p)
        with pytest.warns(UserWarning, match="3 swap records after the last price mark"):
            flat = run_baseline(late, marks, 2.5e5, cadence)
        assert flat.tobytes() == (2.0 * 2.5e5 * np.sqrt(marks.prices)).tobytes()
        assert_matches_oracle(flat, reference_baseline(late, marks, 2.5e5, cadence))

    def test_swap_cadence_compounds_at_each_swaps_price(self):
        # marks 600 s apart on a per-second path: a swap compounds at its own
        # post-swap price, not at a mark up to 600 s stale, so the replay reads
        # no price between the marks and forward-fills nothing
        path = sample_gbm_path(GbmParams(1.0, 0.002, step_seconds=1, horizon_seconds=86_400,
                                         seed=8, start_time=1_680_000_000.0))
        marks = block_grid_series(path, mu=600.0).marks
        rng = np.random.default_rng(8)
        times = np.sort(rng.integers(int(path.start) + 1, int(path.end) + 1, 2000))
        records = np.rec.fromarrays(
            (np.arange(times.size), times, 2e6 * rng.exponential(1.0, times.size),
             np.where(rng.random(times.size) < 0.5, b"token0", b"token1"),
             np.full(times.size, 1e9), forward_fill(path, times)[0]), dtype=SWAP_LOG_DTYPE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_baseline(records, marks, 2.5e5, "swap")
        assert_matches_oracle(got, reference_baseline(records, marks, 2.5e5, "swap"))

    def test_loaded_log_matches_records(self, tmp_path):
        marks, records = random_replay(2, n_marks=300, n_swaps=800)
        path = tmp_path / "swaps.csv"
        path.write_text(
            "block,timestamp,fee_amount,fee_token,active_liquidity,post_price\n"
            + "".join(f"{b},{t},{f!r},{k.decode()},{a!r},{p!r}\n"
                      for b, t, f, k, a, p in records.tolist())
        )
        log = load_swap_records(path)
        assert log.dtype.names == SWAP_LOG_DTYPE.names
        assert np.asarray(log).tobytes() == np.asarray(records).tobytes()
        with pytest.warns(UserWarning, match="after the last price mark"):
            got = run_baseline(log, marks, 2.5e5, "day")
        assert_matches_oracle(got, reference_baseline(records, marks, 2.5e5, "day"))
        with pytest.warns(UserWarning, match="after the last price mark"):
            volumes = [per_block_swap_volume(swaps, marks.timestamps, 0.003)
                       for swaps in (log, records)]
        assert np.array_equal(*volumes)

    def test_foreign_array_rejected(self):
        foreign = np.dtype([("block", "i8")])
        with pytest.raises(ValueError, match=re.escape(
                f"a swap log must be a 1-D array of SWAP_LOG_DTYPE, got an array of dtype {foreign}")):
            as_swap_log(np.zeros(2, foreign))

    @pytest.mark.parametrize("field, value, message", [
        ("fee_token", "tokX", "fee_token must be one of"),
        ("fee_amount", -1.0, "fee_amount must be non-negative"),
        ("fee_amount", math.nan, "fee_amount must be non-negative"),
        ("active_liquidity", -1e6, "active_liquidity must be positive"),
        ("post_price", 0.0, "post_price must be positive"),
        ("timestamp", 4, "timestamp 4 before the previous record's 5"),
        ("fee_amount", math.inf, "fee_amount must be non-negative and finite, got inf"),
        ("active_liquidity", math.inf, "active_liquidity must be positive and finite, got inf"),
        ("post_price", math.inf, "post_price must be positive and finite, got inf"),
        ("block", 0, "block 0 before the previous record's 1; swap records must be sorted by block"),
    ])
    def test_raw_log_values_checked(self, field, value, message):
        """A raw array gets the record rules: "tokX" is neither token, so the
        baseline replay and the volume inference cannot read it two ways."""
        log = log_of(record(block=1, ts=5), record(block=2, ts=17))
        log[field][1] = value
        series = PriceSeries("X-Y", [0, 12, 24], [4.0, 4.0, 4.0])
        for use in (as_swap_log, lambda log: run_baseline(log, series, 1.0),
                    lambda log: per_block_swap_volume(log, series.timestamps, 0.003)):
            with pytest.raises(ValueError, match=f"swap record 1: {re.escape(message)}"):
                use(log)


    @pytest.mark.parametrize("token", [b"token00", b"token1 "])
    def test_records_checked_before_the_token_is_cut(self, token):
        """The ``S7`` token column holds one byte past a token name, so no
        longer name is cut to a valid one."""
        with pytest.raises(ValueError, match=re.escape(f"swap record 0: fee_token must be one "
                                                       f"of ('token0', 'token1'), "
                                                       f"got {token.decode()!r}")):
            as_swap_log(log_of(record(token=token)))

    @pytest.mark.parametrize("token", ["tökX"], ids=["latin-1"])
    def test_non_ascii_token_names_the_record(self, token):
        """A token's bytes are quoted as the Latin-1 text a CSV field of them
        holds."""
        log = log_of(record(block=1, ts=5), record(block=2, ts=17),
                     record(block=3, ts=29, token=token.encode("latin-1")))
        with pytest.raises(ValueError, match=re.escape(f"swap record 2: fee_token must be one "
                                                       f"of ('token0', 'token1'), got {token!r}")):
            as_swap_log(log)

    @pytest.mark.parametrize("log, got", [
        (5, "int"),
        ([record()], "list"),
        (np.zeros((), SWAP_LOG_DTYPE), "a 0-D array"),
        (np.zeros((2, 2), SWAP_LOG_DTYPE), "a 2-D array"),
    ], ids=["int", "list", "0-D", "2-D"])
    def test_malformed_log_argument_rejected(self, log, got):
        series = PriceSeries("X-Y", [0, 12], [4.0, 4.0])
        for use in (as_swap_log, lambda log: run_baseline(log, series, 1.0),
                    lambda log: per_block_swap_volume(log, series.timestamps, 0.003)):
            with pytest.raises(ValueError, match=re.escape(
                    f"a swap log must be a 1-D array of SWAP_LOG_DTYPE, got {got}")):
                use(log)

    @pytest.mark.parametrize("field, kind", [
        ("block", "float64"), ("timestamp", "float64"), ("block", "bool"),
        # 2**63 would wrap to a negative block
        ("block", "uint64"),
        ("fee_amount", "<U8"), ("active_liquidity", "bool"),
        # b"token0\x00X" would be cut to b"token0"
        ("fee_token", "S10"),
        # safe casts are not taken either: the log has one dtype
        ("block", "int32"), ("timestamp", ">i8"), ("fee_amount", "float32"), ("fee_token", "S6"),
    ])
    def test_raw_log_columns_are_not_coerced(self, field, kind):
        dtype = [(name, kind if name == field else SWAP_LOG_DTYPE[name])
                 for name in SWAP_LOG_DTYPE.names]
        log = np.array([(1, 5, 1.0, b"token1", 1e6, 4.0), (1, 17, 1.0, b"token0\x00X", 1e6, 4.0)],
                       dtype)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"a swap log must be a 1-D array of SWAP_LOG_DTYPE, got an array of dtype "
                f"{np.dtype(dtype)}") + "$"):
            as_swap_log(log)

    @pytest.mark.parametrize("token", ["tökX", "t€ken0"], ids=["latin-1", "outside latin-1"])
    def test_text_token_column_names_the_record(self, token):
        """A ``str`` token column is not encoded: it fails the dtype rule
        before any record is read, whether or not its text has Latin-1 bytes."""
        dtype = np.dtype([(name, "U7" if name == "fee_token" else SWAP_LOG_DTYPE[name])
                          for name in SWAP_LOG_DTYPE.names])
        log = np.array([(1, 5, 1.0, "token1", 1e6, 4.0), (2, 17, 1.0, token, 1e6, 4.0)], dtype)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"a swap log must be a 1-D array of SWAP_LOG_DTYPE, got an array of dtype "
                f"{dtype}") + "$"):
            as_swap_log(log)


# An independent oracle for the replay (ROADMAP item 14): a full-range
# constant-product pool, arbitraged on a block grid, writes its own swap log,
# and a small position in it is valued from the pool's fees as they happen.
# It shares no code with run_baseline or with reference_baseline.

def constant_product_replay(marks: PriceSeries, liquidity: float, pool_fee: float, seed=None):
    """The swap log of a full-range constant-product pool arbitraged at the
    ``marks``, and per cadence the value at each mark of a position of
    ``liquidity / 1000`` in that pool.

    The pool starts at the first mark's price.  Each swap pays ``pool_fee``
    of its input, in the input token, and the fee is kept off the curve, as
    in v3, so the pool's liquidity ``L`` stays constant.  At each mark whose
    price ``p`` leaves the band ``[(1 - fee) q, q / (1 - fee)]`` around the
    pool price ``q``, one arbitrage swap at the mark's time moves ``q`` to
    the band's near edge: to ``(1 - fee) p`` by buying token0 with token1,
    to ``p / (1 - fee)`` by selling token0.

    With a ``seed``, noise swaps come between the arbitrage: about three per
    mark, at whole seconds from 600 s before the first mark to the last
    mark, a tenth of them moved onto a mark's own time.  Each has a side and
    a size, a move of up to 0.05% in ``sqrt(q)`` on a buy of token0 (in
    ``1 / sqrt(q)`` on a sale), and is priced on the same curve.  A mark
    accrues the noise swaps at or before its time ahead of its own
    arbitrage swap.

    The position ``L_sim`` earns ``L_sim / L`` of each fee.  It is worth
    ``2 L_sim sqrt(p)`` plus the fees since it last compounded, and
    compounding at price ``c`` turns those fees, worth ``f0 c + f1``, into
    ``(f0 c + f1) / (2 sqrt(c))`` more liquidity: after each swap, at its
    post-swap price (``swap``), or at a mark's price, at every mark
    (``block``) or at the first mark of each new UTC day (``day``).
    """
    keep = 1.0 - pool_fee
    q = float(marks.prices[0])
    rows = []
    # per cadence: the position's liquidity and its uncompounded token0 and token1 fees
    positions = {cadence: [liquidity / 1000.0, 0.0, 0.0] for cadence in COMPOUND_CADENCES}
    values = {cadence: [] for cadence in COMPOUND_CADENCES}

    def compound(position, price):
        held, fee0, fee1 = position
        position[:] = [held + (fee0 * price + fee1) / (2.0 * math.sqrt(price)), 0.0, 0.0]

    def swap(block, t, target):
        """One swap in ``block`` at time ``t`` that moves the pool price to ``target``."""
        nonlocal q
        # what reaches the curve: token1 L (sqrt(q') - sqrt(q)) on a buy of
        # token0, token0 L (1/sqrt(q') - 1/sqrt(q)) on a sale
        if target > q:
            token, side, moved = b"token1", 2, liquidity * (math.sqrt(target) - math.sqrt(q))
        else:
            token, side, moved = b"token0", 1, liquidity * (1.0 / math.sqrt(target)
                                                            - 1.0 / math.sqrt(q))
        fee = moved / keep * pool_fee
        q = target
        rows.append((block, t, fee, token, liquidity, q))
        for position in positions.values():
            position[side] += position[0] / liquidity * fee
        compound(positions["swap"], q)

    times, moves, buys = [], [], []
    if seed is not None:
        rng = np.random.default_rng(seed)
        count = 3 * len(marks)
        times = rng.integers(int(marks.timestamps[0]) - 600, int(marks.timestamps[-1]), count,
                             endpoint=True)
        on_mark = rng.random(count) < 0.1
        times[on_mark] = rng.choice(marks.timestamps.astype(np.int64), on_mark.sum())
        times = np.sort(times).tolist()
        moves = ((1.0 + rng.uniform(0.0, 5e-4, count)) ** 2).tolist()
        buys = (rng.random(count) < 0.5).tolist()

    days = np.floor(marks.timestamps / 86400.0)
    j = 0
    for k, (t, p) in enumerate(zip(marks.timestamps.tolist(), marks.prices.tolist())):
        while j < len(times) and times[j] <= t:
            swap(k, times[j], q * moves[j] if buys[j] else q / moves[j])
            j += 1
        if not keep * q <= p <= q / keep:
            swap(k, int(t), keep * p if p > q else p / keep)
        compound(positions["block"], p)
        if k and days[k] != days[k - 1]:
            compound(positions["day"], p)
        for cadence, (held, fee0, fee1) in positions.items():
            values[cadence].append(2.0 * held * math.sqrt(p) + fee0 * p + fee1)
    return log_of(*rows).view(np.recarray), {cadence: np.array(v) for cadence, v in values.items()}


class TestConstantProductOracle:
    LIQUIDITY, POOL_FEE = 1e6, 0.003

    @pytest.fixture(scope="class")
    def marks(self):
        # 3.5 days from 10:40 UTC on 2-minute blocks, across three UTC midnights
        path = sample_gbm_path(GbmParams(2000.0, 0.0005, step_seconds=60,
                                         horizon_seconds=3.5 * 86400, seed=61,
                                         start_time=1_680_000_000.0))
        return block_grid_series(path, mu=120.0).marks

    @pytest.fixture(scope="class")
    def pool(self, marks):
        return marks, *constant_product_replay(marks, self.LIQUIDITY, self.POOL_FEE)

    @pytest.fixture(scope="class")
    def noisy_pool(self, marks):
        return marks, *constant_product_replay(marks, self.LIQUIDITY, self.POOL_FEE, seed=62)

    def test_the_pool_trades_both_ways_across_days(self, pool):
        marks, log, _ = pool
        assert np.unique(np.floor(marks.timestamps / 86400.0)).size == 4
        assert 0 < np.count_nonzero(log.fee_token == b"token0") < len(log) < len(marks)
        # after each swap the mark's price is on the edge of the pool's band
        p = marks.prices[log.block]
        keep = 1.0 - self.POOL_FEE
        edge = np.where(log.fee_token == b"token1", log.post_price / keep, log.post_price * keep)
        np.testing.assert_allclose(edge, p, rtol=1e-15)

    @pytest.mark.parametrize("cadence", COMPOUND_CADENCES)
    def test_baseline_matches_the_pool(self, pool, cadence):
        marks, log, values = pool
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a position of L/1000: no share warning
            got = run_baseline(log, marks, self.LIQUIDITY / 1000.0, cadence)
        assert_matches_oracle(got, values[cadence])

    def test_noise_swaps_fall_between_on_and_before_the_marks(self, noisy_pool):
        marks, log, _ = noisy_pool
        t, first, last = log.timestamp, marks.timestamps[0], marks.timestamps[-1]
        assert np.count_nonzero(t < first) > 1 and np.count_nonzero(t == first) >= 1
        assert np.isin(t, marks.timestamps[1:]).sum() > len(marks) // 20 and t[-1] <= last
        assert np.bincount(log.block)[1:].max() >= 6  # several swaps in one later block
        assert 0.3 < np.count_nonzero(log.fee_token == b"token0") / len(log) < 0.7

    @pytest.mark.parametrize("cadence", COMPOUND_CADENCES)
    def test_baseline_matches_the_noisy_pool(self, noisy_pool, cadence):
        """Noise swaps put several swaps in a block, and ``day`` carries
        pending fees across many of them."""
        marks, log, values = noisy_pool
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing after the last mark, no share warning
            got = run_baseline(log, marks, self.LIQUIDITY / 1000.0, cadence)
        assert_matches_oracle(got, values[cadence])


# bytes a fee token column may hold: NULs (trailing or embedded), other
# cases, prefixes and longer text
TOKEN_BYTES = st.binary(max_size=8) | st.sampled_from([
    *FEE_TOKENS, b"", b"token", b"token00", b"TOKEN0", b"Token1", b"token0\x00",
    b"tok\x00en1", b"\x00token0", b"token2", b"\x00", b"token1\x00\x00"])


class TestTokenWords:
    """Fee tokens compared as 8-byte words agree with numpy's bytes compare."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.lists(TOKEN_BYTES, max_size=20))
    def test_words_compare_as_the_bytes(self, width, tokens):
        column = np.array(tokens, f"S{width}")  # cut to the width, as a parse does
        is_fee_token = dict((name, ok) for name, ok, _ in _SWAP_FIELD_RULES)["fee_token"]
        assert np.array_equal(is_fee_token(column), np.isin(column, FEE_TOKENS))
        words = _token_words(column)
        for word, token in zip(_FEE_WORDS, FEE_TOKENS):
            assert np.array_equal(words == word, column == token)
        # one element, as the swap rule tests the row it quotes
        for element in column:
            assert bool(is_fee_token(element)) == bool(np.isin(element, FEE_TOKENS))


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
        assert recs[1].fee_token == b"token0"

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


@st.composite
def volume_cases(draw):
    """Strictly increasing integer marks (none, one or several) and sorted
    swap rows before, on, between and after them, with repeated timestamps
    and both fee tokens; every time is under 2**53 in magnitude, so exact as
    a float."""
    start = draw(st.integers(-2**53 + 2**20, 2**53 - 2**20))
    marks = list(accumulate(draw(st.lists(st.integers(1, 16), max_size=6)), initial=start))
    near = st.integers(start - 3, marks[-1] + 4)
    if draw(st.integers(0, 7)) == 0:
        marks = []
    times = sorted(draw(st.lists(st.one_of(near, st.sampled_from(marks or [start])),
                                 max_size=20)))
    rows = [record(block=1, ts=t, fee=draw(st.floats(0.0, 1e6)),
                   token=draw(st.sampled_from(FEE_TOKENS)), price=draw(st.floats(1e-6, 1e6)))
            for t in times]
    return marks, rows


def volume_oracle(rows, marks, pool_fee):
    """The volume by a walk over the swaps in order: each goes to block
    ``bisect_left(marks, t) - 1`` when that is a block, in asset units; and
    the count of swaps after the last mark (every swap, with no marks)."""
    volume, after = [0.0] * max(len(marks) - 1, 0), 0
    for _, t, fee, token, _, price in rows:
        k = bisect.bisect_left(marks, t) - 1
        if 0 <= k < len(volume):
            volume[k] += fee / pool_fee / (price if token == b"token1" else 1.0)
        after += k == len(marks) - 1
    return volume, after


class TestPerBlockVolume:
    def test_fee_inversion(self):
        recs = log_of(
            record(block=1, ts=5, fee=3.0, token=b"token1", price=2.0),
            record(block=1, ts=11, fee=1.0, token=b"token0", price=2.0),
            record(block=2, ts=17, fee=2.0, token=b"token1", price=4.0),
        )
        vols = per_block_swap_volume(recs, np.array([0.0, 12.0, 24.0]), pool_fee=0.01)
        # block 1: 3/0.01/2 + 1/0.01 = 150 + 100; block 2: 2/0.01/4 = 50
        assert vols[0] == pytest.approx(250.0, rel=1e-12)
        assert vols[1] == pytest.approx(50.0, rel=1e-12)

    @pytest.mark.parametrize("pool_fee", [0.0, 1.0, -0.1, math.nan])
    def test_bad_pool_fee_rejected(self, pool_fee):
        with pytest.raises(ValueError, match=f"pool_fee must be in \\(0, 1\\), got {pool_fee}"):
            per_block_swap_volume(log_of(record()), np.array([0.0, 12.0]), pool_fee)

    def test_empty_log_is_zero_volume(self):
        vols = per_block_swap_volume(NO_SWAPS, np.array([0.0, 12.0, 24.0]), 0.003)
        assert vols.tolist() == [0.0, 0.0]

    def test_swaps_after_last_block_dropped(self):
        recs = log_of(record(block=1, ts=100, fee=1.0))
        with pytest.warns(UserWarning, match="^1 swap records after the last price mark were "
                                             "ignored$"):
            vols = per_block_swap_volume(recs, np.array([0.0, 12.0]), pool_fee=0.003)
        assert vols.tolist() == [0.0]

    def test_swaps_at_or_before_the_start_dropped(self):
        # blocks are (1000, 1012] and (1012, 1024]: the swaps at 0 and at the
        # start itself are in neither, the one at 1012 ends block 1
        recs = log_of(*(record(block=b, ts=ts, fee=fee, token=b"token0")
                        for b, (ts, fee) in enumerate([(0, 3.0), (1000, 3.0), (1005, 3.0),
                                                       (1012, 6.0), (1013, 9.0)])))
        vols = per_block_swap_volume(recs, np.array([1000.0, 1012.0, 1024.0]), pool_fee=0.5)
        assert vols.tolist() == [18.0, 18.0]

    @settings(max_examples=300, deadline=None)
    @given(case=volume_cases(), pool_fee=st.floats(1e-6, 0.9))
    def test_matches_walk_over_the_swaps_property(self, case, pool_fee):
        # bincount adds each block's sizes in swap order, as the walk does, so
        # the two agree bit for bit, and the warning counts the swaps the walk
        # finds after the last mark
        marks, rows = case
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vols = per_block_swap_volume(log_of(*rows), np.array(marks, np.float64), pool_fee)
        want, after = volume_oracle(rows, marks, pool_fee)
        assert vols.dtype == np.float64
        assert vols.view(np.uint64).tolist() == np.array(want, np.float64).view(np.uint64).tolist()
        assert [str(w.message) for w in caught] == [
            f"{after} swap records after the last price mark were ignored"] * (after > 0)

    # the peak holds per-swap and per-mark columns, so it is bounded per
    # (swap + mark) at the benchmark's replay-1s shape (more swaps than marks)
    # and its noise-mix shape (more marks than swaps): 16.7 and 16.4 B today.
    # Masked per-swap copies exceed it at both, a third per-mark column at
    # noise-mix
    @pytest.mark.parametrize("n_marks, n_swaps", [(83_333, 200_000), (40_000, 20_000)])
    def test_peak_memory_per_swap_and_mark_is_bounded(self, n_marks, n_swaps):
        marks, records = random_replay(11, n_marks=n_marks, n_swaps=n_swaps, step=12.0,
                                       overhang=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            per_block_swap_volume(records, marks.timestamps, 0.003)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        items = len(records) + len(marks.timestamps)
        assert peak <= 19 * items, peak / items
