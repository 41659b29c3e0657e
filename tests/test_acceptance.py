"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line (run with ``pytest -s`` or ``-rA`` to
see them); a pytest failure is the corresponding FAIL line.  Criterion 8
needs externally supplied market data and is skipped unless
``FMAMM_DATA_DIR`` points at a directory with a ``pairs.json`` manifest.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fmamm.amm import (
    Reserves,
    apply_trade,
    effective_price,
    fmamm_price,
)
from fmamm.arbitrage import cpamm_arbitrage_profit, malicious_operator_attack, optimal_rebalance
from fmamm.backtest import (
    NO_NOISE,
    balanced_reserves,
    block_grid_series,
    risk_monte_carlo,
    run_fmamm_backtest,
)
from fmamm.batch import split_trade_experiment
from fmamm.cli import main
from fmamm.market_data import (
    GbmParams,
    PriceSeries,
    cumulative_roi,
    load_price_series,
    sample_gbm_path,
)
from fmamm.uniswap import SWAP_LOG_DTYPE, load_swap_records, run_baseline
from test_backtest import reference_backtest, state_before
from test_golden import _lcg, build_inputs
from test_uniswap import constant_product_replay


def report(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def bisect_clearing_price(y, x, trade):
    """Oracle: bisection on the consistency condition p = (y + p*t)/(x - t).

    The gap ``p - (y + p*t)/(x - t)`` is increasing in p below the pole and
    negative at p = 0; the upper end doubles until the gap turns positive.
    """

    def gap(p):
        return p - (y + p * trade) / (x - trade)

    lo, hi = 0.0, y / x
    while gap(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def test_criterion_1_closed_form_agreement():
    """fmamm_price matches a bisection oracle to 1e-7 over 1,000 pools."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        y = float(np.exp(rng.uniform(np.log(1e2), np.log(1e7))))
        x = float(np.exp(rng.uniform(np.log(1e-1), np.log(1e4))))
        trade = float(rng.uniform(-x, 0.49 * x))
        r = Reserves(y, x)
        oracle = bisect_clearing_price(y, x, trade)
        rel = abs(fmamm_price(r, trade) - oracle) / oracle
        worst = max(worst, rel)
        assert rel < 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"1000 pools, worst relative gap to bisection {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_path_dependence_limit():
    """Splitting one buy into 1e5 slices converges to the constant-product reserve."""
    start = time.perf_counter()
    r = Reserves(20000.0, 10.0)
    single = split_trade_experiment(r, 2.0, 1).y
    assert single == pytest.approx(20000.0 * 8.0 / 6.0, rel=1e-9)
    final = split_trade_experiment(r, 2.0, 100_000).y
    limit = 20000.0 * 10.0 / 8.0
    assert final == pytest.approx(limit, rel=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report(2, f"single shot {single:.3f}, split 1e5 -> {final:.3f} vs limit {limit}, {elapsed:.2f}s")


def test_criterion_3_exact_halving():
    """Operator profit is exactly half the CPAMM arbitrage profit, 1e-12 relative."""
    start = time.perf_counter()
    r0 = Reserves(20000.0, 10.0)
    assert malicious_operator_attack(r0, 2420.0)[1] == pytest.approx(100.0, rel=1e-12)
    assert cpamm_arbitrage_profit(r0, 2420.0)[1] == pytest.approx(200.0, rel=1e-12)
    rng = np.random.default_rng(103)
    for _ in range(10_000):
        r = Reserves(float(rng.uniform(1e2, 1e7)), float(rng.uniform(1e-1, 1e4)))
        p_star = r.spot_price * float(rng.uniform(0.2, 5.0))
        op = malicious_operator_attack(r, p_star)[1]
        cp = cpamm_arbitrage_profit(r, p_star)[1]
        assert 2.0 * op == pytest.approx(cp, rel=1e-12, abs=0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report(3, f"10,000 random pools + worked instance 100 vs 200, {elapsed:.2f}s")


def _vectorized_effective(y, x, net, tau, sign):
    keep = 1.0 - tau
    base = np.where(
        net > 0.0, y / (x - 2.0 * net),
        np.where(net < 0.0, y / (x - 2.0 * keep * net), y / x),
    )
    return base / keep if sign > 0 else keep * base


def test_criterion_4_no_residual_arbitrage():
    """1e5-block GBM backtests leave no profitable perturbation trade."""
    start = time.perf_counter()
    path = sample_gbm_path(
        GbmParams(2000.0, 0.0005, step_seconds=12, horizon_seconds=12 * 100_000, seed=11)
    )
    grid = block_grid_series(path)
    for tau in (0.0, 0.003):
        result = run_fmamm_backtest(grid, tau)
        trades = result.trades
        rebalanced = trades.arb_trade != 0.0
        assert rebalanced.any()
        p_star = grid.p_stars[rebalanced]
        y_before, x_before = (before[rebalanced] for before in state_before(
            trades, balanced_reserves(float(grid.marks.prices[0]))))
        net = (trades.noise_net + trades.arb_trade)[rebalanced]
        for direction in (+1.0, -1.0):
            dr = direction * 1e-6 * x_before
            prices = _vectorized_effective(y_before, x_before, net + dr, tau, direction)
            profit = dr * (p_star - prices)
            assert np.all(profit <= 1e-9 * np.abs(dr) * p_star)
        if tau == 0.0:
            rel = np.abs(grid.p_stars * trades.x_after - trades.y_after) / trades.y_after
            assert np.all(rel < 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"2 x 100,000 blocks, perturbations non-profitable, {elapsed:.2f}s")


def test_criterion_5_risk_monte_carlo():
    """Mean-preserving +-10% spread raises the expected maximized objective."""
    start = time.perf_counter()
    r = Reserves(20000.0, 10.0)
    base = np.full(100_000, r.spot_price)
    out = risk_monte_carlo(base, 0.1 * r.spot_price, r, 0.003, seed=5)
    assert out.difference > 0.0
    assert out.z_score >= 5.0
    # a band wide enough to contain both atoms flattens the gain to exactly 0
    wide = risk_monte_carlo(base, 0.1 * r.spot_price, r, 0.15, seed=5)
    assert wide.difference == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, f"gain {out.difference:.3f} at z={out.z_score:.1f}; wide band gain 0, {elapsed:.2f}s")


def test_criterion_6_sandwich_immunity():
    """Front/back-running moves nobody's price when arbitrageurs pin the batch,
    and the attacker's two-block round trip never profits."""
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    r = Reserves(20000.0, 10.0)

    # victim price depends on the batch only through the net trade: with the
    # external price outside the band on the same side, the pinned net (and
    # so the victim's fill) is unchanged by the attacker's extra order
    for _ in range(300):
        tau = float(rng.uniform(0.0, 0.01))
        victim = float(rng.uniform(-0.02, 0.02) * r.x) or 0.01
        attacker = float(rng.uniform(0.001, 0.02) * r.x)
        p_star = r.spot_price * 1.2
        arb_without = optimal_rebalance(r, victim, tau, p_star)
        arb_with = optimal_rebalance(r, victim + attacker, tau, p_star)
        assert arb_without != 0.0 and arb_with != 0.0
        net_without = victim + arb_without
        net_with = victim + attacker + arb_with
        p_victim_without = effective_price(r, net_without, tau, victim)
        p_victim_with = effective_price(r, net_with, tau, victim)
        assert p_victim_with == pytest.approx(p_victim_without, rel=1e-9)

    # attacker round trip at a fixed external price: buys at >= p*, sells at <= p*
    worst = -np.inf
    for _ in range(1000):
        tau = float(rng.uniform(0.0, 0.05))
        pool = Reserves(float(rng.uniform(1e3, 1e6)), float(rng.uniform(1.0, 100.0)))
        p_star = pool.spot_price * float(rng.uniform(0.85, 1.15))
        victim = float(rng.uniform(-0.02, 0.02) * pool.x)
        attacker = float(rng.uniform(0.001, 0.05) * pool.x)
        net1 = victim + attacker + optimal_rebalance(pool, victim + attacker, tau, p_star)
        buy_price = effective_price(pool, net1, tau, +1)
        mid = apply_trade(pool, net1, tau) if net1 != 0.0 else pool
        net2 = -attacker + optimal_rebalance(mid, -attacker, tau, p_star)
        sell_price = effective_price(mid, net2, tau, -1)
        profit = attacker * (sell_price - buy_price)
        worst = max(worst, profit / (attacker * p_star))
        assert profit <= 1e-9 * attacker * p_star
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, f"1000 round trips all non-profitable (worst {worst:.2e} rel), {elapsed:.2f}s")


def test_criterion_7_baseline_roi_identity():
    """Full-range value identity: no-swap ROI is sqrt(p1/p0) - 1, size-invariant."""
    series, no_swaps = PriceSeries("X-Y", [0, 12], [4.0, 9.0]), np.empty(0, SWAP_LOG_DTYPE)
    out = cumulative_roi(run_baseline(no_swaps, series, 1.0))
    assert out[-1] == pytest.approx(np.sqrt(9.0 / 4.0) - 1.0, rel=1e-12, abs=1e-12)
    scaled = cumulative_roi(run_baseline(no_swaps, series, 1e6))
    assert np.allclose(out, scaled, rtol=1e-12, atol=1e-15)
    report(7, f"no-swap roi {out[-1]:.12f} == sqrt(9/4)-1, invariant to 1e6 scaling")


# zero-noise return gaps (FM-AMM minus Uniswap v3, percentage points) for the
# April-October 2023 study window, used when the data manifest omits them
REFERENCE_ZERO_NOISE_PP = {
    ("WETH-USDT", 0.0005): -0.01,
    ("WETH-USDT", 0.003): 0.12,
    ("WBTC-USDT", 0.003): 0.14,
    ("WETH-USDC", 0.0005): 0.18,
    ("WETH-USDC", 0.003): 0.12,
    ("WBTC-USDC", 0.003): 0.07,
    ("WBTC-WETH", 0.0005): 0.06,
    ("LDO-WETH", 0.003): 0.38,
    ("LINK-WETH", 0.003): -0.08,
    ("MATIC-WETH", 0.003): -0.65,
    ("UNI-WETH", 0.003): 0.08,
}


def zero_noise_gaps(data_dir: Path) -> list[tuple]:
    """Each entry of ``data_dir``'s ``pairs.json`` as ``(pair, fee, got_pp,
    expected_pp)``: the zero-noise FM-AMM terminal ROI at fee ``fee`` minus
    the baseline's, in percentage points, and the gap the entry expects."""
    manifest = json.loads((data_dir / "pairs.json").read_text())
    assert manifest, "pairs.json lists no pairs"
    gaps = []
    for entry in manifest:
        pair, fee = entry["pair"], float(entry["pool_fee"])
        prices = load_price_series(data_dir / entry["price_csv"], pair)
        records = load_swap_records(data_dir / entry["swap_csv"])
        grid = block_grid_series(prices)
        result = run_fmamm_backtest(grid, fee)
        baseline = run_baseline(records, grid.marks, 1.0)
        got_pp = 100.0 * (result.terminal_roi - cumulative_roi(baseline)[-1])
        expected = float(entry.get("expected_diff_pp", REFERENCE_ZERO_NOISE_PP[(pair, fee)]))
        gaps.append((pair, fee, got_pp, expected))
    return gaps


def assert_gaps_match(gaps) -> None:
    """Criterion 8's test of each gap: the expected sign, within 0.15 pp."""
    for pair, fee, got_pp, expected in gaps:
        assert np.sign(got_pp) == np.sign(expected), (pair, fee, got_pp, expected)
        assert abs(got_pp - expected) <= 0.15, (pair, fee, got_pp, expected)


@pytest.mark.skipif(
    "FMAMM_DATA_DIR" not in os.environ,
    reason="criterion 8 needs external market data: set FMAMM_DATA_DIR to a directory "
    "containing pairs.json (see README)",
)
def test_criterion_8_data_dependent_reproduction():
    """With user-supplied 2023 data, zero-noise gaps match the reference table."""
    gaps = zero_noise_gaps(Path(os.environ["FMAMM_DATA_DIR"]))
    assert_gaps_match(gaps)
    report(8, f"{len(gaps)} pairs within +-0.15pp of the reference gaps")


# The rehearsal's price paths, by pair: the start price in units of
# 10**-places, and the largest 12-second step in hundred-thousandths of the
# price, from a quiet WBTC-WETH to a volatile MATIC-WETH
REHEARSAL_PATHS = {
    "WBTC-WETH": (15_500_000, 6, 30),
    "WBTC-USDT": (2_850_000, 2, 150),
    "WBTC-USDC": (2_850_000, 2, 150),
    "WETH-USDT": (18_500_000, 4, 600),
    "WETH-USDC": (18_500_000, 4, 600),
    "UNI-WETH": (28_000_000, 10, 400),
    "LINK-WETH": (39_000_000, 10, 500),
    "LDO-WETH": (11_000_000, 10, 1000),
    "MATIC-WETH": (5_700_000, 10, 1500),
}
REHEARSAL_START = 1_680_307_200  # 2023-04-01 00:00 UTC
REHEARSAL_BLOCKS = 1200


def write_rehearsal(data_dir: Path) -> None:
    """A criterion 8 data directory of synthetic pairs whose gaps are known:
    one entry per key of :data:`REFERENCE_ZERO_NOISE_PP`.

    Each price path is built from integers and written as decimal text, so
    it parses to the same floats everywhere.  Each swap log is the one a
    constant-product pool of liquidity 1000 at the entry's pool fee writes,
    arbitraged at the marks and traded by noise between them
    (``test_uniswap.constant_product_replay``), none after the last mark.
    Each ``expected_diff_pp`` comes from oracles that share no code with the
    kernel or the replay: the per-block reference backtest for the FM-AMM,
    and the pool's own position of liquidity 1 for the baseline.
    """
    data_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, (pair, fee) in enumerate(REFERENCE_ZERO_NOISE_PP):
        level, places, step = REHEARSAL_PATHS[pair]
        draws, texts = _lcg(i + 1), []
        for _ in range(REHEARSAL_BLOCKS + 1):
            texts.append(f"{level // 10**places}.{level % 10**places:0{places}d}")
            level += level * (next(draws) % (2 * step + 1) - step) // 100_000
        times = REHEARSAL_START + 12 * np.arange(REHEARSAL_BLOCKS + 1)
        marks = PriceSeries(pair, times, [float(text) for text in texts])
        log, pool_values = constant_product_replay(marks, 1000.0, fee, seed=i + 1)
        fm_values = reference_backtest(marks, fee, NO_NOISE)[1]
        name = f"{pair}-{fee}"
        (data_dir / f"{name}-prices.csv").write_text("timestamp,price\n" + "".join(
            f"{t},{text}\n" for t, text in zip(times.tolist(), texts)))
        (data_dir / f"{name}-swaps.csv").write_text(
            "block,timestamp,fee_amount,fee_token,active_liquidity,post_price\n" + "".join(
                f"{b},{t},{f!r},{k.decode()},{a!r},{p!r}\n" for b, t, f, k, a, p in log.tolist()))
        baseline = pool_values["block"]
        gap = (fm_values[-1] / fm_values[0]) - (baseline[-1] / baseline[0])
        manifest.append({"pair": pair, "pool_fee": fee, "price_csv": f"{name}-prices.csv",
                         "swap_csv": f"{name}-swaps.csv", "expected_diff_pp": 100.0 * gap})
    (data_dir / "pairs.json").write_text(json.dumps(manifest, indent=1) + "\n")


def test_criterion_8_rehearsal(tmp_path):
    """Criterion 8's path and assertions on the rehearsal's directory, whose
    gaps the oracles know; the run raises no warning."""
    start = time.perf_counter()
    write_rehearsal(tmp_path)
    gaps = zero_noise_gaps(tmp_path)
    assert [(pair, fee) for pair, fee, _, _ in gaps] == list(REFERENCE_ZERO_NOISE_PP)
    # every known gap is clearly off zero, so its sign is a test
    assert min(abs(expected) for _, _, _, expected in gaps) > 0.02
    assert_gaps_match(gaps)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report(8, f"rehearsal: {len(gaps)} synthetic pairs match their known gaps "
              f"({min(g[3] for g in gaps):+.2f} to {max(g[3] for g in gaps):+.2f} pp), "
              f"{elapsed:.2f}s")


def test_criterion_8_gap_is_the_backtest_command_gap(tmp_path):
    """On a one-entry data directory built from integers, criterion 8's gap
    is, bit for bit, the ``terminal_difference_pp`` that ``backtest`` writes
    for the same files with ``fee = pool_fee``."""
    build_inputs(tmp_path)
    data = tmp_path / "data"
    files = {"price_csv": "prices.csv", "swap_csv": "swaps.csv"}
    (data / "pairs.json").write_text(json.dumps([{"pair": "WETH-USDT", "pool_fee": 0.003,
                                                  **files}]))
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"pair": "WETH-USDT", "pool_fee": 0.003, "fee": 0.003,
                                  **{key: str(data / name) for key, name in files.items()}}))
    assert main(["backtest", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    [(pair, fee, got_pp, expected)] = zero_noise_gaps(data)
    assert (pair, fee, expected) == ("WETH-USDT", 0.003, 0.12)
    assert got_pp == summary["terminal_difference_pp"]


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed reproduce every output byte for byte."""
    series = sample_gbm_path(
        GbmParams(2000.0, 0.001, step_seconds=12, horizon_seconds=12 * 300, seed=17,
                  start_time=1_680_000_000)
    )
    price_csv = tmp_path / "prices.csv"
    lines = ["timestamp,price"] + [
        f"{int(t)},{float(p)!r}" for t, p in zip(series.timestamps, series.prices)
    ]
    price_csv.write_text("\n".join(lines) + "\n")
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"pair": "WETH-USDT", "price_csv": str(price_csv),
                                  "fee": 0.003, "seed": 9}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["backtest", "--config", str(config), "--out-dir", str(out_a)]) == 0
    assert main(["backtest", "--config", str(config), "--out-dir", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(9, f"backtest outputs byte-identical across reruns ({', '.join(names)})")


if __name__ == "__main__":
    write_rehearsal(Path(sys.argv[1]))
    print(f"wrote criterion 8's rehearsal data directory to {sys.argv[1]}", file=sys.stderr)
