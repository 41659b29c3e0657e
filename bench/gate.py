"""Correctness gate: every run of a workload must pass these checks.

* the command exits 0 and every expected output file is present and parses;
* ``fee-grid``'s zero-fee run matches the closed form
  ``x_n = x_{n-1} (1 + p_{n-1}/p_n) / 2``, ``y_n = p_n x_n`` within 1e-9
  relative, block by block;
* ``replay-1s``'s baseline replay matches the full-range identity: with
  per-block compounding the position's liquidity grows by the factor
  ``1 + sum(fee_i * c_i / L_i) / (2 sqrt(p_k))`` each block, so its value
  is a cumulative product;
* on the small seed-0 inputs that every invocation runs once, untimed,
  every terminal ROI matches the values recorded in ``reference.json``
  within 1e-9 relative;
* repeat runs in one invocation give byte-identical out-dirs and stdout.

A run that fails any check counts as failed; none is dropped.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import ACTIVE_LIQUIDITY, MU, SIM_SHARE, START, Inputs, Workload

RTOL = 1e-9
REFERENCE = Path(__file__).with_name("reference.json")
RETURNS_HEADER = "timestamp,value,cumulative_roi"


class GateError(Exception):
    """A run's output failed a correctness check."""


def check_outputs(workload: Workload, inputs: Inputs, out_dir: Path, check_reference: bool) -> dict:
    """Validate one out-dir; returns the terminal ROI of each run id."""
    n_rows = inputs.n_blocks + 1
    replay = workload.command == "backtest"
    runs = list(workload.runs) + (["uniswap_v3_full_range"] if replay else [])
    expected = {f"{r}_returns.csv" for r in runs} | {"summary.json", "long.csv", "manifest.json"}
    if replay:
        expected.add("comparison.csv")
    present = {p.name for p in out_dir.iterdir()}
    if present != expected:
        raise GateError(f"out-dir files {sorted(present)}, expected {sorted(expected)}")

    series = {r: _read_returns(out_dir / f"{r}_returns.csv", n_rows) for r in runs}
    summary = _read_json(out_dir / "summary.json")
    manifest = _read_json(out_dir / "manifest.json")
    if manifest.get("command") != workload.command:
        raise GateError(f"manifest command {manifest.get('command')!r} != {workload.command!r}")
    _check_long_format(out_dir / "long.csv", runs, n_rows)

    rois = {r: float(s[-1, 2]) for r, s in series.items()}
    if replay:
        reported = {r: summary[r]["terminal_roi"] for r in runs}
        comparison = np.loadtxt(out_dir / "comparison.csv", delimiter=",", skiprows=1, ndmin=2)
        gap = series["fm_amm"][:, 2] - series["uniswap_v3_full_range"][:, 2]
        if comparison.shape != (n_rows, 2) or not np.allclose(comparison[:, 1], gap,
                                                              rtol=0.0, atol=1e-12):
            raise GateError("comparison.csv is not fm_amm minus uniswap ROI")
        check_baseline_identity(inputs, series["uniswap_v3_full_range"][:, 1])
    else:
        reported = dict(zip(workload.runs, (row["terminal_roi"] for row in summary["rows"])))
    for run_id, roi in reported.items():
        if not math.isclose(roi, rois[run_id], rel_tol=1e-12, abs_tol=1e-15):
            raise GateError(f"{run_id}: summary roi {roi!r} != returns csv {rois[run_id]!r}")

    if workload.command == "sweep-fees":
        check_closed_form(inputs, series[f"fee_{0.0:g}"][:, 1])
    if check_reference:
        check_rois(rois, load_reference()["rois"][workload.name])
    return rois


def closed_form_values(block_prices: np.ndarray, initial_x: float) -> np.ndarray:
    """Zero-fee pool value per block: ``2 p_n x_n`` with the halving recurrence."""
    p = np.asarray(block_prices, dtype=np.float64)
    x = initial_x * np.concatenate(([1.0], np.cumprod(0.5 * (1.0 + p[:-1] / p[1:]))))
    return 2.0 * p * x


def check_closed_form(inputs: Inputs, values: np.ndarray) -> None:
    expected = closed_form_values(inputs.block_prices, inputs.initial_x)
    _check_close("zero-fee closed form", values, expected)


def baseline_values(inputs: Inputs, liquidity: float) -> np.ndarray:
    """Full-range position value per mark with per-block fee compounding."""
    swaps = inputs.swaps
    p = inputs.block_prices
    marks = START + MU * np.arange(p.size)
    mark = np.searchsorted(marks, swaps["timestamp"], side="left")
    in_token0 = np.array([k == "token0" for k in swaps["fee_token"]])
    # token0 fees are valued at the compounding mark's price, token1 at par
    per_liquidity = swaps["fee_amount"] / swaps["active_liquidity"] * np.where(
        in_token0, p[mark], 1.0)
    fees = np.zeros(p.size)
    np.add.at(fees, mark, per_liquidity)
    growth = np.cumprod(1.0 + fees / (2.0 * np.sqrt(p)))
    return 2.0 * liquidity * growth * np.sqrt(p)


def check_baseline_identity(inputs: Inputs, values: np.ndarray) -> None:
    expected = baseline_values(inputs, SIM_SHARE * ACTIVE_LIQUIDITY)
    _check_close("baseline full-range identity", values, expected)


def check_rois(rois: dict, reference: dict) -> None:
    if set(rois) != set(reference):
        raise GateError(f"run ids {sorted(rois)} != reference {sorted(reference)}")
    for run_id, value in reference.items():
        if not math.isclose(rois[run_id], value, rel_tol=RTOL):
            raise GateError(f"{run_id}: terminal roi {rois[run_id]!r} != reference {value!r}")


def load_reference() -> dict:
    """The reference inputs (``seed``, ``scale``) and their terminal ``rois``."""
    return json.loads(REFERENCE.read_text())


def digest(out_dir: Path) -> dict:
    """SHA-256 of every file in an out-dir, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def check_identical(first: dict, other: dict) -> None:
    if first != other:
        differing = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
        raise GateError(f"out-dir differs from the first run in {differing}")


def _check_close(what, got, expected) -> None:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != expected.shape:
        raise GateError(f"{what}: {got.size} values, expected {expected.size}")
    deviation = float(np.max(np.abs(got / expected - 1.0)))
    if not deviation <= RTOL:
        raise GateError(f"{what}: max relative deviation {deviation:.3g} > {RTOL:g}")


def _read_returns(path: Path, n_rows: int) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != RETURNS_HEADER:
            raise GateError(f"{path.name}: header {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise GateError(f"{path.name}: {exc}") from exc
    if data.shape != (n_rows, 3):
        raise GateError(f"{path.name}: shape {data.shape}, expected ({n_rows}, 3)")
    if not np.array_equal(data[:, 0], START + MU * np.arange(n_rows)):
        raise GateError(f"{path.name}: timestamps off the block grid")
    return data


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GateError(f"{path.name}: {exc}") from exc


def _check_long_format(path: Path, runs: list, n_rows: int) -> None:
    counts = dict.fromkeys(runs, 0)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["run_id", "timestamp", "metric", "value"]:
            raise GateError("long.csv: bad header")
        for row in reader:
            if len(row) != 4 or row[0] not in counts or row[2] not in ("value", "cumulative_roi"):
                raise GateError(f"long.csv: bad row {row}")
            try:
                float(row[3])
            except ValueError as exc:
                raise GateError(f"long.csv: bad value in {row}") from exc
            counts[row[0]] += 1
    if any(c != 2 * n_rows for c in counts.values()):
        raise GateError(f"long.csv: rows per run {counts}, expected {2 * n_rows}")
