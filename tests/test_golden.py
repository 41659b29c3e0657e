"""Golden output digests: each command's and each demo's outputs, byte for byte.

Every entry of :data:`ENTRIES` runs one CLI command in process with
``--out-dir``.  Its exit code, its stdout and every file it writes are hashed
and compared with ``tests/golden.json``; each demo's stdout is hashed too.
So an output that changes by one byte, a one-ulp value included, fails here,
naming the entry and the file.

The inputs are the same on every machine.  Prices, swaps and orders are
built from integer arithmetic and written as literal decimal text, so
``np.loadtxt`` parses them to the same floats everywhere.  The program's own
numpy calls on them are correctly rounded elementwise operations (``+``,
``*``, ``/``, ``sqrt``, ``floor``) and sequential ``cumsum``, ``cumprod``
and ``bincount``, so its outputs are portable too.  A change that brings a
platform-dependent call into a command's path, such as numpy's SIMD
``np.exp``, may show up here as a failure on another CPU.  Demos 04 and 05
draw their paths with ``sample_gbm_path``, which calls ``np.exp``; their
entries print rounded figures, so they differ only if an exp rounding moves
one of them.

Every path a command sees is relative to the working directory, so the
manifests hold no temporary directory and hash the same everywhere.

After a change that means to alter outputs, re-record the table with

    PYTHONPATH=src python tests/test_golden.py

and say which entries moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import fmamm.backtest
import fmamm.cli
from fmamm.cli import main

TABLE = Path(__file__).with_name("golden.json")
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

START = 19_445 * 86_400 - 1_800  # a UTC day starts halfway through, for the day cadence
SECONDS = 3_600  # 300 twelve-second blocks
RESERVES = ["--y", "20000", "--x-reserve", "10"]


def _lcg(state: int):
    """A 32-bit linear congruential generator: the same integers everywhere."""
    while True:
        state = (1_664_525 * state + 1_013_904_223) % 2**32
        yield state >> 8


def _cents(n: int) -> str:
    return f"{n // 100}.{n % 100:02d}"


def build_inputs(root: Path) -> None:
    """``root/data``: a per-second price CSV, a swap CSV every 3 s, an
    orders file, and one scenario config per config entry of :data:`ENTRIES`."""
    data = root / "data"
    data.mkdir()
    draws = _lcg(5)
    level, cents = 200_000, []  # 2000.00, in cents
    for _ in range(SECONDS + 1):
        cents.append(level)
        level += next(draws) % 401 - 200  # up to 2.00 a second
    prices = ["timestamp,price"] + [f"{START + i},{_cents(c)}" for i, c in enumerate(cents)]
    (data / "prices.csv").write_text("\n".join(prices) + "\n")

    swaps = ["block,timestamp,fee_amount,fee_token,active_liquidity,post_price"]
    for i in range(2, SECONDS, 3):
        n = next(draws)
        # a numeraire fee in thousandths, an asset fee in millionths: under 0.02
        # asset units of volume a swap
        fee = f"0.{n % 40 + 1:03d},token1" if n & 1 else f"0.{n % 40 + 1:06d},token0"
        swaps.append(f"{17_000_000 + i // 12},{START + i},{fee},150,{_cents(cents[i])}")
    (data / "swaps.csv").write_text("\n".join(swaps) + "\n")

    (data / "orders.jsonl").write_text(
        '{"block": 1, "trader_kind": "noise", "amount": 1.5}\n'
        '{"block": 1, "trader_kind": "arbitrageur", "amount": -0.25}\n'
        '{"block": 3, "trader_kind": "noise", "amount": -2.0, "id": "late"}\n')

    for name, (_, config) in ENTRIES.items():
        if config is not None:
            cfg = {"pair": "WETH-USDT", "price_csv": "data/prices.csv",
                   "swap_csv": "data/swaps.csv", "pool_fee": 0.003, "fee": 0.003,
                   "fee_grid": [0.0, 0.0005, 0.003, 0.01], "noise_fractions": [0.1, 0.5],
                   "seed": 3, **config}
            (data / f"{name}.json").write_text(json.dumps(cfg))


def _entries() -> dict:
    """Each entry's argv (before ``--out-dir``) and its config overrides, or
    None for a command that takes no config."""
    entries = {}
    for cadence in ("swap", "block", "day"):
        for gamma in (0, 5):
            entries[f"backtest-{cadence}-gamma{gamma}"] = (
                "backtest", {"compound_cadence": cadence, "gamma": float(gamma)})
    entries["sweep-fees"] = ("sweep-fees", {})
    for direction in ("balanced", "random_sign"):
        entries[f"sweep-noise-{direction}"] = ("sweep-noise", {"noise_direction": direction})
    entries = {name: ([command, "--config", f"data/{name}.json"], config)
               for name, (command, config) in entries.items()}
    entries.update({
        "settle": (["settle", *RESERVES, "--orders", "data/orders.jsonl", "--fee", "0.003"], None),
        "quote": (["quote", *RESERVES, "--trade", "1.25", "--fee", "0.003", "--sell"], None),
        "attack": (["attack", *RESERVES, "--p-star", "2420"], None),
        "mc-risk": (["mc-risk", *RESERVES, "--epsilon-sd", "200", "--n-draws", "2000",
                     "--seed", "7"], None),
        "split-demo": (["split-demo", *RESERVES, "--trade", "2", "--n", "1", "10", "1000"], None),
    })
    return entries


ENTRIES = _entries()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_entry(name: str) -> dict:
    """An entry's digests, run in the working directory that holds ``data``:
    ``exit`` and ``stdout``, and one per out-dir file by name."""
    out = Path("out") / name
    shutil.rmtree(out, ignore_errors=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(ENTRIES[name][0] + ["--out-dir", str(out)])
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {"exit": code, "stdout": _sha(stdout.getvalue().encode()),
            "files": {p.name: _sha(p.read_bytes()) for p in files}}


def run_demo(demo: Path) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(demo), run_name="__main__")
    return {"stdout": _sha(stdout.getvalue().encode())}


def record(root: Path) -> dict:
    """The whole table, run from ``root``, which must hold the inputs."""
    table = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name in ENTRIES:
            table[name] = run_entry(name)
        for demo in DEMOS:
            table[f"demo-{demo.stem}"] = run_demo(demo)
    finally:
        os.chdir(cwd)
    return table


def mismatches(want: dict, got: dict) -> list[str]:
    """The keys of an entry whose digests differ, out-dir files by name."""
    keys = sorted((set(want) | set(got)) - {"files"})
    wrong = [k for k in keys if want.get(k) != got.get(k)]
    want_files, got_files = want.get("files", {}), got.get("files", {})
    return wrong + sorted(f for f in set(want_files) | set(got_files)
                          if want_files.get(f) != got_files.get(f))


GOLDEN = json.loads(TABLE.read_text()) if TABLE.exists() else {}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    build_inputs(root)
    return root


def test_table_covers_every_entry_and_demo():
    assert sorted(GOLDEN) == sorted(list(ENTRIES) + [f"demo-{d.stem}" for d in DEMOS])


@pytest.mark.parametrize("name", ENTRIES)
def test_command_outputs_match_table(inputs, monkeypatch, name):
    monkeypatch.chdir(inputs)
    got = run_entry(name)
    assert got["exit"] == 0
    assert mismatches(GOLDEN[name], got) == []


@pytest.mark.parametrize("name", [name for name, (_, config) in ENTRIES.items()
                                  if config is not None])
def test_command_outputs_match_table_across_chunk_seams(inputs, monkeypatch, name):
    # the inputs are 300 blocks, inside one writer chunk and one kernel chunk,
    # so the same entries run again with chunks small enough to cross many
    monkeypatch.setattr(fmamm.cli, "CSV_CHUNK_ROWS", 7)
    monkeypatch.setattr(fmamm.backtest, "_CHUNK", 5)
    monkeypatch.chdir(inputs)
    got = run_entry(name)
    assert got["exit"] == 0
    assert mismatches(GOLDEN[name], got) == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_matches_table(demo):
    assert mismatches(GOLDEN[f"demo-{demo.stem}"], run_demo(demo)) == []


def test_one_ulp_in_one_value_fails_the_check(inputs, monkeypatch):
    # the fm_amm run's last value, one ulp up, in the outputs main gets: every
    # file derived from that column moves with it, and nothing else does
    backtest = fmamm.cli.cmd_backtest

    def nudged(args):
        outputs = backtest(args)
        values = outputs.runs["fm_amm"].copy()
        values[-1] = np.nextafter(values[-1], np.inf)
        return outputs._replace(runs={**outputs.runs, "fm_amm": values})

    monkeypatch.setattr(fmamm.cli, "cmd_backtest", nudged)
    monkeypatch.chdir(inputs)
    name = "backtest-block-gamma0"
    got = run_entry(name)
    assert mismatches(GOLDEN[name], got) == ["comparison.csv", "fm_amm_returns.csv", "long.csv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        build_inputs(Path(tmp))
        table = record(Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} entries in {TABLE}", file=sys.stderr)
