"""Self-tests of the benchmark.  Run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from fmamm.cli import main  # noqa: E402

SMALL = 0.02


def _generate(tmp_path, name, seed=5, scale=SMALL):
    workload = inputs.scaled(inputs.WORKLOADS[name], scale)
    return workload, inputs.generate(workload, seed, tmp_path / f"{name}-{seed}")


def _run_cli(workload, generated, out_dir, monkeypatch):
    monkeypatch.chdir(generated.directory)
    assert main([workload.command, "--config", generated.config, "--out-dir", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_same_seed_gives_identical_input_bytes(tmp_path, name):
    _, a = _generate(tmp_path / "a", name)
    _, b = _generate(tmp_path / "b", name)
    _, c = _generate(tmp_path / "c", name, seed=6)
    files = sorted(p.name for p in a.directory.iterdir())
    assert files == sorted(p.name for p in b.directory.iterdir())
    for f in files:
        assert (a.directory / f).read_bytes() == (b.directory / f).read_bytes(), f
    assert (a.directory / "prices.csv").read_bytes() != (c.directory / "prices.csv").read_bytes()


def test_swaps_fall_inside_the_marked_range(tmp_path):
    _, generated = _generate(tmp_path, "replay-1s")
    t = generated.swaps["timestamp"]
    assert t.min() > inputs.START
    assert t.max() <= inputs.START + inputs.MU * generated.n_blocks


def test_gate_accepts_real_outputs_and_rejects_a_perturbed_roi(tmp_path, monkeypatch):
    workload, generated = _generate(tmp_path, "fee-grid")
    out = _run_cli(workload, generated, tmp_path / "out", monkeypatch)
    rois = gate.check_outputs(workload, generated, out, check_reference=False)
    gate.check_rois(rois, dict(rois))
    perturbed = {k: v * (1.0 + 1e-7) for k, v in rois.items()}
    with pytest.raises(gate.GateError):
        gate.check_rois(rois, perturbed)

    # a zero-fee return series off the closed form by 1e-7 is rejected too
    path = out / "fee_0_returns.csv"
    lines = path.read_text().splitlines()
    t, value, roi = lines[-1].split(",")
    lines[-1] = f"{t},{float(value) * (1.0 + 1e-7)!r},{roi}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(gate.GateError, match="closed form"):
        gate.check_outputs(workload, generated, out, check_reference=False)


def test_gate_checks_the_baseline_identity(tmp_path, monkeypatch):
    workload, generated = _generate(tmp_path, "replay-1s")
    out = _run_cli(workload, generated, tmp_path / "out", monkeypatch)
    gate.check_outputs(workload, generated, out, check_reference=False)
    values = gate.baseline_values(generated, inputs.SIM_SHARE * inputs.ACTIVE_LIQUIDITY)
    with pytest.raises(gate.GateError, match="baseline"):
        gate.check_baseline_identity(generated, values * (1.0 + 1e-7))


def test_gate_rejects_a_non_identical_out_dir(tmp_path, monkeypatch):
    workload, generated = _generate(tmp_path, "noise-mix")
    first = _run_cli(workload, generated, tmp_path / "first", monkeypatch)
    second = _run_cli(workload, generated, tmp_path / "second", monkeypatch)
    gate.check_identical(gate.digest(first), gate.digest(second))
    with open(second / "summary.json", "a") as fh:
        fh.write(" ")
    with pytest.raises(gate.GateError, match="summary.json"):
        gate.check_identical(gate.digest(first), gate.digest(second))


def test_runs_matching_a_failed_first_run_fail_too(tmp_path, monkeypatch):
    workload, generated = _generate(tmp_path, "fee-grid")
    out = _run_cli(workload, generated, tmp_path / "out", monkeypatch)
    (out / "summary.json").write_text("{}")
    session = run.Session(workload, generated, check_reference=False)
    session.judge(run.Run("verify", 1.0, 0, "table"), out)
    session.judge(run.Run("timed", 1.0, 0, "table"), None)
    assert [r.ok for r in session.runs] == [False, False]
    assert "same output as the first run" in session.runs[1].error


def test_traced_counts_repeat_exactly(tmp_path):
    workload, generated = _generate(tmp_path, "noise-mix")
    argv = [workload.command, "--config", generated.config]
    counts = []
    for i in range(2):
        tracer, code, _, _ = tracing.traced_run(
            argv + ["--out-dir", str(tmp_path / f"out{i}")], generated.directory, "t", hot=True)
        assert code == 0
        counts.append((dict(tracer.counts), {k: v[0] for k, v in tracer.totals.items()}))
    assert counts[0] == counts[1]
    assert counts[0][0]["arbitrage.sign_mixing_blocks"] > 0


def test_reference_run_checks_the_recorded_rois(tmp_path, monkeypatch):
    session = run.reference_run("fee-grid", tmp_path)
    assert [r.ok for r in session.runs] == [True]
    assert session.rois == gate.load_reference()["rois"]["fee-grid"]

    recorded = gate.load_reference()
    recorded["rois"]["fee-grid"]["fee_0.003"] *= 1.0 + 1e-7
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(recorded))
    monkeypatch.setattr(gate, "REFERENCE", path)
    (tmp_path / "again").mkdir()
    session = run.reference_run("fee-grid", tmp_path / "again")
    assert "fee_0.003" in session.runs[0].error


def test_traced_run_survives_a_dropped_call_path(tmp_path, monkeypatch):
    """As after a kernel rewrite that no longer imports ``settle_batch`` into the backtest."""
    import builtins

    import fmamm.backtest
    import fmamm.batch

    monkeypatch.delattr(fmamm.backtest, "settle_batch")
    # the backtest still finds the function, through builtins, where no wrapper reaches it
    monkeypatch.setattr(builtins, "settle_batch", fmamm.batch.settle_batch, raising=False)
    workload, generated = _generate(tmp_path, "fee-grid")
    session = run.Session(workload, generated, check_reference=False)
    _, _, layers = run.traced_runs(session, tmp_path, "t")
    assert all(r.ok for r in session.runs)
    assert set(run.PER_LAYER) - {"amm.import_s", "trace.overhead_s"} <= set(layers)
    assert layers["batch.settle_batch_calls"] == 0
    assert layers["arbitrage.optimal_rebalance_calls"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # noise-mix is runnable by hand but left out of the measured set (see README)
    assert [w["name"] for w in spec["workloads"]] == ["replay-1s", "fee-grid"]
    assert all(w["why"] == inputs.WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_smoke_run_at_tiny_size(name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", "1",
                  "--scale", str(SMALL))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert list(result["metrics"]) == list(run.PER_LAYER)
    report = json.loads((run.WORK / f"{name}-seed3.json").read_text())
    assert report["runs"][0]["kind"] == "reference"
    assert report["reference_rois"] == gate.load_reference()["rois"]
    assert "error_rate" in proc.stdout
    if name == "noise-mix":
        assert result["metrics"]["arbitrage.sign_mixing_blocks"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "fee-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
