#!/usr/bin/env python3
"""Layered benchmark of the ``fmamm`` CLI.

    python3 bench/run.py --workload replay-1s --seed 1 --seconds 35 --trace 0

Builds the workload's inputs from ``--seed``, then runs the real CLI command
(``python -m fmamm.cli ...`` on the checkout's ``src/``) in a fresh
interpreter, one child at a time, repeating it for ``--seconds``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it also
makes two traced in-process runs (coarse and fine spans) and one tracemalloc
pass of the same command, and reports the per-layer metrics instead.  Every
invocation also makes one untimed run of each workload's command on the
small seed-0 inputs whose terminal ROIs ``reference.json`` records.  Every
run goes through the correctness gate (``gate.py``).  The last line of
stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Spans and a full report (machine facts, every run, paper-scale
extrapolation) are written to ``bench/_work/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from gate import GateError, check_identical, check_outputs, digest, load_reference
from inputs import WORKLOADS, Inputs, Workload, generate, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_SAMPLES = 5
MIN_RUNS = 2  # the determinism check needs a repeat
CHILD_TIMEOUT_S = 120.0
PAPER_PRICE_ROWS = 15.8e6
PAPER_BLOCKS = 1.3e6
PAPER_POOLS = 11

CLI = [sys.executable, "-m", "fmamm.cli"]
SETUP_CODE = (
    "import time; t = time.perf_counter(); import fmamm.amm; "
    "print(time.perf_counter() - t); import fmamm.cli"
)

END_TO_END = {
    "wall_s": "s",
    "blocks_per_s": "blocks/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "market_data.load_price_series_s": "s",
    "market_data.price_rows": "count",
    "market_data.rows_per_s": "rows/s",
    "market_data.sample_at_s": "s",
    "market_data.write_csv_s": "s",
    "market_data.write_bytes": "bytes",
    "market_data.peak_alloc_mb": "MB",
    "uniswap.load_swap_records_s": "s",
    "uniswap.swap_rows": "count",
    "uniswap.run_baseline_s": "s",
    "uniswap.marks": "count",
    "uniswap.us_per_mark": "us",
    "uniswap.per_block_swap_volume_s": "s",
    "uniswap.peak_alloc_mb": "MB",
    "backtest.run_s": "s",
    "backtest.blocks": "count",
    "backtest.scenarios": "count",
    "backtest.us_per_block": "us",
    "backtest.rebalance_ratio": "ratio",
    "backtest.compare_returns_s": "s",
    "backtest.write_comparison_s": "s",
    "backtest.peak_alloc_mb": "MB",
    "arbitrage.optimal_rebalance_calls": "count",
    "arbitrage.optimal_rebalance_self_s": "s",
    "arbitrage.sign_mixing_blocks": "count",
    "batch.settle_batch_calls": "count",
    "batch.settle_batch_self_s": "s",
    "batch.orders_settled": "count",
    "amm.calls": "count",
    "amm.self_s": "s",
    "amm.import_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Run:
    """One execution of the workload's command."""

    kind: str  # "reference", "verify", "timed", "coarse", "fine" or "alloc"
    seconds: float
    code: int
    stdout: str
    rss_mb: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


CHECK_ERRORS = (GateError, OSError, ValueError, KeyError, TypeError, IndexError)


@dataclass
class Session:
    """Everything one invocation ran, with its first finished run as the reference.

    The first run that exits 0 gets the full gate; every later run must
    match its stdout and out-dir byte for byte.  If the first run failed the
    gate, a later run that matches it carries the same wrong results and
    fails too.
    """

    workload: Workload
    inputs: Inputs
    check_reference: bool
    runs: list[Run] = field(default_factory=list)
    stdout: str | None = None
    digest: dict | None = None
    first_error: str | None = None
    rois: dict | None = None

    def argv(self, out_dir: Path | None) -> list[str]:
        argv = [self.workload.command, "--config", self.inputs.config]
        return argv + ["--out-dir", str(out_dir)] if out_dir is not None else argv

    def judge(self, run: Run, out_dir: Path | None) -> None:
        """Apply the correctness gate to a finished run and record it."""
        try:
            if run.code != 0:
                raise GateError(f"exit code {run.code}")
            if self.stdout is None:
                first_digest = digest(out_dir) if out_dir is not None else None
                self.stdout, self.digest = run.stdout, first_digest
                if out_dir is not None:
                    try:
                        self.rois = check_outputs(self.workload, self.inputs, out_dir,
                                                  self.check_reference)
                    except CHECK_ERRORS as exc:
                        self.first_error = _describe(exc)
                        raise
            else:
                if run.stdout != self.stdout:
                    raise GateError("stdout differs from the first run")
                if out_dir is not None:
                    check_identical(self.digest, digest(out_dir))
                if self.first_error is not None:
                    raise GateError(f"same output as the first run, which failed: "
                                    f"{self.first_error}")
        except CHECK_ERRORS as exc:
            run.error = _describe(exc)
        self.runs.append(run)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_child(argv: list[str], cwd: Path, tmp_dir: Path) -> tuple[float, int, str, float]:
    """Run one child to completion: wall seconds, exit code, stdout, peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile("w+", dir=tmp_dir) as out, \
            tempfile.TemporaryFile("w+", dir=tmp_dir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read()
        if proc.returncode != 0:
            stdout += err.read()[-2000:]
    return seconds, proc.returncode, stdout, usage.ru_maxrss / 1024.0


def measure_setup(tmp_dir: Path) -> tuple[list[float], list[float]]:
    """Fresh-interpreter start plus ``import fmamm.cli``, repeated.

    Returns the children's wall times and their ``import fmamm.amm`` times.
    """
    walls, amm = [], []
    for _ in range(SETUP_SAMPLES):
        seconds, code, stdout, _ = run_child([sys.executable, "-c", SETUP_CODE], ROOT, tmp_dir)
        if code != 0:
            raise RuntimeError(f"import fmamm.cli failed: {stdout.strip()}")
        walls.append(seconds)
        amm.append(float(stdout.split()[0]))
    return walls, amm


def untimed_run(session: Session, kind: str, work: Path) -> None:
    """One child run with an out-dir, for the gate only."""
    out_dir = work / "out" / kind
    wall, code, stdout, rss = run_child(CLI + session.argv(out_dir), session.inputs.directory,
                                        work)
    session.judge(Run(kind, wall, code, stdout, rss), out_dir)


def reference_run(name: str, work: Path) -> Session:
    """A workload on the recorded seed-0 inputs, checked against ``reference.json``."""
    reference = load_reference()
    workload = scaled(WORKLOADS[name], reference["scale"])
    work = work / "reference" / name
    inputs = generate(workload, reference["seed"], work / "inputs")
    session = Session(workload, inputs, check_reference=True)
    untimed_run(session, "reference", work)
    return session


def timed_runs(session: Session, seconds: float, work: Path) -> None:
    """Repeat the command in fresh interpreters for ``seconds``."""
    deadline = time.perf_counter() + seconds
    count = 0
    while count < MIN_RUNS or time.perf_counter() < deadline:
        count += 1
        out_dir = work / "out" / f"run{count}" if session.workload.out_dir else None
        wall, code, stdout, rss = run_child(CLI + session.argv(out_dir),
                                            session.inputs.directory, work)
        session.judge(Run("timed", wall, code, stdout, rss), out_dir)
        if out_dir is not None and count > 1:
            shutil.rmtree(out_dir, ignore_errors=True)


def traced_runs(session: Session, work: Path, label: str):
    """Traced in-process runs of the same command, then a tracemalloc pass.

    The coarse run wraps the layer entry points and gives the layer times;
    the fine run also wraps the per-block calls and gives their counts and
    self times.  Returns both tracers, the coarse ``main`` duration and the
    per-layer metrics.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracing

    tracers, seconds = {}, {}
    for kind in ("coarse", "fine"):
        out_dir = work / "out" / kind if session.workload.out_dir else None
        tracer, code, stdout, main_s = tracing.traced_run(
            session.argv(out_dir), session.inputs.directory, f"{label}-{kind}", kind == "fine")
        session.judge(Run(kind, main_s, code, stdout), out_dir)
        tracers[kind], seconds[kind] = tracer, main_s
    written = list((work / "out" / "coarse").iterdir()) if session.workload.out_dir else []
    files = {"cli.files_written": len(written),
             "cli.bytes_written": sum(p.stat().st_size for p in written)}

    alloc_dir = work / "out" / "alloc" if session.workload.out_dir else None
    peaks, code, stdout = tracing.peak_alloc_run(session.argv(alloc_dir), session.inputs.directory)
    session.judge(Run("alloc", 0.0, code, stdout), alloc_dir)
    alloc = {f"{layer}.peak_alloc_mb": mb for layer, mb in peaks.items()}
    layers = {**tracing.layer_metrics(tracers["coarse"], tracers["fine"]), **files, **alloc}
    return list(tracers.values()), seconds, layers


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
    }


def extrapolate(layers: dict) -> dict:
    """Paper-scale costs from the measured per-row and per-block costs."""
    out = {"label": "extrapolated from this run's traced per-row and per-block costs, "
                    "not measured"}
    if layers["market_data.price_rows"]:
        per_row = layers["market_data.load_price_series_s"] / layers["market_data.price_rows"]
        out["price_load_s_per_pool"] = per_row * PAPER_PRICE_ROWS
        out["price_load_s_all_pools"] = per_row * PAPER_PRICE_ROWS * PAPER_POOLS
    if layers["backtest.blocks"]:
        per_block = layers["backtest.run_s"] / layers["backtest.blocks"]
        out["block_step_s_per_pool"] = per_block * PAPER_BLOCKS
        out["block_step_s_all_pools"] = per_block * PAPER_BLOCKS * PAPER_POOLS
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat the timed command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (self-tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fmamm" / "cli.py").is_file():
        print(f"error: no fmamm sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workload = scaled(WORKLOADS[args.workload], args.scale)
    label = f"{workload.name}-seed{args.seed}"
    work = WORK / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # every workload's command, whatever --workload and --seed are, so the
        # fee, noise and baseline paths are compared with recorded numbers
        references = [reference_run(name, work) for name in WORKLOADS]
        inputs = generate(workload, args.seed, work / "inputs")
        session = Session(workload, inputs, check_reference=False)
        setup_walls, amm_import = measure_setup(work)
        if not workload.out_dir:
            # the timed command writes nothing, so one extra run with an
            # out-dir gives the gate full-precision results to check
            untimed_run(session, "verify", work)
        timed_runs(session, args.seconds, work)

        timed = [r for r in session.runs if r.kind == "timed"]
        good = [r for r in timed if r.ok] or timed
        wall_s = statistics.median(r.seconds for r in good)
        blocks = workload.n_blocks * len(workload.runs)
        end_to_end = {
            "wall_s": wall_s,
            "blocks_per_s": blocks / wall_s,
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": statistics.median(r.rss_mb for r in good),
        }
        layers, tracers, traced_s = None, [], {}
        if args.trace:
            tracers, traced_s, layers = traced_runs(session, work, label)
            layers["amm.import_s"] = statistics.median(amm_import)
            layers["trace.overhead_s"] = end_to_end["setup_s"] + traced_s["coarse"] - wall_s
            layers = {name: layers[name] for name in PER_LAYER}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [r for ref in references for r in ref.runs] + session.runs
    failed = sum(not r.ok for r in runs)
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "scale": args.scale, "seconds": args.seconds, "machine": machine_facts(),
        "end_to_end": end_to_end, "error_rate": failed / len(runs),
        "setup_samples_s": setup_walls,
        "runs": [{"kind": r.kind, "seconds": r.seconds, "exit": r.code, "rss_mb": r.rss_mb,
                  "error": r.error} for r in runs],
        "terminal_rois": session.rois,
        "reference_rois": {ref.workload.name: ref.rois for ref in references},
    }
    if layers is not None:
        report["per_layer"] = layers
        report["fine_trace_overhead_s"] = end_to_end["setup_s"] + traced_s["fine"] - wall_s
        report["paper_scale"] = extrapolate(layers)
        sys.modules["tracing"].write_spans(WORK / f"{label}.spans.jsonl", tracers)
    (WORK / f"{label}.json").write_text(json.dumps(report, indent=2) + "\n")

    print_report(report)
    metrics = layers if layers is not None else end_to_end
    units = PER_LAYER if layers is not None else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def print_report(report: dict) -> None:
    m = report["machine"]
    timed = [r["seconds"] for r in report["runs"] if r["kind"] == "timed"]
    print(f"workload {report['workload']} seed {report['seed']} scale {report['scale']}: "
          f"{report['why']}")
    print(f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}")
    e = report["end_to_end"]
    print(f"  wall_s        {e['wall_s']:10.4f} s         median of {len(timed)} timed runs "
          f"(min {min(timed):.4f}, max {max(timed):.4f})")
    print(f"  blocks_per_s  {e['blocks_per_s']:10.1f} blocks/s")
    print(f"  setup_s       {e['setup_s']:10.4f} s         median of "
          f"{len(report['setup_samples_s'])} fresh imports")
    print(f"  peak_rss_mb   {e['peak_rss_mb']:10.1f} MB")
    failed = sum(r["error"] is not None for r in report["runs"])
    print(f"  error_rate    {report['error_rate']:10.4f} ratio     "
          f"{failed} of {len(report['runs'])} runs failed")
    for r in report["runs"]:
        if r["error"] is not None:
            print(f"    failed {r['kind']} run: {r['error']}")
    if "per_layer" in report:
        for name, value in report["per_layer"].items():
            print(f"  {name:36s} {value:14.6g} {PER_LAYER[name]}")
        for key, value in report["paper_scale"].items():
            print(f"  paper scale {key}: {value if isinstance(value, str) else f'{value:.1f}'}")


if __name__ == "__main__":
    sys.exit(main())
