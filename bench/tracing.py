"""Traced in-process runs of one ``fmamm`` CLI command.

The package is not edited: spans are recorded from here, by replacing
module attributes (and two methods) with timing wrappers for the duration
of a run and restoring them afterwards.  A call is wrapped where its caller
looks it up, e.g. ``fmamm.backtest.settle_batch`` rather than
``fmamm.batch.settle_batch``, because the modules import names directly.

A target that no longer exists, because a later version of the package
dropped that call path, is skipped, so its metrics read 0.

A span is (name, start, end, parent, run id).  Spans are kept in memory and
written out when the benchmark ends.  Per-block calls (hot spans) would mean
about a million records per run, so each of those is folded into one record
per (name, parent) with its call count, total and self time.  Self time is a
span's duration minus the time its child spans cover.

Peak allocations come from a separate pass with ``tracemalloc`` running
only inside the layer entry points, so it does not distort the traced times.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import time
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path

# (module, attribute path, span name, hot)
SPAN_TARGETS = (
    ("fmamm.cli", "main", "cli.main", False),
    ("fmamm.cli", "load_price_series", "market_data.load_price_series", False),
    ("fmamm.backtest", "sample_at", "market_data.sample_at", False),
    ("fmamm.uniswap", "sample_at", "market_data.sample_at", False),
    ("fmamm.market_data", "LpReturnSeries.write_csv", "market_data.write_csv", False),
    ("fmamm.cli", "load_swap_records", "uniswap.load_swap_records", False),
    ("fmamm.cli", "run_baseline", "uniswap.run_baseline", False),
    ("fmamm.cli", "per_block_swap_volume", "uniswap.per_block_swap_volume", False),
    ("fmamm.cli", "block_grid_series", "backtest.block_grid_series", False),
    ("fmamm.cli", "fee_sweep", "backtest.fee_sweep", False),
    ("fmamm.cli", "noise_volume_sweep", "backtest.noise_volume_sweep", False),
    ("fmamm.cli", "run_fmamm_backtest", "backtest.run", False),
    ("fmamm.backtest", "run_fmamm_backtest", "backtest.run", False),
    ("fmamm.cli", "compare_returns", "backtest.compare_returns", False),
    ("fmamm.backtest", "ReturnComparison.write_csv", "backtest.write_comparison", False),
    ("fmamm.backtest", "optimal_rebalance", "arbitrage.optimal_rebalance", True),
    ("fmamm.backtest", "settle_batch", "batch.settle_batch", True),
    ("fmamm.arbitrage", "pre_fee_price", "amm.pre_fee_price", True),
    ("fmamm.arbitrage", "effective_price", "amm.effective_price", True),
    ("fmamm.batch", "pre_fee_price", "amm.pre_fee_price", True),
)

# layer -> entry points whose peak allocation is that layer's
ALLOC_TARGETS = {
    "market_data": (("fmamm.cli", "load_price_series"),),
    "uniswap": (("fmamm.cli", "load_swap_records"), ("fmamm.cli", "run_baseline"),
                ("fmamm.cli", "per_block_swap_volume")),
    "backtest": (("fmamm.cli", "run_fmamm_backtest"), ("fmamm.backtest", "run_fmamm_backtest")),
}


def _is_sign_mixing(args, decision) -> bool:
    """Whether ``optimal_rebalance`` took a sign-mixing branch.

    That branch is taken when the arbitrageurs' same-sign closed-form net
    trade lands on the noise's side of zero: their order trades against the
    batch's net direction.
    """
    if not decision.rebalanced:
        return False
    reserves, _, tau, p_star = args[:4]
    keep = 1.0 - tau
    if decision.trade > 0.0:
        return reserves.x - reserves.y / (keep * p_star) < 0.0
    return reserves.x / keep - reserves.y / p_star > 0.0


def _count_hooks(counts: Counter) -> dict:
    """Work counters updated after a wrapped call returns."""

    def price_rows(result, args):
        counts["market_data.price_rows"] += len(result)

    def written(result, args):
        counts["market_data.write_bytes"] += os.path.getsize(args[1])

    def swap_rows(result, args):
        counts["uniswap.swap_rows"] += len(result)

    def marks(result, args):
        counts["uniswap.marks"] += len(args[1])

    def backtest(result, args):
        counts["backtest.blocks"] += result.summary["n_blocks"]
        counts["backtest.rebalances"] += result.summary["n_rebalances"]
        counts["backtest.scenarios"] += 1

    def rebalance(result, args):
        if _is_sign_mixing(args, result):
            counts["arbitrage.sign_mixing_blocks"] += 1

    def settle(result, args):
        counts["batch.orders_settled"] += len(args[1].orders)

    return {
        "market_data.load_price_series": price_rows,
        "market_data.write_csv": written,
        "uniswap.load_swap_records": swap_rows,
        "uniswap.run_baseline": marks,
        "backtest.run": backtest,
        "arbitrage.optimal_rebalance": rebalance,
        "batch.settle_batch": settle,
    }


def _resolve(module: str, path: str):
    """The object holding a target and the target's attribute name, or None if gone."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


@contextlib.contextmanager
def _patched(replacements):
    """Install ``(owner, attr, make_wrapper)`` replacements; restore on exit."""
    originals = []
    try:
        for owner, attr, make in replacements:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, make(fn))
        yield
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.folded: dict[tuple, list] = {}  # (name, parent name) -> [calls, total, self]
        self.totals: dict[str, list] = {}  # name -> [calls, total, self]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0

    def wrap(self, fn, name: str, hot: bool, hook=None):
        stack, perf = self._stack, time.perf_counter
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, name, perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[2]
                self_time = duration - frame[3]
                totals[0] += 1
                totals[1] += duration
                totals[2] += self_time
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                if hot:
                    key = (name, parent[1] if parent else None)
                    agg = self.folded.setdefault(key, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += self_time
                else:
                    self.spans.append((frame[0], name, frame[2], end,
                                       parent[0] if parent else None))
            if hook is not None:
                hook(result, args)
            return result

        return traced

    def records(self):
        """Span records as JSON-ready dicts, times relative to the tracer's start."""
        for span_id, name, start, end, parent in self.spans:
            yield {"run_id": self.run_id, "id": span_id, "name": name,
                   "start": start - self.t0, "end": end - self.t0, "parent": parent}
        for (name, parent), (calls, total, self_s) in self.folded.items():
            yield {"run_id": self.run_id, "name": name, "parent": parent, "folded": True,
                   "calls": calls, "total_s": total, "self_s": self_s}


def traced_run(argv: list[str], cwd: Path, run_id: str, hot: bool) -> tuple[Tracer, int, str, float]:
    """Run ``fmamm.cli.main(argv)`` in-process with the span targets wrapped.

    Without ``hot`` the per-block spans are left out: at about 1 us per
    wrapped call they would inflate the enclosing layer's time by a third
    on kernel-bound workloads.  Returns the tracer, the exit code, the
    captured stdout and the duration of the ``main`` call.
    """
    tracer = Tracer(run_id)
    hooks = _count_hooks(tracer.counts)
    replacements = []
    for module, path, name, is_hot in SPAN_TARGETS:
        target = _resolve(module, path)
        if target is None or (is_hot and not hot):
            continue
        replacements.append(
            (*target, lambda fn, n=name, h=is_hot: tracer.wrap(fn, n, h, hooks.get(n)))
        )
    with _patched(replacements):
        code, stdout, seconds = _call_main(argv, cwd)
    return tracer, code, stdout, seconds


def peak_alloc_run(argv: list[str], cwd: Path) -> tuple[dict, int, str]:
    """Peak traced allocation per layer, in MB, from a tracemalloc pass.

    tracemalloc runs only inside the wrapped entry points, so the rest of
    the command is not slowed; each call reports the peak of what it
    allocated, and a layer reports its largest call.
    """
    peaks = {layer: 0.0 for layer in ALLOC_TARGETS}

    def make(layer):
        def wrapper_for(fn):
            def measured(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    peaks[layer] = max(peaks[layer], peak / 2**20)
            return measured
        return wrapper_for

    replacements = [(*target, make(layer))
                    for layer, targets in ALLOC_TARGETS.items() for module, path in targets
                    if (target := _resolve(module, path)) is not None]
    with _patched(replacements):
        code, stdout, _ = _call_main(argv, cwd)
    return peaks, code, stdout


def _call_main(argv, cwd):
    cli = importlib.import_module("fmamm.cli")
    buffer = io.StringIO()
    previous = Path.cwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash fails this run, as a child's exit 1 would
                traceback.print_exc()
                code = 1
            seconds = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return code, buffer.getvalue(), seconds


def layer_metrics(coarse: Tracer, fine: Tracer) -> dict[str, float]:
    """Per-layer metrics (0 where a layer did not run).

    Layer times come from the coarse run; the per-block layers (arbitrage,
    batch, amm) exist only in the fine run.
    """
    def stat(tracer, name, i):
        return tracer.totals.get(name, [0, 0.0, 0.0])[i]

    def total(name):
        return stat(coarse, name, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    c, f = coarse.counts, fine.counts
    load_s = total("market_data.load_price_series")
    baseline_s = total("uniswap.run_baseline")
    run_s = total("backtest.run")
    return {
        "market_data.load_price_series_s": load_s,
        "market_data.price_rows": c["market_data.price_rows"],
        "market_data.rows_per_s": ratio(c["market_data.price_rows"], load_s),
        "market_data.sample_at_s": total("market_data.sample_at"),
        "market_data.write_csv_s": total("market_data.write_csv"),
        "market_data.write_bytes": c["market_data.write_bytes"],
        "uniswap.load_swap_records_s": total("uniswap.load_swap_records"),
        "uniswap.swap_rows": c["uniswap.swap_rows"],
        "uniswap.run_baseline_s": baseline_s,
        "uniswap.marks": c["uniswap.marks"],
        "uniswap.us_per_mark": 1e6 * ratio(baseline_s, c["uniswap.marks"]),
        "uniswap.per_block_swap_volume_s": total("uniswap.per_block_swap_volume"),
        "backtest.run_s": run_s,
        "backtest.blocks": c["backtest.blocks"],
        "backtest.scenarios": c["backtest.scenarios"],
        "backtest.us_per_block": 1e6 * ratio(run_s, c["backtest.blocks"]),
        "backtest.rebalance_ratio": ratio(c["backtest.rebalances"], c["backtest.blocks"]),
        "backtest.compare_returns_s": total("backtest.compare_returns"),
        "backtest.write_comparison_s": total("backtest.write_comparison"),
        "arbitrage.optimal_rebalance_calls": stat(fine, "arbitrage.optimal_rebalance", 0),
        "arbitrage.optimal_rebalance_self_s": stat(fine, "arbitrage.optimal_rebalance", 2),
        "arbitrage.sign_mixing_blocks": f["arbitrage.sign_mixing_blocks"],
        "batch.settle_batch_calls": stat(fine, "batch.settle_batch", 0),
        "batch.settle_batch_self_s": stat(fine, "batch.settle_batch", 2),
        "batch.orders_settled": f["batch.orders_settled"],
        "amm.calls": stat(fine, "amm.pre_fee_price", 0) + stat(fine, "amm.effective_price", 0),
        "amm.self_s": stat(fine, "amm.pre_fee_price", 2) + stat(fine, "amm.effective_price", 2),
        "cli.self_s": stat(coarse, "cli.main", 2),
    }


def write_spans(path: Path, tracers) -> None:
    with open(path, "w") as fh:
        for tracer in tracers:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
