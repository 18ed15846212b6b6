"""The ``modelcheck`` workload: repeated model-checking runs, each in a
fresh interpreter (:mod:`perfbench.mc_main`), until the timed budget is
spent.  A *request* is one complete verification, the verdict a
researcher waits for."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import checks, inputs, speed, tracing
from repro.obs.metrics import percentile_nearest_rank

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: fewest runs per invocation, however short the budget
MIN_RUNS = 5
RUN_TIMEOUT_S = 170


def run_child(spans_path: Optional[str] = None) -> Dict[str, Any]:
    """One fresh-interpreter run; checks every scope's verdict and adds,
    at the reference speed (see :mod:`perfbench.speed`), ``setup_s``
    (spawn until imports finished), ``verdict_s`` (the exploring),
    ``cpu_s`` (its CPU) and ``wall_s`` (spawn until the child exited)."""
    env = inputs.child_env(ROOT)
    command = [sys.executable, os.path.join(ROOT, "perfbench", "mc_main.py")]
    if spans_path:
        command.append(spans_path)
    spawned = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"model-checking run failed:\n{done.stderr}")
    returned = time.perf_counter()
    run = json.loads(done.stdout.strip().splitlines()[-1])
    checks.check_verdicts(run["scopes"], inputs.modelcheck_scopes())
    probe = [tuple(sample) for sample in run.pop("probe")]
    rows = run["scopes"].values()
    start, end = min(r["start"] for r in rows), max(r["end"] for r in rows)
    # The probe's own time is taken out of the exploring's wall and CPU time.
    scale, probe_s = speed.scale(probe, start, end), speed.probe_seconds(probe, start, end)
    run["scale"] = scale
    run["setup_s"] = (run["ready"] - spawned) / speed.scale(probe, spawned, run["ready"])
    run["verdict_s"] = (end - start - probe_s) / scale
    run["cpu_s"] = (run["cpu_s"] - probe_s) / scale
    run["wall_s"] = ((returned - spawned - speed.probe_seconds(probe, spawned, returned))
                     / speed.scale(probe, spawned, returned))
    return run


def run_timed(seconds: float) -> Tuple[List[Dict[str, Any]], float]:
    """Runs back to back until ``seconds`` have passed (at least
    ``MIN_RUNS``); returns them and the wall time they took (as measured,
    not at the reference speed)."""
    runs: List[Dict[str, Any]] = []
    began = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() < began + seconds:
        runs.append(run_child())
    return runs, time.perf_counter() - began


def end_to_end(runs: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """A request is one complete verification (every scope, one fresh
    interpreter), as ``repro modelcheck`` is for a user: latency runs
    from spawn to the last scope's verdict, ``verdict_s`` covers the
    exploring alone.  Every timing is at the reference speed."""
    latency_ms = sorted((run["verdict_s"] + run["setup_s"]) * 1e3 for run in runs)
    return {
        "txn_per_s": len(runs) / sum(run["wall_s"] for run in runs),
        "latency_p50_ms": percentile_nearest_rank(latency_ms, 0.50),
        "latency_p99_ms": percentile_nearest_rank(latency_ms, 0.99),
        "cpu_ms_per_txn": statistics.median(run["cpu_s"] for run in runs) * 1e3,
        "verdict_s": statistics.median(run["verdict_s"] for run in runs),
        "success_ratio": 1.0,  # a wrong verdict fails the run instead
        "peak_rss_mb": statistics.median(run["maxrss_kb"] for run in runs) / 1024,
        "setup_s": statistics.median(run["setup_s"] for run in runs),
    }


def per_layer(runs: Sequence[Dict[str, Any]], traced: Dict[str, Any],
              spans: Sequence[tracing.Span],
              client_cpu_share: float) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics (counts and guards from the untraced runs, layer
    costs from the traced one) and the attribution table of the traced
    run's exploring time."""
    def total(key: str) -> int:
        return sum(r[key] for run in runs for r in run["scopes"].values())

    explore_s = sum(run["verdict_s"] for run in runs)
    rows = traced["scopes"].values()
    start, end = min(r["start"] for r in rows), max(r["end"] for r in rows)
    layers = tracing.summarize(spans, start, end)
    empty = tracing.Layer()
    traced_states = sum(r["states"] for r in rows)
    per_state_ms = lambda name: (layers.get(name, empty).total * 1e3  # noqa: E731
                                 / traced["scale"] / traced_states)
    verdict = statistics.median(run["verdict_s"] for run in runs)
    metrics = {
        "mc.states_per_s": total("states") / explore_s,
        "mc.dedup_ratio": total("dedup_hits") / max(total("transitions"), 1),
        "mc.ample_ratio": total("ample_hits") / max(total("states"), 1),
        "mc.successor_keys.ms_per_state": per_state_ms("mc.successor_keys"),
        "mc.canonical.ms_per_state": per_state_ms("mc.canonical"),
        "mc.spec.left_mover.calls": layers.get("spec.left_mover", empty).calls,
        "mc.intern.payload_classes": statistics.median(
            run["intern.payload_classes"] for run in runs),
        "client.cpu_share": client_cpu_share,
        "tracing.overhead_ratio": traced["verdict_s"] / verdict,
        # speed of the last run over the first
        "run.drift_ratio": runs[0]["verdict_s"] / runs[-1]["verdict_s"],
        "host.speed_scale": statistics.median(run["scale"] for run in runs),
    }
    return metrics, tracing.attribution(layers, end - start)
