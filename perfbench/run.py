"""The repo benchmark: one command per workload, every metric with its unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv-local --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` splits the budget between an untraced and a traced run
and reports the per-layer metrics (see ``perfbench/METRICS.md``).  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A failed correctness check exits 1, any other error 2;
neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("kv-local", "bank-2pc", "modelcheck")


def _catalogue(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _report(values: dict, section: str) -> dict:
    """``values`` as ``{name: {value, unit}}`` for every metric of
    ``section``; a per-layer metric of a layer this workload never
    reaches reads 0."""
    units = _catalogue(section)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    if section == "end_to_end" and set(values) != set(units):
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(set(units) - set(values))}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def run_serve(name: str, seed: int, seconds: float, trace: bool, work: str):
    from perfbench import serve, tracing

    workload = serve.WORKLOADS[name]
    if not trace:
        plain, setup_times = serve.run_once(workload, seed, seconds, work)
        if workload.durable:
            serve.durable_check(workload, seed, work)
        failed = len(plain.completions) - plain.committed
        return serve.end_to_end(plain, setup_times), "end_to_end", len(plain.completions), failed
    # Half the budget untraced (the reference the overhead is measured
    # against, and the source of the guards), half traced; ``verdict_s``
    # is not reported here, so one checked window each is enough.
    durable = workload.durable
    plain, _ = serve.run_once(workload, seed, seconds / 2, work, setups=1, windows=1,
                              durable=durable)
    attempted, failed = len(plain.completions), len(plain.completions) - plain.committed
    spans_path = os.path.join(work, "spans.json")
    traced, _ = serve.run_once(workload, seed, seconds / 2, work, setups=1, windows=1,
                               durable=durable, spans_path=spans_path)
    spans, extra = tracing.load_spans(spans_path)
    values, table = serve.per_layer(plain, traced, spans, extra)
    print(table)
    failed += len(traced.completions) - traced.committed
    return values, "per_layer", attempted + len(traced.completions), failed


def run_modelcheck(seconds: float, trace: bool, work: str):
    from perfbench import modelcheck, tracing

    cpu0 = time.process_time()
    runs, wall_s = modelcheck.run_timed(seconds)
    client_share = (time.process_time() - cpu0) / wall_s
    attempted = len(runs)
    if not trace:
        return modelcheck.end_to_end(runs), "end_to_end", attempted, 0
    spans_path = os.path.join(work, "spans.json")
    traced = modelcheck.run_child(spans_path)
    spans, _extra = tracing.load_spans(spans_path)
    values, table = modelcheck.per_layer(runs, traced, spans, client_share)
    print(table)
    return values, "per_layer", attempted + 1, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro here; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.checks import CheckFailed

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.workload == "modelcheck":
            values, section, attempted, failed = run_modelcheck(args.seconds, bool(args.trace), work)
        else:
            values, section, attempted, failed = run_serve(
                args.workload, args.seed, args.seconds, bool(args.trace), work)
        metrics = _report(values, section)
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"{args.workload:<11} {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
