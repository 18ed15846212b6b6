"""One model-checking run in a fresh interpreter.

Usage: ``python perfbench/mc_main.py [SPANS_PATH]``

Explores every scope of :func:`perfbench.inputs.modelcheck_scopes` with
the ``repro modelcheck`` defaults (POR on, one process) and prints one
JSON line: the moment imports finished (``ready``), per-scope counts,
times and verdict fingerprints, CPU seconds, peak RSS and the speed
probe's samples (see :mod:`perfbench.speed`; the probe runs from the
start).  With ``SPANS_PATH`` the timing wrappers are installed first and
the spans are written there.  A fresh interpreter per run matters:
intern tables and memos are process-global.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(argv) -> int:
    from perfbench.speed import Probe

    probe = Probe()
    probe.start()
    spans_path = argv[0] if argv else None
    recorder = None
    if spans_path:
        from perfbench.tracing import Recorder, Target, install, modelcheck_targets

        recorder = Recorder()
        install(recorder, modelcheck_targets())
        probe.work = recorder.wrap(probe.work, Target("perfbench.speed", "reference",
                                                      "bench.probe", record=True))

    from perfbench.inputs import modelcheck_scopes
    from repro.checking import explore, verdict_fingerprint
    from repro.checking.model_checker import ExploreOptions
    from repro.core.ops import intern_stats

    scopes = modelcheck_scopes()
    ready = time.perf_counter()
    cpu_start = time.process_time()
    rows = {}
    for name, (spec_cls, programs) in scopes.items():
        # the ``repro modelcheck`` defaults: POR on, sequential explorer
        options = ExploreOptions(max_states=400_000, por=True)
        start = time.perf_counter()
        report = explore(spec_cls(), programs, options)
        end = time.perf_counter()
        rows[name] = {
            "start": start,
            "end": end,
            "states": report.states,
            "transitions": report.transitions,
            "dedup_hits": report.dedup_hits,
            "ample_hits": report.ample_hits,
            "fingerprint": verdict_fingerprint(report),
        }
    probe.stop()
    result = {
        "ready": ready,
        "cpu_s": time.process_time() - cpu_start,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "scopes": rows,
        "probe": probe.samples,
        **intern_stats(),
    }
    if recorder is not None:
        recorder.dump(spans_path, extra={})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
