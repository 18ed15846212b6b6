"""Run ``repro serve`` with the benchmark's speed probe, and optionally
its timing wrappers, installed.

Usage: ``python perfbench/daemon_main.py PROBE_PATH [--spans SPANS_PATH] serve [serve args...]``

The daemon is the unmodified ``repro serve`` command; this launcher only
starts the speed probe (see :mod:`perfbench.speed`) and, with
``--spans``, wraps functions first (see :mod:`perfbench.tracing`).  Once
the daemon has shut down it writes the probe samples to ``PROBE_PATH``
and the spans plus the process-wide intern-table sizes to ``SPANS_PATH``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(argv) -> int:
    from perfbench.speed import Probe

    probe = Probe()
    probe.start()
    probe_path, cli_args = argv[0], argv[1:]
    spans_path, recorder = None, None
    if cli_args[:1] == ["--spans"]:
        from perfbench.tracing import Recorder, Target, install, serve_targets

        spans_path, cli_args = cli_args[1], cli_args[2:]
        recorder = Recorder()
        install(recorder, serve_targets())
        recorder.time_idle()
        probe.work = recorder.wrap(probe.work, Target("perfbench.speed", "reference",
                                                      "bench.probe", record=True))

    from repro.cli import main as repro_main
    from repro.core.ops import intern_stats

    try:
        code = repro_main(cli_args)
    finally:
        probe.stop()
    probe.dump(probe_path)
    if recorder is not None:
        recorder.dump(spans_path, extra=intern_stats())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
