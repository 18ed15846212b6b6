"""The serve workloads: ``repro serve`` in its own process, a closed-loop
load generator in this one.

The daemon is started with the options a user would give it (inline
mode, two shards, ``encounter``, default batch and conformance window),
on an ephemeral port, through :mod:`perfbench.daemon_main`, which adds
the speed probe (see :mod:`perfbench.speed`) and nothing else unless the
run is traced.  This process holds the only other busy thread: a
:class:`~repro.serve.client.ServeClient` over two pooled connections,
driving ``inflight`` callers that each wait for their reply before
sending the next transaction.  Two busy processes, two cores.

A run is: set-up (spawn until ready, several times), an untimed warm-up
past the first conformance windows and rollovers, the timed window,
then the correctness checks (clean conformance verdicts on every shard;
with ``--durable``, every acknowledged commit in the shard WALs).
"""

from __future__ import annotations

import asyncio
import bisect
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import checks, inputs, speed, tracing
from repro.obs.metrics import percentile_nearest_rank
from repro.serve.client import ServeClient
from repro.serve.daemon import DaemonConfig
from repro.serve.sharding import split_by_shard

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class ServeWorkload:
    #: closed-loop callers (transactions in flight)
    inflight: int
    #: check the durable log: the traced run's daemons run with
    #: ``--durable`` on a fresh directory; a timed run times the daemon in
    #: memory, then drives a durable one (see :func:`durable_check`)
    durable: bool
    make_txns: Callable[[int, int], List[List[list]]]


WORKLOADS = {
    "kv-local": ServeWorkload(32, False, inputs.kv_local_txns),
    "bank-2pc": ServeWorkload(16, True, inputs.bank_2pc_txns),
}

#: completed transactions before timing starts: several 64-commit
#: conformance windows and rollovers on each shard
WARMUP_TXNS = 600
#: transactions through the durable daemon of :func:`durable_check`:
#: several windows, rollovers and snapshots on each shard
DURABLE_TXNS = 1000
#: daemon spawns per run; ``setup_s`` is their median
SETUPS = 5
#: generated transactions per timed second (well above any rate seen)
TXNS_PER_SECOND = 3000
#: seconds per slice of the timed window (rates are slice medians)
SLICE_S = 2.0
#: completed transactions (warm-up included) at which ``peak_rss_mb`` is
#: read: a fixed amount of work, so a faster daemon that serves more
#: transactions in the window is not charged for the memory they take
RSS_MARK_TXNS = 3000
READY_TIMEOUT_S = 60.0
#: commits per conformance window (the daemon's default)
CONFORMANCE_WINDOW = DaemonConfig().conformance_window
#: full windows verified per run, and verdicts timed on each
WINDOWS = 8
VERDICTS = 7


class DaemonProcess:
    """One ``repro serve`` process: spawn, readiness, /proc sampling, stop."""

    def __init__(self, work: str, durable_dir: Optional[str], probe_path: str,
                 spans_path: Optional[str]):
        serve_args = ["serve", "--port", "0", "--shards", str(inputs.SHARDS),
                      "--strategy", "encounter", "--mode", "inline"]
        if durable_dir:
            serve_args += ["--durable", durable_dir]
        self.command = [sys.executable, os.path.join(ROOT, "perfbench", "daemon_main.py"),
                        probe_path]
        if spans_path:
            self.command += ["--spans", spans_path]
        self.command += serve_args
        self.work = work
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.spawned = self.ready = 0.0

    def start(self) -> float:
        """Spawn and wait for the ready line; returns the seconds it took."""
        env = inputs.child_env(ROOT)
        stderr = open(os.path.join(self.work, "daemon.stderr"), "ab")
        began = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                self.command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr,
            )
        finally:
            stderr.close()
        ready, _, _ = select.select([self.process.stdout], [], [], READY_TIMEOUT_S)
        line = self.process.stdout.readline().decode() if ready else ""
        self.spawned, self.ready = began, time.perf_counter()
        took = self.ready - began
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"daemon did not come up (stdout: {line!r}); see {self.work}/daemon.stderr")
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        return took

    def _proc(self, name: str) -> str:
        with open(f"/proc/{self.process.pid}/{name}", encoding="ascii") as handle:
            return handle.read()

    def cpu_s(self) -> float:
        """User + system CPU seconds the daemon has used so far."""
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def memory_kb(self, key: str) -> int:
        """``VmRSS`` (now) or ``VmHWM`` (peak) in KiB."""
        for line in self._proc("status").splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
        raise RuntimeError(f"/proc status has no {key}")

    def wait(self, timeout: float = 60.0) -> int:
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not exit after shutdown")

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        if self.process is not None and self.process.stdout is not None:
            self.process.stdout.close()


@dataclass
class Completion:
    sent: float
    replied: float
    ok: bool
    index: int
    results: Any = None


@dataclass
class Window:
    """What one timed window measured."""

    #: the generated transactions; completions index into it
    txns: Sequence[list]
    start: float
    end: float
    completions: List[Completion]
    #: ``(time, daemon CPU seconds)`` at every slice boundary
    samples: List[Tuple[float, float]]
    client_cpu_s: float
    rss_growth_kb: int
    peak_rss_kb: int
    #: ``(phase start, phase end, median verdict seconds)`` per checked
    #: window; the phase is the window's fill and its timed verdicts
    verdicts: List[Tuple[float, float, float]]
    #: the daemon's ``metrics`` snapshots at the window's ends (traced runs)
    metrics: Tuple[Dict[str, Any], Dict[str, Any]]
    #: ``(ops, results)`` of every acknowledged commit of the run
    acked: List[Tuple[list, list]]
    #: the daemon's speed-probe samples (see :mod:`perfbench.speed`)
    probe: List[speed.Sample] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def committed(self) -> int:
        return sum(1 for c in self.completions if c.ok)

    def slices(self) -> List["Slice"]:
        """The timed window's slices, at the reference speed."""
        rows = []
        for (t0, cpu0), (t1, cpu1) in zip(self.samples, self.samples[1:]):
            commits = sum(1 for c in self.completions if c.ok and t0 <= c.replied < t1)
            # The daemon spent ``probe_s`` on the probe, not on transactions.
            probe_s = speed.probe_seconds(self.probe, t0, t1)
            scale = speed.scale(self.probe, t0, t1)
            rows.append(Slice(t0, t1, (t1 - t0 - probe_s) / scale, commits,
                              (cpu1 - cpu0 - probe_s) / scale, scale))
        return rows


@dataclass(frozen=True)
class Slice:
    start: float
    end: float
    #: seconds the daemon had for transactions, at the reference speed
    seconds: float
    commits: int
    #: daemon CPU seconds spent on transactions, at the reference speed
    cpu_s: float
    #: the host's slowness in the slice (see :func:`perfbench.speed.scale`)
    scale: float


async def _drive(daemon: DaemonProcess, txns: Sequence[list], workload: ServeWorkload,
                 seconds: float, with_metrics: bool, windows: int) -> Window:
    client = ServeClient("127.0.0.1", daemon.port, pool=2)
    await client.connect(retries=40, delay=0.05)
    log: List[Completion] = []
    order = iter(range(len(txns)))
    stopping = False
    warmed = asyncio.Event()
    rss_mark: List[int] = []

    async def caller() -> None:
        for index in order:
            if stopping:
                return
            sent = time.perf_counter()
            reply = await client.try_txn(txns[index])
            log.append(Completion(sent, time.perf_counter(), bool(reply.get("ok")),
                                  index, reply.get("results")))
            if len(log) >= WARMUP_TXNS:
                warmed.set()
            if len(log) == RSS_MARK_TXNS:
                rss_mark.append(daemon.memory_kb("VmHWM"))
        if not stopping:
            raise RuntimeError("generated inputs ran out before the window ended")

    try:
        callers = [asyncio.ensure_future(caller()) for _ in range(workload.inflight)]
        waiting = asyncio.ensure_future(warmed.wait())
        await asyncio.wait([waiting, *callers], return_when=asyncio.FIRST_COMPLETED)
        if not warmed.is_set():
            waiting.cancel()
            await asyncio.gather(*callers)  # surfaces the caller's error
        metrics0 = await client.metrics() if with_metrics else {}
        start, rss0, client0 = time.perf_counter(), daemon.memory_kb("VmRSS"), time.process_time()
        samples = [(start, daemon.cpu_s())]
        slices = max(1, round(seconds / SLICE_S))
        for k in range(1, slices + 1):
            await asyncio.sleep(max(0.0, start + seconds * k / slices - time.perf_counter()))
            samples.append((time.perf_counter(), daemon.cpu_s()))
        end, rss1, client1 = samples[-1][0], daemon.memory_kb("VmRSS"), time.process_time()
        peak = rss_mark[0] if rss_mark else daemon.memory_kb("VmHWM")
        metrics1 = await client.metrics() if with_metrics else {}
        stopping = True
        await asyncio.gather(*callers)
        verdicts = await _full_window_verdicts(client, txns, order, log, windows,
                                               workload.inflight)
        await client.shutdown()
    finally:
        await client.close()
    window = [c for c in log if start <= c.replied <= end]
    return Window(
        txns=txns, start=start, end=end, completions=window, samples=samples,
        client_cpu_s=client1 - client0,
        rss_growth_kb=rss1 - rss0, peak_rss_kb=peak, verdicts=verdicts,
        metrics=(metrics0, metrics1),
        acked=[(txns[c.index], c.results) for c in log if c.ok],
    )


async def _full_window_verdicts(client: ServeClient, txns: Sequence[list], order,
                                log: List[Completion], windows: int,
                                inflight: int) -> List[Tuple[float, float, float]]:
    """Check conformance, then time the gate over full windows.

    A verdict's cost grows with the commits in the current window, which
    at the end of the load is anywhere from empty to full.  So, ``windows``
    times: verify and roll every shard over, commit ``window - 1`` fresh
    single-shard transactions on each shard (one short of the automatic
    rollover) and time ``VERDICTS`` verdicts over those windows.  Returns
    the phase and the fastest verdict time of each window: the same
    verdict asked again does the same work, and what makes one slower
    (a collection of the daemon's heap, the speed probe) is not the
    gate's.  Every verdict must be clean."""
    per_window = []
    for _ in range(windows):
        checks.check_conformance(await client.conformance(rollover=True), inputs.SHARDS)
        phase = time.perf_counter()
        await _fill_windows(client, txns, order, log, inflight)
        times = []
        for _ in range(VERDICTS):
            began = time.perf_counter()
            verdict = await client.conformance()
            times.append(time.perf_counter() - began)
            checks.check_conformance(verdict, inputs.SHARDS)
        per_window.append((phase, time.perf_counter(), min(times)))
    return per_window


async def _fill_windows(client: ServeClient, txns: Sequence[list], order,
                        log: List[Completion], inflight: int) -> None:
    """Commit ``window - 1`` single-shard transactions on each shard,
    ``inflight`` at a time (more at once only conflict and requeue)."""
    need = [CONFORMANCE_WINDOW - 1] * inputs.SHARDS
    batch = []
    for index in order:
        routed = split_by_shard(txns[index], inputs.SHARDS)
        if len(routed) == 1:
            (shard,) = routed
            if need[shard]:
                need[shard] -= 1
                batch.append(index)
        if not any(need):
            break
    else:
        raise RuntimeError("generated inputs ran out before the windows filled")

    pending = iter(batch)

    async def commit() -> None:
        for index in pending:
            sent = time.perf_counter()
            reply = await client.try_txn(txns[index])
            if not reply.get("ok"):
                raise RuntimeError(f"window fill transaction failed: {reply}")
            log.append(Completion(sent, time.perf_counter(), True, index,
                                  reply.get("results")))

    await asyncio.gather(*(commit() for _ in range(inflight)))
    stats = await client.stats()
    filled = [shard["window_commits"] for shard in stats["shards"]]
    if filled != [CONFORMANCE_WINDOW - 1] * inputs.SHARDS:
        raise RuntimeError(f"conformance windows hold {filled} commits after the fill")


def run_once(workload: ServeWorkload, seed: int, seconds: float, work: str,
             setups: int = SETUPS, windows: int = WINDOWS, durable: bool = False,
             spans_path: Optional[str] = None) -> Tuple[Window, List[float]]:
    """Set up ``setups`` daemons (all but the last stopped at once), load
    the last one for ``seconds``, check it over ``windows`` full
    conformance windows (and, ``durable``, its log); returns the window
    and the set-up times at the reference speed."""
    txns = workload.make_txns(seed, WARMUP_TXNS + int(TXNS_PER_SECOND * seconds))
    setup_times = []
    for attempt in range(setups):
        durable_dir = os.path.join(work, f"durable-{attempt}") if durable else None
        if durable_dir:
            shutil.rmtree(durable_dir, ignore_errors=True)
        last = attempt == setups - 1
        probe_path = os.path.join(work, f"probe-{attempt}.json")
        daemon = DaemonProcess(work, durable_dir, probe_path, spans_path if last else None)
        try:
            took = daemon.start()
            if last:
                window = asyncio.run(
                    _drive(daemon, txns, workload, seconds, spans_path is not None, windows))
            else:
                asyncio.run(_shutdown(daemon.port))
            if daemon.wait() != 0:
                raise RuntimeError("daemon exited nonzero")
        finally:
            daemon.kill()
        probe = speed.load(probe_path)
        setup_times.append(took / speed.scale(probe, daemon.spawned, daemon.ready))
        if last:
            window.probe = probe
        if durable_dir:
            if last:
                checks.check_acked_durable(window.acked, durable_dir, inputs.SHARDS)
            shutil.rmtree(durable_dir, ignore_errors=True)
    return window, setup_times


def durable_check(workload: ServeWorkload, seed: int, work: str) -> None:
    """Drive :data:`DURABLE_TXNS` transactions through a ``--durable``
    daemon (closed loop, ``inflight`` at a time), check conformance, shut
    it down and check that every acknowledged commit is in its log.

    Untimed: on a shared virtual machine an fsync takes 0.1 ms in one
    phase and 1 ms or more in the next, and through the size of the next
    wave that moves even the CPU a transaction costs, so a durable
    daemon's throughput measures the host's disk more than the program."""
    txns = workload.make_txns(seed, DURABLE_TXNS)
    durable_dir = os.path.join(work, "durable-check")
    shutil.rmtree(durable_dir, ignore_errors=True)
    daemon = DaemonProcess(work, durable_dir, os.path.join(work, "probe-durable.json"), None)
    try:
        daemon.start()
        acked = asyncio.run(_drive_fixed(daemon.port, txns, workload.inflight))
        if daemon.wait() != 0:
            raise RuntimeError("daemon exited nonzero")
    finally:
        daemon.kill()
    checks.check_acked_durable(acked, durable_dir, inputs.SHARDS)
    shutil.rmtree(durable_dir, ignore_errors=True)


async def _drive_fixed(port: int, txns: Sequence[list],
                       inflight: int) -> List[Tuple[list, list]]:
    """Every transaction of ``txns``, ``inflight`` at a time; then a
    conformance check and shutdown.  Returns the acknowledged commits."""
    client = ServeClient("127.0.0.1", port, pool=2)
    await client.connect(retries=40, delay=0.05)
    acked: List[Tuple[list, list]] = []
    pending = iter(txns)

    async def caller() -> None:
        for ops in pending:
            reply = await client.try_txn(ops)
            if reply.get("ok"):
                acked.append((ops, reply.get("results")))

    try:
        await asyncio.gather(*(caller() for _ in range(inflight)))
        checks.check_conformance(await client.conformance(rollover=True), inputs.SHARDS)
        await client.shutdown()
    finally:
        await client.close()
    return acked


async def _shutdown(port: int) -> None:
    client = ServeClient("127.0.0.1", port, pool=1)
    await client.connect(retries=40, delay=0.05)
    try:
        await client.shutdown()
    finally:
        await client.close()


# -- metrics --------------------------------------------------------------------


def _latencies_ms(window: Window, completions: Sequence[Completion]) -> List[float]:
    """Send-to-reply times at the reference speed (each scaled by its
    slice's speed), sorted.  A failed transaction misses every limit."""
    slices = window.slices()
    bounds = [row.end for row in slices]

    def scale(replied: float) -> float:
        return slices[min(bisect.bisect_left(bounds, replied), len(slices) - 1)].scale

    return sorted((c.replied - c.sent) * 1e3 / scale(c.replied) if c.ok else float("inf")
                  for c in completions)


def end_to_end(window: Window, setup_times: Sequence[float]) -> Dict[str, float]:
    """Every timing at the reference speed (see :mod:`perfbench.speed`)."""
    latencies = _latencies_ms(window, window.completions)
    committed = window.committed
    attempted = len(window.completions)
    slices = window.slices()
    # Medians over slices: a burst on the shared host moves one slice,
    # not the result.  A verdict's cost depends on what the window holds,
    # so ``verdict_s`` is the mean over windows, where a median would
    # pick one.
    return {
        "txn_per_s": statistics.median(row.commits / row.seconds for row in slices),
        "latency_p50_ms": percentile_nearest_rank(latencies, 0.50),
        "latency_p99_ms": percentile_nearest_rank(latencies, 0.99),
        "cpu_ms_per_txn": statistics.median(row.cpu_s * 1e3 / max(row.commits, 1)
                                            for row in slices),
        "verdict_s": statistics.mean(took / speed.scale(window.probe, t0, t1)
                                     for t0, t1, took in window.verdicts),
        "success_ratio": committed / max(attempted, 1),
        "peak_rss_mb": window.peak_rss_kb / 1024,
        "setup_s": statistics.median(setup_times),
    }


def drift_ratio(window: Window) -> float:
    """Commit rate (at the reference speed) over the last quarter of the
    window's slices, over the rate in the first quarter: below 1 when the
    daemon slows down as the run goes on."""
    slices = window.slices()
    k = max(1, len(slices) // 4)
    rate = lambda rows: sum(r.commits for r in rows) / sum(r.seconds for r in rows)  # noqa: E731
    return rate(slices[-k:]) / max(rate(slices[:k]), 1e-9)


def _counter(snapshot: Dict[str, Any], name: str) -> float:
    """A counter summed over its label sets (``name{shard="0"}`` ...)."""
    return sum(value.get("value", 0.0) for key, value in snapshot.items()
               if key == name or key.startswith(name + "{"))


def per_layer(plain: Window, traced: Window, spans: Sequence[tracing.Span],
              extra: Dict[str, Any]) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics (guards and client views from the untraced
    window, layer costs from the traced one) and the attribution table of
    the daemon's busy time.  CPU-bound layer times are at the reference
    speed; ``durable.sync_ms.p50`` (waiting on the disk) is not."""
    start, end, wall = traced.start, traced.end, traced.seconds
    layers = tracing.summarize(spans, start, end)
    scale = speed.scale(traced.probe, start, end)

    def layer(name: str) -> tracing.Layer:
        return layers.get(name, tracing.Layer())

    committed = max(traced.committed, 1)
    per_txn_ms = lambda name: layer(name).total * 1e3 / scale / committed  # noqa: E731
    before, after = traced.metrics
    delta = lambda name: _counter(after, name) - _counter(before, name)  # noqa: E731
    p99 = lambda cs: percentile_nearest_rank(_latencies_ms(plain, cs), 0.99)  # noqa: E731
    rate = lambda w: sum(r.commits for r in w.slices()) / sum(r.seconds for r in w.slices())  # noqa: E731

    def median_ms(name: str, scale: float = scale) -> float:
        durations = layer(name).durations
        return statistics.median(durations) * 1e3 / scale if durations else 0.0

    waves = layer("shard.wave")
    wave_items = sum(v[0] for v in waves.values)
    busy = max(wall - layer("loop.idle").total, 1e-9)
    covered = tracing.top_level_time(spans, start, end)
    memo = layer("spec.memo.lookup")
    relevant = layer("tm.relevant")
    scanned, returned = relevant.value_sum if relevant.value_count else (0, 0)
    states = layer("spec.mover_states")
    check = layer("conformance.check")
    txn_commits = delta("serve.txn.committed")
    cross_committed = delta("serve.cross.committed")
    prepared, conflicts = delta("serve.2pc.prepared"), delta("serve.2pc.prepare_conflict")
    syncs = layer("durable.sync").calls
    is_cross = lambda c: len(split_by_shard(plain.txns[c.index], inputs.SHARDS)) > 1  # noqa: E731
    cross = [c for c in plain.completions if is_cross(c)]
    single = [c for c in plain.completions if not is_cross(c)]
    metrics = {
        "shard.wave.txns_per_wave": wave_items / max(waves.calls, 1),
        "shard.wave.busy_share": waves.total / wall,
        "shard.requeue_ratio": sum(v[1] for v in waves.values) / max(wave_items, 1),
        "tm.commit_ratio": txn_commits / max(txn_commits + delta("serve.txn.wave_aborts"), 1),
        "spec.left_mover.calls_per_txn": layer("spec.left_mover").calls / committed,
        "spec.left_mover.ms_per_txn": per_txn_ms("spec.left_mover"),
        "spec.mover_states.states_per_call": states.value_sum / max(states.value_count, 1),
        "spec.mover_memo.hit_ratio": 1 - memo.value_sum / max(memo.calls, 1),
        "spec.perform.calls_per_txn": layer("spec.perform").calls / committed,
        "tm.relevant.scanned_per_pull": scanned / max(relevant.calls, 1),
        "tm.relevant.hit_ratio": returned / max(scanned, 1),
        "tm.relevant.ms_per_txn": per_txn_ms("tm.relevant"),
        "conformance.ms_per_window": check.total * 1e3 / scale / max(check.calls, 1),
        "conformance.busy_share": check.total / wall,
        "gateway.frame.ms_per_txn": per_txn_ms("gateway.frame"),
        "shard.2pc.rounds_per_cross_txn": (cross_committed + delta("serve.cross.retries")
                                          + delta("serve.cross.aborted"))
        / max(cross_committed, 1) if cross_committed else 0.0,
        "shard.2pc.conflict_ratio": conflicts / max(prepared + conflicts, 1),
        "shard.2pc.prepare_ms.p50": median_ms("shard.2pc.prepare"),
        "client.cross.latency_p99_ms": p99(cross) if cross else 0.0,
        "client.single.latency_p99_ms": p99(single) if single else 0.0,
        "client.latency_samples": len(plain.completions),
        "durable.sync.count": syncs,
        "durable.records_per_sync": layer("durable.append").calls / syncs if syncs else 0.0,
        "durable.sync_ms.p50": median_ms("durable.sync", 1.0),
        "durable.bytes_per_txn": delta("durable.append.bytes") / committed,
        "daemon.rss_kb_per_txn": plain.rss_growth_kb / max(plain.committed, 1),
        "daemon.intern.payload_classes": extra.get("intern.payload_classes", 0),
        "client.cpu_share": plain.client_cpu_s / plain.seconds,
        "daemon.cpu_share": (plain.samples[-1][1] - plain.samples[0][1]) / plain.seconds,
        "daemon.unattributed_share": max(0.0, busy - covered) / busy,
        "tracing.overhead_ratio": rate(plain) / max(rate(traced), 1e-9),
        "run.drift_ratio": drift_ratio(plain),
        "host.speed_scale": speed.scale(plain.probe, plain.start, plain.end),
    }
    for rule in ("app", "push", "pull", "cmt", "undo"):
        metrics[f"machine.{rule}.ms_per_txn"] = per_txn_ms(f"machine.{rule}")
    return metrics, tracing.attribution(layers, busy)
