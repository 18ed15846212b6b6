"""The benchmark's own tests: every correctness check fails when it
should, the generated inputs are a pure function of the seed, and the
span and speed-probe arithmetic is right.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import checks, inputs, speed, tracing
from perfbench.checks import CheckFailed
from repro.durable.records import encode_state
from repro.durable.store import SegmentStore
from repro.serve.sharding import split_by_shard

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- conformance -----------------------------------------------------------------


def _shard(index, **overrides):
    row = {"ok": True, "shard": index, "failures": [], "sticky_failures": []}
    row.update(overrides)
    return row


def test_clean_conformance_passes():
    checks.check_conformance({"ok": True, "shards": [_shard(0), _shard(1)]}, 2)


@pytest.mark.parametrize("verdict", [
    {"ok": False, "shards": [_shard(0), _shard(1, ok=False, failures=["not serializable"])]},
    {"ok": False, "shards": [_shard(0), _shard(1, sticky_failures=["earlier window"])]},
    {"ok": True, "shards": [_shard(0)]},
])
def test_conformance_failure_is_caught(verdict):
    with pytest.raises(CheckFailed):
        checks.check_conformance(verdict, 2)


# -- acknowledged commits in the WAL ------------------------------------------------


def _acked_bank_txns():
    """Committed transfers and reads with the results a daemon could give."""
    txns = inputs.bank_2pc_txns(seed=7, count=60)
    balances = {}
    acked = []
    for ops in txns:
        results = []
        for _space, method, account, *rest in ops:
            if method == "deposit":
                balances[account] = balances.get(account, 0) + rest[0]
                results.append(None)
            elif method == "withdraw":
                ok = balances.get(account, 0) >= rest[0]
                if ok:
                    balances[account] -= rest[0]
                results.append(ok)
            else:
                results.append(balances.get(account, 0))
        acked.append((ops, results))
    return acked


def _write_wal(root, acked, snapshot_upto=0, skip=None):
    """Per-shard WALs as a daemon leaves them: the first ``snapshot_upto``
    transactions folded into a snapshot, the rest as commit records
    (leaving out transaction number ``skip``)."""
    stores = [SegmentStore(os.path.join(root, f"shard-{i:03d}")) for i in range(inputs.SHARDS)]
    folded = [{} for _ in stores]
    for number, (ops, results) in enumerate(acked):
        for shard, shard_ops in split_by_shard(ops, inputs.SHARDS).items():
            shard_results = [r for op, r in zip(ops, results) if op in shard_ops]
            if number < snapshot_upto:
                checks.bank_effects(shard_ops, shard_results, folded[shard])
            elif number != skip:
                stores[shard].append({"t": "commit", "txn": f"t{number}",
                                      "ops": shard_ops, "results": shard_results})
        if number == snapshot_upto - 1:
            for store, balances in zip(stores, folded):
                state = (("bank", tuple(sorted(balances.items()))),)
                store.write_snapshot(encode_state(state))
    for store in stores:
        store.sync()
        store.close()


@pytest.mark.parametrize("snapshot_upto", [0, 25])
def test_every_acked_commit_durable_passes(tmp_path, snapshot_upto):
    acked = _acked_bank_txns()
    _write_wal(str(tmp_path), acked, snapshot_upto)
    checks.check_acked_durable(acked, str(tmp_path), inputs.SHARDS)


def test_missing_acked_commit_is_caught(tmp_path):
    acked = _acked_bank_txns()
    transfer = next(n for n, (ops, _r) in enumerate(acked)
                    if n >= 25 and ops[0][1] == "deposit")
    _write_wal(str(tmp_path), acked, snapshot_upto=25, skip=transfer)
    with pytest.raises(CheckFailed, match="durable balances differ"):
        checks.check_acked_durable(acked, str(tmp_path), inputs.SHARDS)


def test_unacknowledged_wal_commit_is_caught(tmp_path):
    acked = _acked_bank_txns()
    _write_wal(str(tmp_path), acked)
    with pytest.raises(CheckFailed, match="matches no acknowledged"):
        checks.check_acked_durable(acked[:-1], str(tmp_path), inputs.SHARDS)


# -- model-checking verdicts ---------------------------------------------------------


def test_expected_verdicts_pass():
    scopes = {name: {"fingerprint": list(checks.EXPECTED_VERDICT)} for name in ("a", "b")}
    checks.check_verdicts(scopes, ["a", "b"])


@pytest.mark.parametrize("scopes", [
    {"a": {"fingerprint": [False, ["invariant broken"], [], [], [], []]},
     "b": {"fingerprint": list(checks.EXPECTED_VERDICT)}},
    {"a": {"fingerprint": list(checks.EXPECTED_VERDICT)}},
])
def test_verdict_mismatch_is_caught(scopes):
    with pytest.raises(CheckFailed):
        checks.check_verdicts(scopes, ["a", "b"])


# -- inputs ----------------------------------------------------------------------------


@pytest.mark.parametrize("make", [inputs.kv_local_txns, inputs.bank_2pc_txns])
def test_inputs_are_a_function_of_the_seed(make):
    assert make(3, 500) == make(3, 500)
    assert make(3, 500) != make(4, 500)
    assert make(3, 800)[:500] == make(3, 500)


def test_kv_local_stays_on_one_shard():
    txns = inputs.kv_local_txns(5, 2000)
    assert all(len(split_by_shard(ops, inputs.SHARDS)) == 1 for ops in txns)
    keys = {op[2] for ops in txns for op in ops}
    assert len(keys) == inputs.KEYS


def test_bank_2pc_mix():
    txns = inputs.bank_2pc_txns(5, 5000)
    cross = sum(len(split_by_shard(ops, inputs.SHARDS)) > 1 for ops in txns) / len(txns)
    reads = sum(ops[0][1] == "balance" for ops in txns) / len(txns)
    assert abs(cross - inputs.BANK_CROSS_RATIO) < 0.03
    assert abs(reads - inputs.BANK_READ_RATIO) < 0.03


# -- tracing -----------------------------------------------------------------------------


class _Toy:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.01)


def test_self_time_and_rolled_up_calls():
    recorder = tracing.Recorder()
    outer = recorder.wrap(_Toy.outer, tracing.Target("m", "_Toy.outer", "outer", record=True))
    inner = recorder.wrap(_Toy.inner, tracing.Target("m", "_Toy.inner", "inner"))
    toy = _Toy()
    toy.inner = lambda: inner(toy)
    start = time.perf_counter()
    outer(toy)
    layers = tracing.summarize(recorder.spans, start, time.perf_counter())
    assert len(recorder.spans) == 1  # inner calls are rolled into outer
    assert layers["inner"].calls == 2
    assert layers["outer"].total >= layers["inner"].total + 0.02
    assert layers["outer"].self_time == pytest.approx(
        layers["outer"].total - layers["inner"].total)


def test_memo_lookup_miss_counts_once():
    recorder = tracing.Recorder()
    oracle = recorder.wrap(lambda: True, tracing.Target("m", "f", "oracle", role="oracle"))
    by_op = recorder.wrap(lambda hit: hit or oracle(),
                          tracing.Target("m", "g", "lookup", role="lookup"))
    by_pid = recorder.wrap(lambda hit: hit or by_op(False),
                           tracing.Target("m", "h", "lookup", role="lookup"))
    start = time.perf_counter()
    by_pid(True)   # hit
    by_pid(False)  # miss through the op-level lookup
    by_op(True)    # hit
    layers = tracing.summarize(recorder.spans, start, time.perf_counter())
    assert layers["lookup"].calls == 3
    assert layers["lookup"].value_sum == 1


# -- speed probe -------------------------------------------------------------------------


def test_scale_is_mean_probe_cpu_over_reference():
    ref = speed.REFERENCE_S
    samples = [(t, 9.0, cpu * ref) for t, cpu in enumerate([1.0, 3.0, 2.0, 4.0, 1.0])]
    assert speed.scale(samples, 1, 4) == pytest.approx(3.0)
    # too few samples in the window: extended forwards to MIN_SAMPLES
    assert speed.scale(samples, 2, 3) == pytest.approx((2.0 + 4.0 + 1.0) / 3)
    assert speed.probe_seconds(samples, 1, 4) == pytest.approx(27.0)
    with pytest.raises(RuntimeError):
        speed.scale(samples, 3, 9)


def test_probe_samples_run_in_the_process():
    probe = speed.Probe()
    probe.start()
    try:
        began = time.perf_counter()
        while time.perf_counter() < began + 6 * speed.PERIOD_S:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.samples) >= 3
    assert all(began <= start and 0 < cpu <= wall * 1.5 for start, wall, cpu in probe.samples)


# -- the command ---------------------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    """With only ``BENCHMARK.json`` and the benchmark's own files there is
    nothing to measure: exit nonzero and print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-local", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
