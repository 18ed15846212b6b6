"""Correctness checks run by every benchmark invocation.

Each check raises :class:`CheckFailed` with a reason; ``run.py`` turns
that into a nonzero exit without printing a result, so a wrong answer is
never reported as a number.
"""

from __future__ import annotations

import collections
import json
import os
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.durable.inspect import read_directory_records
from repro.durable.records import decode_state
from repro.durable.store import load_snapshot
from repro.serve.sharding import split_by_shard


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def check_conformance(verdict: Dict[str, Any], shards: int) -> None:
    """The daemon's final conformance verdict must be clean on every
    shard, with no sticky failure left by an earlier window."""
    rows = verdict.get("shards", [])
    if len(rows) != shards:
        raise CheckFailed(f"conformance verdict covers {len(rows)} of {shards} shards")
    for row in rows:
        if not row.get("ok") or row.get("failures") or row.get("sticky_failures"):
            raise CheckFailed(
                f"conformance failed on shard {row.get('shard')}: "
                f"{row.get('failures') or row.get('sticky_failures') or row.get('error')}"
            )
    if not verdict.get("ok"):
        raise CheckFailed(f"conformance verdict not ok: {verdict}")


def _record_key(ops: Sequence, results: Sequence) -> str:
    return json.dumps([[list(op) for op in ops], list(results)])


def expected_commits(acked: Iterable[Tuple[Sequence, Sequence]], shards: int) -> List[collections.Counter]:
    """Per shard, the multiset of ``(ops, results)`` commit records the
    acknowledged transactions must have left: a cross-shard transaction
    leaves one record per participant, holding that shard's ops and
    results in submitted order."""
    per_shard = [collections.Counter() for _ in range(shards)]
    for ops, results in acked:
        positions: Dict[int, List[int]] = {}
        for position, op in enumerate(ops):
            (shard,) = split_by_shard([op], shards)
            positions.setdefault(shard, []).append(position)
        for shard, where in positions.items():
            per_shard[shard][_record_key(
                [ops[i] for i in where], [results[i] for i in where]
            )] += 1
    return per_shard


def bank_effects(ops: Sequence, results: Sequence, balances: Dict[str, int]) -> None:
    """Add one committed transaction's bank effects to ``balances``: a
    deposit adds, a withdrawal that returned ``True`` subtracts."""
    for op, result in zip(ops, results):
        space, method, account, *rest = op
        if space != "bank":
            continue
        if method == "deposit":
            balances[account] = balances.get(account, 0) + rest[0]
        elif method == "withdraw" and result is True:
            balances[account] = balances.get(account, 0) - rest[0]


def check_acked_durable(acked: Sequence[Tuple[Sequence, Sequence]], durable_root: str,
                        shards: int) -> None:
    """Every acknowledged commit is in its shards' durable state.

    A shard's log holds the commit records above the latest snapshot's
    watermark; the commits below it survive only as the snapshot's state.
    So, per shard: every commit record above the watermark must match a
    distinct acknowledged commit, and the snapshot's balances plus the
    effects of those records must equal the balances the acknowledged
    commits imply.  (Bank effects commute, so the order the shard applied
    them in does not matter.)"""
    for shard, expected in enumerate(expected_commits(acked, shards)):
        directory = os.path.join(durable_root, f"shard-{shard:03d}")
        records, _watermark = read_directory_records(directory)
        remaining = collections.Counter(expected)
        durable: Dict[str, int] = {}
        snapshot = load_snapshot(directory)
        if snapshot is not None:
            durable.update(dict(decode_state(snapshot["state"]))["bank"])
        for record in records:
            if record.get("t") != "commit":
                continue
            key = _record_key(record["ops"], record["results"])
            if remaining[key] <= 0:
                raise CheckFailed(
                    f"shard {shard}: WAL commit {record.get('txn')} matches no "
                    f"acknowledged transaction"
                )
            remaining[key] -= 1
            bank_effects(record["ops"], record["results"], durable)
        implied: Dict[str, int] = {}
        for key, count in expected.items():
            ops, results = json.loads(key)
            for _ in range(count):
                bank_effects(ops, results, implied)
        lost = {a: (implied.get(a, 0), durable.get(a, 0))
                for a in set(implied) | set(durable)
                if implied.get(a, 0) != durable.get(a, 0)}
        if lost:
            raise CheckFailed(
                f"shard {shard}: durable balances differ from the acknowledged "
                f"commits (account: (acknowledged, durable)): {dict(sorted(lost.items())[:5])}"
            )


#: ``verdict_fingerprint`` of every model-checking scope: each one
#: verifies clean (state counts may change, verdicts may not)
EXPECTED_VERDICT = [True, [], [], [], [], []]


def check_verdicts(scopes: Dict[str, Dict[str, Any]], expected_names: Iterable[str]) -> None:
    names = sorted(expected_names)
    if sorted(scopes) != names:
        raise CheckFailed(f"model checker reported scopes {sorted(scopes)}, expected {names}")
    for name, row in scopes.items():
        if row["fingerprint"] != EXPECTED_VERDICT:
            raise CheckFailed(
                f"scope {name}: verdict {row['fingerprint']} != {EXPECTED_VERDICT}"
            )
