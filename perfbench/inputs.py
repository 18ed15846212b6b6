"""Seeded workload inputs, generated in full before any timing starts.

Every function here is a pure function of its arguments: the same seed
gives the same transactions, in the same order.  The daemon only ever
sees the generated wire ops (``[space, method, *args]`` lists).
"""

from __future__ import annotations

import os
import random
from typing import Dict, List

from repro.core.language import call, tx
from repro.serve.sharding import shard_of

#: shard count every serve workload runs with (``repro serve`` default)
SHARDS = 2
#: distinct kvmap keys / bank accounts, split across the shards
KEYS = 128


def child_env(root: str) -> Dict[str, str]:
    """The environment of every measured process: the checkout's sources
    on the path, and one fixed string-hash seed.  Hash randomisation
    changes dict and set layouts from one process to the next, which
    alone moves a model-checking run's time by about 10%."""
    return dict(os.environ, PYTHONHASHSEED="0",
                PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))


def key_pools(space: str, prefix: str) -> List[List[str]]:
    """``KEYS`` names of ``space``, bucketed by the daemon's own routing
    (:func:`repro.serve.sharding.shard_of`), so a transaction drawn from
    one pool stays on one shard by construction."""
    pools: List[List[str]] = [[] for _ in range(SHARDS)]
    for index in range(KEYS):
        name = f"{prefix}{index}"
        pools[shard_of(space, name, SHARDS)].append(name)
    return pools


def kv_local_txns(seed: int, count: int) -> List[List[list]]:
    """``kv-local``: two kvmap ops per transaction (half ``get``, half
    ``put``), keys uniform over the pool of one uniformly chosen shard."""
    rng = random.Random(f"perfbench:kv-local:{seed}")
    pools = key_pools("kvmap", "k")
    txns = []
    for _ in range(count):
        pool = pools[rng.randrange(SHARDS)]
        ops = []
        for _ in range(2):
            key = rng.choice(pool)
            if rng.random() < 0.5:
                ops.append(["kvmap", "get", key])
            else:
                ops.append(["kvmap", "put", key, rng.randrange(1 << 16)])
        txns.append(ops)
    return txns


#: share of ``bank-2pc`` transactions that span both shards
BANK_CROSS_RATIO = 0.2
#: share of ``bank-2pc`` transactions that are balance reads
BANK_READ_RATIO = 0.2


def bank_2pc_txns(seed: int, count: int) -> List[List[list]]:
    """``bank-2pc``: transfers (``deposit`` then ``withdraw``) and balance
    reads over 128 accounts; a cross transaction draws its two accounts
    from different shards, a local one from the same shard."""
    rng = random.Random(f"perfbench:bank-2pc:{seed}")
    pools = key_pools("bank", "acct")
    txns = []
    for _ in range(count):
        if rng.random() < BANK_CROSS_RATIO:
            first, second = rng.sample(range(SHARDS), 2)
            a, b = rng.choice(pools[first]), rng.choice(pools[second])
        else:
            a, b = rng.sample(pools[rng.randrange(SHARDS)], 2)
        if rng.random() < BANK_READ_RATIO:
            txns.append([["bank", "balance", a], ["bank", "balance", b]])
        else:
            amount = rng.randrange(1, 50)
            txns.append([["bank", "deposit", a, amount], ["bank", "withdraw", b, amount]])
    return txns


def modelcheck_scopes() -> Dict[str, tuple]:
    """The five ``repro modelcheck`` scopes plus a three-thread kvmap
    scope (``put a`` ‖ ``put b`` ‖ ``get a``), as ``name -> (spec class,
    programs)``.  Model checking is exhaustive, so there is nothing to
    seed: every run explores the same scopes."""
    from repro.cli import SCOPES
    from repro.specs import KVMapSpec

    scopes = dict(SCOPES)
    scopes["kvmap-3"] = (
        KVMapSpec,
        [tx(call("put", "a", 1)), tx(call("put", "b", 2)), tx(call("get", "a"))],
    )
    return scopes
