"""Mover relations (Definition 4.1) — exact oracles per specification.

These pin down the commutativity structure the paper's evaluation relies
on (e.g. "operations on distinct keys commute" for boosting, "a read of
the pre-write value is no mover past the write" for optimistic validation).
"""

import random
from itertools import product

import pytest

from repro.core.errors import SpecError
from repro.core.ops import make_op
from repro.core.precongruence import both_mover, left_mover, right_mover
from repro.specs import (
    BankSpec,
    CounterSpec,
    KVMapSpec,
    MemorySpec,
    QueueSpec,
    SetSpec,
    StackSpec,
)
from repro.serve.shard import ShardConfig, ShardState


class TestMemoryMovers:
    spec = MemorySpec()

    def test_different_locations_commute(self):
        w1 = make_op("write", ("x", 1), None)
        w2 = make_op("write", ("y", 2), None)
        assert both_mover(self.spec, w1, w2)

    def test_same_location_writes_conflict(self):
        w1 = make_op("write", ("x", 1), None)
        w2 = make_op("write", ("x", 2), None)
        assert not left_mover(self.spec, w1, w2)
        assert not left_mover(self.spec, w2, w1)

    def test_same_value_writes_commute(self):
        # Degenerate but real: writing the same value twice is symmetric.
        w1 = make_op("write", ("x", 7), None)
        w2 = make_op("write", ("x", 7), None)
        assert both_mover(self.spec, w1, w2)

    def test_reads_commute(self):
        r1 = make_op("read", ("x",), 0)
        r2 = make_op("read", ("x",), 0)
        assert both_mover(self.spec, r1, r2)

    def test_read_before_write_is_not_mover(self):
        # r(x)->0 · w(x,1): swapping gives w·r->0 which reads 1 — refused.
        r = make_op("read", ("x",), 0)
        w = make_op("write", ("x", 1), None)
        assert not left_mover(self.spec, r, w)

    def test_read_of_written_value_moves_left_of_write(self):
        # r(x)->1 · w(x,1): the swap w·r->1 is allowed and state-equal.
        r = make_op("read", ("x",), 1)
        w = make_op("write", ("x", 1), None)
        assert left_mover(self.spec, r, w)

    def test_inconsistent_reads_vacuously_move(self):
        # r->0 · r->1 is never allowed, so ◁ holds vacuously.
        r0 = make_op("read", ("x",), 0)
        r1 = make_op("read", ("x",), 1)
        assert left_mover(self.spec, r0, r1)

    def test_right_mover_is_flipped_left(self):
        r = make_op("read", ("x",), 0)
        w = make_op("write", ("x", 1), None)
        assert right_mover(self.spec, w, r) == left_mover(self.spec, r, w)


class TestCounterMovers:
    spec = CounterSpec()

    def test_mutators_commute(self):
        assert both_mover(self.spec, make_op("inc", (), None), make_op("dec", (), None))
        assert both_mover(self.spec, make_op("add", (5,), None), make_op("inc", (), None))

    def test_get_conflicts_with_inc(self):
        g = make_op("get", (), 0)
        i = make_op("inc", (), None)
        assert not left_mover(self.spec, g, i)

    def test_gets_commute(self):
        g1 = make_op("get", (), 3)
        g2 = make_op("get", (), 3)
        assert both_mover(self.spec, g1, g2)


class TestSetMovers:
    spec = SetSpec()

    def test_distinct_elements_commute(self):
        a = make_op("add", ("x",), True)
        b = make_op("remove", ("y",), True)
        assert both_mover(self.spec, a, b)

    def test_add_add_same_element_conflicts(self):
        a1 = make_op("add", ("x",), True)
        a2 = make_op("add", ("x",), True)
        # add->True then add->True is never allowed (second must fail), so
        # ◁ is vacuous... both orders are disallowed, hence movers hold.
        assert left_mover(self.spec, a1, a2)

    def test_successful_add_vs_failed_add(self):
        ok = make_op("add", ("x",), True)
        fail = make_op("add", ("x",), False)
        # ok·fail is allowed (x absent); fail·ok requires x present then
        # absent — impossible. Not a mover.
        assert not left_mover(self.spec, ok, fail)

    def test_failed_mutators_commute_with_consistent_reads(self):
        fail = make_op("add", ("x",), False)  # x present, no state change
        seen = make_op("contains", ("x",), True)
        assert both_mover(self.spec, fail, seen)

    def test_add_remove_same_element(self):
        add = make_op("add", ("x",), True)
        rem = make_op("remove", ("x",), True)
        # add->T then remove->T allowed from x∉S; swap: remove->T needs
        # x∈S — different precondition. Not a mover.
        assert not left_mover(self.spec, add, rem)


class TestKVMapMovers:
    spec = KVMapSpec()

    def test_distinct_keys_commute(self):
        # §2's proof obligation: put(k1,v1) and put(k2,v2) with k1≠k2.
        p1 = make_op("put", ("k1", "v1"), None)
        p2 = make_op("put", ("k2", "v2"), None)
        assert both_mover(self.spec, p1, p2)

    def test_same_key_puts_conflict(self):
        p1 = make_op("put", ("k", 1), None)
        p2 = make_op("put", ("k", 2), 1)
        # p1·p2 allowed from k unbound; p2 returns 1 (p1's value). Swap:
        # p2 first would return None ≠ 1. Not a mover.
        assert not left_mover(self.spec, p1, p2)

    def test_get_vs_put_same_key(self):
        g = make_op("get", ("k",), None)
        p = make_op("put", ("k", 5), None)
        assert not left_mover(self.spec, g, p)

    def test_gets_same_key_commute(self):
        g1 = make_op("get", ("k",), 5)
        g2 = make_op("get", ("k",), 5)
        assert both_mover(self.spec, g1, g2)


class TestQueueMovers:
    spec = QueueSpec()

    def test_enqs_do_not_commute(self):
        e1 = make_op("enq", ("a",), None)
        e2 = make_op("enq", ("b",), None)
        assert not both_mover(self.spec, e1, e2)

    def test_deq_empty_pairs_commute(self):
        d1 = make_op("deq", (), None)
        d2 = make_op("deq", (), None)
        assert both_mover(self.spec, d1, d2)

    def test_size_vs_enq(self):
        s = make_op("size", (), 0)
        e = make_op("enq", ("a",), None)
        assert not left_mover(self.spec, s, e)


class TestStackMovers:
    spec = StackSpec()

    def test_pushes_do_not_commute(self):
        p1 = make_op("push", ("a",), None)
        p2 = make_op("push", ("b",), None)
        assert not both_mover(self.spec, p1, p2)

    def test_push_pop_pair(self):
        push = make_op("push", ("a",), None)
        pop = make_op("pop", (), "a")
        # push(a)·pop->a is allowed anywhere; pop->a first requires a on
        # top already — not universal. Not a mover.
        assert not left_mover(self.spec, push, pop)


class TestBankMovers:
    spec = BankSpec()

    def test_different_accounts_commute(self):
        d = make_op("deposit", ("a", 5), None)
        w = make_op("withdraw", ("b", 5), True)
        assert both_mover(self.spec, d, w)

    def test_deposits_same_account_commute(self):
        d1 = make_op("deposit", ("a", 5), None)
        d2 = make_op("deposit", ("a", 7), None)
        assert both_mover(self.spec, d1, d2)

    def test_successful_withdrawals_commute(self):
        # The abstract-conflict showcase: success implies enough balance
        # for both orders.
        w1 = make_op("withdraw", ("a", 3), True)
        w2 = make_op("withdraw", ("a", 4), True)
        assert both_mover(self.spec, w1, w2)

    def test_failed_withdraw_conflicts_with_deposit(self):
        fail = make_op("withdraw", ("a", 5), False)
        dep = make_op("deposit", ("a", 10), None)
        # fail·dep allowed from balance<5; dep·fail needs balance+10<5 —
        # impossible. Not a mover.
        assert not left_mover(self.spec, fail, dep)

    def test_balance_vs_deposit(self):
        bal = make_op("balance", ("a",), 0)
        dep = make_op("deposit", ("a", 1), None)
        assert not left_mover(self.spec, bal, dep)

    def test_withdraw_not_left_mover_of_equal_balance_read(self):
        # Regression: from balance 4, withdraw(2)·balance→2 is allowed but
        # balance→2·withdraw(2) is not (the read sees 4).  The state basis
        # must reach 2+2=4 even though both ops mention the same amount —
        # a deduped amount set once hid this state from the oracle.
        w = make_op("withdraw", ("p", 2), True)
        bal = make_op("balance", ("p",), 2)
        assert not left_mover(self.spec, w, bal)


class ProductBasisBankSpec(BankSpec):
    """Reference for the bank hot path: the oracle basis and ``perform``
    that the per-account basis and the tuple splice replaced, kept
    verbatim and test-only.  One candidate list built from *both* ops'
    amounts is given to *every* mentioned account (a product of ~11×11
    states for distinct accounts), and every ``perform`` rebuilds a dict
    and re-sorts it."""

    @staticmethod
    def freeze(mapping):
        return tuple(sorted((k, v) for k, v in mapping.items() if v != 0))

    def perform(self, state, method, args):
        balances = dict(state)
        if method == "deposit":
            account, amount = args
            if amount <= 0:
                raise SpecError("deposit amount must be positive")
            balances[account] = balances.get(account, 0) + amount
            return None, self.freeze(balances)
        if method == "withdraw":
            account, amount = args
            if amount <= 0:
                raise SpecError("withdraw amount must be positive")
            if balances.get(account, 0) >= amount:
                balances[account] = balances[account] - amount
                return True, self.freeze(balances)
            return False, state
        if method == "balance":
            (account,) = args
            return balances.get(account, 0), state
        raise SpecError(f"BankSpec has no method {method!r}")

    def mover_states(self, op1, op2):
        accounts = sorted({op1.args[0], op2.args[0]}, key=repr)
        amounts = []
        for op in (op1, op2):
            if op.method in ("deposit", "withdraw"):
                amounts.append(op.args[1])
            if op.method == "balance":
                amounts.append(op.ret)
        sums = {0}
        for a in amounts:
            sums |= {s + a for s in sums}
        candidates = sorted(
            {max(0, s + d) for s in sums for d in (-1, 0, 1)}
            | {max(0, s1 - s2) for s1 in sums for s2 in sums}
        )
        return [
            self.freeze(dict(zip(accounts, assignment)))
            for assignment in product(candidates, repeat=len(accounts))
        ]


def bank_grid():
    """Every bank op over accounts a/b, amounts 1–5, balance returns 0–7
    and both withdraw outcomes: 46 ops, 2,116 ordered pairs."""
    ops = []
    for account in "ab":
        for amount in range(1, 6):
            ops.append(make_op("deposit", (account, amount), None))
            ops.append(make_op("withdraw", (account, amount), True))
            ops.append(make_op("withdraw", (account, amount), False))
        for ret in range(8):
            ops.append(make_op("balance", (account,), ret))
    return ops


class TestBankOracleIdentity:
    """The per-account basis decides exactly what the product basis did."""

    def test_left_mover_and_commutes_agree_on_the_grid(self):
        spec, reference = BankSpec(), ProductBasisBankSpec()
        ops = bank_grid()
        assert len(ops) ** 2 == 2116
        for op1 in ops:
            for op2 in ops:
                assert spec.left_mover(op1, op2) == reference.left_mover(op1, op2), (
                    op1, op2)
                assert spec.commutes(op1, op2) == reference.commutes(op1, op2), (
                    op1, op2)

    def test_same_account_basis_is_unchanged(self):
        spec, reference = BankSpec(), ProductBasisBankSpec()
        ops = bank_grid()
        for op1 in ops:
            for op2 in ops:
                if op1.args[0] == op2.args[0]:
                    assert spec.mover_states(op1, op2) == reference.mover_states(op1, op2)

    def test_distinct_account_basis_is_at_most_five_by_five(self):
        spec = BankSpec()
        ops = bank_grid()
        sizes = {(op1, op2): len(spec.mover_states(op1, op2))
                 for op1 in ops for op2 in ops}
        assert max(n for (op1, op2), n in sizes.items()
                   if op1.args[0] != op2.args[0]) <= 25
        assert sum(sizes.values()) == 28048  # the product basis: 73,348

    def test_basis_states_are_canonical(self):
        # frozen tuples a ``perform`` could have produced: sorted, no zeros
        spec = BankSpec()
        d = make_op("deposit", (1, 2), None)
        w = make_op("withdraw", ("a", 3), True)
        for state in spec.mover_states(d, w):
            assert isinstance(state, tuple)
            assert all(balance != 0 for _account, balance in state)
            assert [a for a, _ in state] in ([], [1], ["a"], [1, "a"])


#: accounts and waves of the step-complexity gate (one shard, fixed seed)
STEP_ACCOUNTS = [f"acct{i}" for i in range(6)]
STEP_WAVES, STEP_TXNS = 12, 8


class TestBankStepComplexity:
    """Timing-free ceilings on the bank hot path, in steps per committed
    transaction (Kuznetsov & Ravi's step complexity): a fixed seeded
    sequence of transfer/balance waves on one shard, with ``perform`` and
    ``mover_states`` wrapped by counters.  On this sequence all 96 txns
    commit through 1,120 ``mover_states`` calls.  The product basis with
    dict-rebuilding ``perform`` took 2,024.89 ``perform`` calls per
    committed txn and 61.38 basis states per call; the per-account basis
    with the tuple splice takes 664.98 and 18.81.  The ceilings are those
    figures rounded up."""

    PERFORM_PER_TXN = 665.0
    STATES_PER_CALL = 18.82

    def _measure(self, monkeypatch):
        counts = {"perform": 0, "calls": 0, "states": 0}
        perform, mover_states = BankSpec.perform, BankSpec.mover_states

        def counting_perform(spec, state, method, args):
            counts["perform"] += 1
            return perform(spec, state, method, args)

        def counting_mover_states(spec, op1, op2):
            states = mover_states(spec, op1, op2)
            counts["calls"] += 1
            counts["states"] += len(states)
            return states

        monkeypatch.setattr(BankSpec, "perform", counting_perform)
        monkeypatch.setattr(BankSpec, "mover_states", counting_mover_states)
        rng = random.Random("bank-step-complexity")
        shard = ShardState(ShardConfig(shards=1, root_seed=3))
        committed = 0
        for wave in range(STEP_WAVES):
            items = []
            for i in range(STEP_TXNS):
                a, b = rng.sample(STEP_ACCOUNTS, 2)
                if rng.random() < 0.2:
                    ops = [["bank", "balance", a], ["bank", "balance", b]]
                else:
                    amount = rng.randint(1, 5)
                    ops = [["bank", "deposit", a, amount],
                           ["bank", "withdraw", b, amount]]
                items.append({"id": f"{wave}.{i}", "ops": ops, "attempts": 0})
            committed += sum(o.ok for o in shard.execute_wave(items))
        return committed, counts

    def test_steps_per_committed_txn_stay_at_or_below_the_ceilings(self, monkeypatch):
        committed, counts = self._measure(monkeypatch)
        assert committed > 0 and counts["calls"] > 0
        assert counts["perform"] / committed <= self.PERFORM_PER_TXN
        assert counts["states"] / counts["calls"] <= self.STATES_PER_CALL


class TestMemoizedMovers:
    def test_cache_consistency(self):
        from repro.core.spec import MemoizedMovers

        spec = KVMapSpec()
        movers = MemoizedMovers(spec)
        a = make_op("put", ("k1", 1), None)
        b = make_op("put", ("k2", 2), None)
        first = movers.left_mover(a, b)
        second = movers.left_mover(a, b)
        assert first == second == spec.left_mover(a, b)
        assert movers.commutes(a, b)

    def test_cache_keys_are_payload_level(self):
        from repro.core.spec import MemoizedMovers

        spec = CounterSpec()
        movers = MemoizedMovers(spec)
        a1 = make_op("inc", (), None, op_id=1)
        a2 = make_op("inc", (), None, op_id=2)
        movers.left_mover(a1, a2)
        # Same payloads, different ids: must hit the cache (len 1).
        movers.left_mover(
            make_op("inc", (), None, op_id=3), make_op("inc", (), None, op_id=4)
        )
        assert len(movers._left) == 1
