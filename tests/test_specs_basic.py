"""Behavioural tests for every concrete sequential specification."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SpecError
from repro.core.ops import make_op
from repro.core.spec import RebasedStateSpec
from repro.durable.records import decode_state, encode_state
from repro.specs import (
    BankSpec,
    CounterSpec,
    KVMapSpec,
    MemorySpec,
    QueueSpec,
    SetSpec,
    StackSpec,
    get_spec,
    spec_names,
)
from repro.specs.product import ProductSpec, split_method
from tests.test_movers import ProductBasisBankSpec


def replay_ok(spec, triples):
    ops = [make_op(m, args, ret) for m, args, ret in triples]
    return spec.allowed(ops)


class TestMemorySpec:
    def test_read_default(self):
        spec = MemorySpec()
        assert spec.result((), "read", ("x",)) == 0

    def test_write_then_read(self):
        spec = MemorySpec()
        assert replay_ok(spec, [("write", ("x", 5), None), ("read", ("x",), 5)])

    def test_wrong_read_disallowed(self):
        spec = MemorySpec()
        assert not replay_ok(spec, [("write", ("x", 5), None), ("read", ("x",), 3)])

    def test_prefix_closure(self):
        spec = MemorySpec()
        ops = [
            make_op("write", ("x", 5)),
            make_op("read", ("x",), 5),
            make_op("read", ("x",), 9),  # disallowed tail
        ]
        assert spec.allowed(ops[:1])
        assert spec.allowed(ops[:2])
        assert not spec.allowed(ops)

    def test_unknown_method(self):
        with pytest.raises(SpecError):
            MemorySpec().result((), "fetch_add", ("x", 1))

    def test_cas_semantics(self):
        spec = MemorySpec()
        assert spec.result((), "cas", ("x", 0, 5)) is True
        ops = (make_op("cas", ("x", 0, 5), True),)
        assert spec.result(ops, "read", ("x",)) == 5
        assert spec.result(ops, "cas", ("x", 0, 9)) is False

    def test_custom_default(self):
        spec = MemorySpec(default="empty")
        assert spec.result((), "read", ("x",)) == "empty"


class TestCounterSpec:
    def test_inc_dec_add_get(self):
        spec = CounterSpec()
        ops = [
            make_op("inc", (), None),
            make_op("inc", (), None),
            make_op("dec", (), None),
            make_op("add", (10,), None),
            make_op("get", (), 11),
        ]
        assert spec.allowed(ops)

    def test_initial_value(self):
        spec = CounterSpec(initial=5)
        assert spec.result((), "get", ()) == 5

    def test_wrong_get(self):
        spec = CounterSpec()
        assert not replay_ok(spec, [("inc", (), None), ("get", (), 0)])


class TestSetSpec:
    def test_add_semantics(self):
        spec = SetSpec()
        assert spec.result((), "add", ("a",)) is True
        ops = (make_op("add", ("a",), True),)
        assert spec.result(ops, "add", ("a",)) is False

    def test_remove_semantics(self):
        spec = SetSpec()
        assert spec.result((), "remove", ("a",)) is False
        ops = (make_op("add", ("a",), True),)
        assert spec.result(ops, "remove", ("a",)) is True

    def test_contains(self):
        spec = SetSpec(initial={"x"})
        assert spec.result((), "contains", ("x",)) is True
        assert spec.result((), "contains", ("y",)) is False

    def test_initial_population(self):
        spec = SetSpec(initial={"a", "b"})
        assert spec.result((), "add", ("a",)) is False


class TestKVMapSpec:
    def test_put_returns_old(self):
        spec = KVMapSpec()
        assert spec.result((), "put", ("k", 1)) is None
        ops = (make_op("put", ("k", 1), None),)
        assert spec.result(ops, "put", ("k", 2)) == 1

    def test_get_and_remove(self):
        spec = KVMapSpec([("k", "v")])
        assert spec.result((), "get", ("k",)) == "v"
        assert spec.result((), "remove", ("k",)) == "v"
        assert spec.result((), "remove", ("missing",)) is None

    def test_contains_key(self):
        spec = KVMapSpec([("k", "v")])
        assert spec.result((), "contains_key", ("k",)) is True
        assert spec.result((), "contains_key", ("z",)) is False

    def test_boolean_values_are_storable(self):
        spec = KVMapSpec()
        ops = (make_op("put", ("k", True), None),)
        assert spec.allowed(ops + (make_op("get", ("k",), True),))


class TestQueueSpec:
    def test_fifo_order(self):
        spec = QueueSpec()
        ops = [
            make_op("enq", ("a",), None),
            make_op("enq", ("b",), None),
            make_op("deq", (), "a"),
            make_op("deq", (), "b"),
            make_op("deq", (), None),
        ]
        assert spec.allowed(ops)

    def test_lifo_order_disallowed(self):
        spec = QueueSpec()
        ops = [
            make_op("enq", ("a",), None),
            make_op("enq", ("b",), None),
            make_op("deq", (), "b"),
        ]
        assert not spec.allowed(ops)

    def test_peek_and_size(self):
        spec = QueueSpec(initial=("x",))
        assert spec.result((), "peek", ()) == "x"
        assert spec.result((), "size", ()) == 1


class TestStackSpec:
    def test_lifo_order(self):
        spec = StackSpec()
        ops = [
            make_op("push", ("a",), None),
            make_op("push", ("b",), None),
            make_op("pop", (), "b"),
            make_op("pop", (), "a"),
            make_op("pop", (), None),
        ]
        assert spec.allowed(ops)

    def test_top(self):
        spec = StackSpec(initial=("x", "y"))
        assert spec.result((), "top", ()) == "y"


class TestBankSpec:
    def test_deposit_withdraw_balance(self):
        spec = BankSpec()
        ops = [
            make_op("deposit", ("a", 10), None),
            make_op("withdraw", ("a", 3), True),
            make_op("balance", ("a",), 7),
        ]
        assert spec.allowed(ops)

    def test_overdraft_fails(self):
        spec = BankSpec()
        assert spec.result((), "withdraw", ("a", 5)) is False

    def test_failed_withdraw_preserves_state(self):
        spec = BankSpec([("a", 3)])
        ops = [
            make_op("withdraw", ("a", 5), False),
            make_op("balance", ("a",), 3),
        ]
        assert spec.allowed(ops)

    def test_nonpositive_amounts_rejected(self):
        spec = BankSpec()
        with pytest.raises(SpecError):
            spec.result((), "deposit", ("a", 0))
        with pytest.raises(SpecError):
            spec.result((), "withdraw", ("a", -1))


def _bank_steps(accounts):
    """Op sequences over ``accounts``: small amounts (non-positive ones
    included, to pin the error path) so balances often return to 0."""
    step = st.one_of(
        st.tuples(st.sampled_from(["deposit", "withdraw"]),
                  st.sampled_from(accounts), st.integers(-1, 4)),
        st.tuples(st.just("balance"), st.sampled_from(accounts)),
    )
    return st.lists(step, max_size=30)


def _run_bank(spec, state, steps):
    """``(ret, state)`` after each step, or the SpecError message."""
    trace = []
    for method, account, *amount in steps:
        try:
            ret, state = spec.perform(state, method, (account, *amount))
        except SpecError as exc:
            trace.append(str(exc))
            continue
        trace.append((ret, state))
    return trace


class TestBankPerformIdentity:
    """The binary-search splice ``perform`` against the dict-rebuilding
    reference: identical returns and identical state tuples."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_bank_steps(["a", "b", "acct10", "acct9"]),
                     _bank_steps([0, 1, 7, -3])))
    def test_single_type_accounts_match_the_reference(self, steps):
        spec, reference = BankSpec(), ProductBasisBankSpec()
        assert _run_bank(spec, (), steps) == _run_bank(reference, (), steps)

    @settings(max_examples=150, deadline=None)
    @given(_bank_steps(["a", "b", 0, 1, 7]))
    def test_mixed_accounts_sort_ints_before_strs(self, steps):
        # the reference's dict semantics, frozen in the total key order
        reference = ProductBasisBankSpec()
        reference.freeze = lambda mapping: tuple(sorted(
            ((k, v) for k, v in mapping.items() if v != 0),
            key=lambda kv: (isinstance(kv[0], str), kv[0]),
        ))
        trace = _run_bank(BankSpec(), (), steps)
        assert trace == _run_bank(reference, (), steps)
        for row in trace:
            if isinstance(row, tuple):
                assert all(balance > 0 for _account, balance in row[1])

    @settings(max_examples=50, deadline=None)
    @given(_bank_steps(["a", "b", "c"]))
    def test_states_round_trip_the_codec_and_a_rebased_spec(self, steps):
        spec = BankSpec()
        states = [row[1] for row in _run_bank(spec, (), steps)
                  if isinstance(row, tuple)]
        for state in states:
            wire = json.loads(json.dumps(encode_state(state)))
            assert decode_state(wire) == state
            rebased = RebasedStateSpec(spec, decode_state(wire))
            assert rebased.initial_state() == state
            assert _run_bank(rebased, rebased.initial_state(), steps) == \
                _run_bank(spec, state, steps)

    def test_zero_balance_is_dropped(self):
        spec = BankSpec([("b", 2)])
        _, state = spec.perform(spec.initial_state(), "deposit", ("a", 3))
        assert state == (("a", 3), ("b", 2))
        assert spec.perform(state, "withdraw", ("a", 3)) == (True, (("b", 2),))
        assert spec.perform(state, "withdraw", ("b", 2)) == (True, (("a", 3),))
        assert spec.perform(state, "withdraw", ("c", 1)) == (False, state)

    def test_int_and_str_accounts_share_a_state(self):
        spec = BankSpec([("x", 1), (5, 2)])
        assert spec.initial_state() == ((5, 2), ("x", 1))
        _, state = spec.perform(spec.initial_state(), "deposit", (-1, 4))
        assert state == ((-1, 4), (5, 2), ("x", 1))
        assert spec.perform(state, "balance", ("x",)) == (1, state)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in spec_names():
            spec = get_spec(name)
            assert spec is not None

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_spec("nope")

    def test_expected_names_present(self):
        names = spec_names()
        for expected in ("memory", "counter", "set", "kvmap", "queue", "stack", "bank"):
            assert expected in names


class TestProductSpec:
    def make(self):
        return ProductSpec({"s": SetSpec(), "c": CounterSpec(), "m": MemorySpec()})

    def test_split_method(self):
        assert split_method("hashT.put") == ("hashT", "put")
        with pytest.raises(SpecError):
            split_method("naked")

    def test_namespaced_execution(self):
        spec = self.make()
        ops = [
            make_op("s.add", ("x",), True),
            make_op("c.inc", (), None),
            make_op("m.write", (("loc",), 5), None),
            make_op("c.get", (), 1),
            make_op("s.contains", ("x",), True),
        ]
        assert spec.allowed(ops)

    def test_cross_component_commutes(self):
        spec = self.make()
        a = make_op("s.add", ("x",), True)
        b = make_op("c.inc", (), None)
        assert spec.commutes(a, b)
        assert spec.left_mover(a, b)

    def test_same_component_delegates(self):
        spec = self.make()
        a = make_op("c.inc", (), None)
        b = make_op("c.get", (), 0)
        assert not spec.commutes(a, b)

    def test_footprint_namespaced(self):
        spec = self.make()
        fp = spec.footprint("s.add", ("x",))
        assert fp == frozenset({("s", ("elem", "x"))})

    def test_unknown_component(self):
        spec = self.make()
        with pytest.raises(SpecError):
            spec.result((), "zz.add", ("x",))

    def test_empty_product_rejected(self):
        with pytest.raises(SpecError):
            ProductSpec({})


class TestFootprintsAndMutators:
    @pytest.mark.parametrize(
        "spec,method,args,mutates",
        [
            (MemorySpec(), "read", ("x",), False),
            (MemorySpec(), "write", ("x", 1), True),
            (CounterSpec(), "get", (), False),
            (CounterSpec(), "add", (3,), True),
            (SetSpec(), "contains", ("a",), False),
            (SetSpec(), "add", ("a",), True),
            (KVMapSpec(), "get", ("k",), False),
            (KVMapSpec(), "remove", ("k",), True),
            (QueueSpec(), "peek", (), False),
            (QueueSpec(), "deq", (), True),
            (StackSpec(), "top", (), False),
            (StackSpec(), "push", ("v",), True),
            (BankSpec(), "balance", ("a",), False),
            (BankSpec(), "withdraw", ("a", 1), True),
        ],
    )
    def test_is_mutator(self, spec, method, args, mutates):
        assert spec.is_mutator(method) == mutates
        assert isinstance(spec.footprint(method, args), frozenset)

    def test_disjoint_footprints(self):
        spec = KVMapSpec()
        assert spec.footprint("get", ("a",)).isdisjoint(spec.footprint("put", ("b", 1)))
        assert not spec.footprint("get", ("a",)).isdisjoint(
            spec.footprint("put", ("a", 1))
        )
