"""Property-based tests (hypothesis): specification-level invariants.

* prefix closure of ``allowed`` (Parameter 3.1's requirement);
* the exact mover oracles agree with the bounded coinductive ground truth;
* precongruence is reflexive/transitive and a congruence for append;
* movers are sound for log swaps: if ``op1 ◁ op2`` then swapping an
  adjacent allowed ``op1·op2`` preserves allowedness and the final state.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.ops import Op, make_op
from repro.core.precongruence import (
    left_mover,
    left_mover_bounded,
    precongruent,
)
from repro.serve.shard import make_serve_spec
from repro.specs import (
    BankSpec,
    CounterSpec,
    KVMapSpec,
    MemorySpec,
    OrderedSetSpec,
    SetSpec,
)

pytestmark = pytest.mark.slow  # long hypothesis suite: tier-1 runs -m "not slow"

SPEC_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ---------------------------------------------------------------------------
# Operation strategies per spec (payloads chosen from tiny universes so
# collisions — the interesting cases — are frequent).
# ---------------------------------------------------------------------------

LOCS = ("x", "y")
VALUES = (0, 1, 2)
ELEMENTS = ("a", "b")
ACCOUNTS = ("p", "q")


def memory_ops():
    reads = st.tuples(st.just("read"), st.sampled_from(LOCS)).map(
        lambda t: ("read", (t[1],), None)
    )
    writes = st.tuples(
        st.just("write"), st.sampled_from(LOCS), st.sampled_from(VALUES)
    ).map(lambda t: ("write", (t[1], t[2]), None))
    return st.one_of(reads, writes)


def counter_ops():
    return st.sampled_from(
        [("inc", (), None), ("dec", (), None), ("add", (2,), None), ("get", (), None)]
    )


def set_ops():
    return st.tuples(
        st.sampled_from(["add", "remove", "contains"]), st.sampled_from(ELEMENTS)
    ).map(lambda t: (t[0], (t[1],), None))


def kvmap_ops():
    puts = st.tuples(st.sampled_from(ELEMENTS), st.sampled_from(VALUES)).map(
        lambda t: ("put", (t[0], t[1]), None)
    )
    others = st.tuples(
        st.sampled_from(["get", "remove", "contains_key"]),
        st.sampled_from(ELEMENTS),
    ).map(lambda t: (t[0], (t[1],), None))
    return st.one_of(puts, others)


def bank_ops():
    return st.one_of(
        st.tuples(st.sampled_from(ACCOUNTS), st.sampled_from([1, 2])).map(
            lambda t: ("deposit", (t[0], t[1]), None)
        ),
        st.tuples(st.sampled_from(ACCOUNTS), st.sampled_from([1, 2])).map(
            lambda t: ("withdraw", (t[0], t[1]), None)
        ),
        st.sampled_from(ACCOUNTS).map(lambda a: ("balance", (a,), None)),
    )


def orderedset_ops():
    elements = st.tuples(
        st.sampled_from(["add", "remove", "contains"]), st.sampled_from((1, 2))
    ).map(lambda t: (t[0], (t[1],), None))
    observers = st.sampled_from(
        [("min", (), None), ("max", (), None), ("size", (), None)]
    )
    return st.one_of(elements, observers)


def queue_ops():
    return st.one_of(
        st.sampled_from(VALUES).map(lambda v: ("enq", (v,), None)),
        st.sampled_from([("deq", (), None), ("peek", (), None), ("size", (), None)]),
    )


def serve_ops():
    """Namespaced ops over every component of the serve product
    (:func:`repro.serve.shard.make_serve_spec`)."""

    def namespaced(name, strategy):
        return strategy.map(lambda p: (f"{name}.{p[0]}", p[1], None))

    return st.one_of(
        namespaced("kvmap", kvmap_ops()),
        namespaced("counter", counter_ops()),
        namespaced("bank", bank_ops()),
        namespaced("queue", queue_ops()),
    )


def realize(spec, payloads):
    """Turn (method, args, _) payloads into an *allowed* op sequence by
    letting the spec synthesise each return value in context."""
    ops = []
    for method, args, _ in payloads:
        ret = spec.result(tuple(ops), method, args)
        ops.append(make_op(method, args, ret))
    return tuple(ops)


SPEC_STRATEGIES = [
    (MemorySpec, memory_ops),
    (CounterSpec, counter_ops),
    (SetSpec, set_ops),
    (KVMapSpec, kvmap_ops),
    (BankSpec, bank_ops),
]


@pytest.mark.parametrize("spec_cls,op_strategy", SPEC_STRATEGIES)
@SPEC_SETTINGS
@given(data=st.data())
def test_allowed_is_prefix_closed(spec_cls, op_strategy, data):
    spec = spec_cls()
    payloads = data.draw(st.lists(op_strategy(), max_size=6))
    ops = realize(spec, payloads)
    assert spec.allowed(ops)
    for cut in range(len(ops)):
        assert spec.allowed(ops[:cut])


def _mutator_probes(spec_cls):
    """A probe universe that can actually reach the states the tested
    operations care about (Definition 4.1 quantifies over *all* logs, so
    the bounded ground truth needs context ops touching the same keys —
    the specs' own ``probe_ops`` use a separate "probe" key and would
    under-approximate the context space)."""
    if spec_cls is MemorySpec:
        return tuple(
            make_op("write", (loc, v), None) for loc in LOCS for v in VALUES
        )
    if spec_cls is CounterSpec:
        return (make_op("inc", (), None), make_op("dec", (), None))
    if spec_cls is SetSpec:
        return tuple(make_op("add", (e,), True) for e in ELEMENTS) + tuple(
            make_op("remove", (e,), True) for e in ELEMENTS
        )
    if spec_cls is KVMapSpec:
        return tuple(
            make_op("put", (e, v), None) for e in ELEMENTS for v in VALUES
        ) + tuple(make_op("remove", (e,), None) for e in ELEMENTS)
    if spec_cls is BankSpec:
        return tuple(
            make_op("deposit", (a, k), None) for a in ACCOUNTS for k in (1, 2)
        ) + tuple(make_op("withdraw", (a, 1), True) for a in ACCOUNTS)
    raise AssertionError(spec_cls)


@pytest.mark.parametrize("spec_cls,op_strategy", SPEC_STRATEGIES)
@SPEC_SETTINGS
@given(data=st.data())
def test_mover_oracle_matches_bounded_ground_truth(spec_cls, op_strategy, data):
    spec = spec_cls()
    context = realize(spec, data.draw(st.lists(op_strategy(), max_size=2)))
    p1 = data.draw(op_strategy())
    p2 = data.draw(op_strategy())
    # realize the two ops against the context so their rets are plausible
    # (arbitrary rets are mostly vacuous-mover cases)
    op1 = make_op(p1[0], p1[1], spec.result(context, p1[0], p1[1]))
    extended = context + (op1,)
    op2 = make_op(p2[0], p2[1], spec.result(extended, p2[0], p2[1]))
    oracle = spec.left_mover(op1, op2)
    probes = _mutator_probes(spec_cls)
    # Probe-context counterexamples refute the oracle; probe-context
    # success only *supports* it (the oracle quantifies over all states,
    # including ones the probe alphabet cannot reach — e.g. values not in
    # the probe vocabulary), so the assertion is one-sided: the oracle may
    # be False where the bounded check is True, never the reverse.
    ground = left_mover_bounded(
        spec, op1, op2, context_depth=2, suffix_depth=2, probes=probes
    )
    if oracle:
        assert ground, (op1, op2)


@pytest.mark.parametrize("spec_cls,op_strategy", SPEC_STRATEGIES)
@SPEC_SETTINGS
@given(data=st.data())
def test_mover_soundness_for_adjacent_swap(spec_cls, op_strategy, data):
    """If op1 ◁ op2 and ℓ·op1·op2 is allowed, then ℓ·op2·op1 is allowed
    and reaches the same observable state — the exact property every PUSH
    criterion relies on."""
    spec = spec_cls()
    context = realize(spec, data.draw(st.lists(op_strategy(), max_size=3)))
    p1 = data.draw(op_strategy())
    op1 = make_op(p1[0], p1[1], spec.result(context, p1[0], p1[1]))
    p2 = data.draw(op_strategy())
    op2 = make_op(p2[0], p2[1], spec.result(context + (op1,), p2[0], p2[1]))
    if spec.left_mover(op1, op2):
        straight = context + (op1, op2)
        swapped = context + (op2, op1)
        assert spec.allowed(straight)
        if spec.allowed(swapped):
            assert spec.observe(spec.replay(straight)) == spec.observe(
                spec.replay(swapped)
            )
        else:
            pytest.fail(f"{op1} ◁ {op2} but swap disallowed after {context}")


@pytest.mark.parametrize("spec_cls,op_strategy", SPEC_STRATEGIES)
@SPEC_SETTINGS
@given(data=st.data())
def test_precongruence_reflexive_and_transitive(spec_cls, op_strategy, data):
    spec = spec_cls()
    a = realize(spec, data.draw(st.lists(op_strategy(), max_size=4)))
    b = realize(spec, data.draw(st.lists(op_strategy(), max_size=4)))
    c = realize(spec, data.draw(st.lists(op_strategy(), max_size=4)))
    assert precongruent(spec, a, a)
    if precongruent(spec, a, b) and precongruent(spec, b, c):
        assert precongruent(spec, a, c)


@pytest.mark.parametrize("spec_cls,op_strategy", SPEC_STRATEGIES)
@SPEC_SETTINGS
@given(data=st.data())
def test_precongruence_append_congruence(spec_cls, op_strategy, data):
    """Lemma 5.3: ℓa ≼ ℓb ⇒ ℓa·ℓc ≼ ℓb·ℓc."""
    spec = spec_cls()
    a = realize(spec, data.draw(st.lists(op_strategy(), max_size=3)))
    b = realize(spec, data.draw(st.lists(op_strategy(), max_size=3)))
    tail = realize(spec, data.draw(st.lists(op_strategy(), max_size=2)))
    if precongruent(spec, a, b):
        assert precongruent(spec, a + tail, b + tail)


@pytest.mark.parametrize(
    "spec_cls,op_strategy",
    SPEC_STRATEGIES + [(OrderedSetSpec, orderedset_ops), (make_serve_spec, serve_ops)],
)
@SPEC_SETTINGS
@given(data=st.data())
def test_footprint_disjointness_implies_commutation(spec_cls, op_strategy, data):
    """The soundness contract drivers rely on: disjoint footprints ⇒
    commutativity (for realized, allowed rets).  Both ops' returns are
    realized after a random allowed context (``op2`` after ``op1``), so
    the commuting pair is one the log can actually hold — the pairs a
    serve-side skip of the mover oracle would see, for every registered
    spec family the daemon serves."""
    spec = spec_cls()
    context = realize(spec, data.draw(st.lists(op_strategy(), max_size=3)))
    p1 = data.draw(op_strategy())
    p2 = data.draw(op_strategy())
    op1 = make_op(p1[0], p1[1], spec.result(context, p1[0], p1[1]))
    op2 = make_op(p2[0], p2[1], spec.result(context + (op1,), p2[0], p2[1]))
    assert spec.allowed(context + (op1, op2))
    if spec.op_footprint(op1).isdisjoint(spec.op_footprint(op2)):
        assert spec.left_mover(op1, op2)
        assert spec.left_mover(op2, op1)
