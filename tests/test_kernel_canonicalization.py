"""Canonical-state fingerprints: property tests for the incremental kernel.

The model checker's key-first successor path derives a successor's
canonical key (``Machine.successor_keys``, and ``end_key`` for MS_END)
from the parent's cached digest *without constructing the successor*.
Everything the checker concludes rests on two laws, pinned here:

* **soundness** — along every reachable path, under every PULL policy
  the checker uses, with and without backward rules, a derived key
  equals the full from-scratch digest of the successor actually
  constructed (whether via ``successor_state`` or ``try_apply``);
* **canonicality** — states that differ only in operation-id allocation
  collide on ``state_key``/``fingerprint``, while states that differ in
  push/pull *flags* or in global-log *order* do not.
"""

from hypothesis import given, settings, strategies as st

from repro.core import Machine, call, tx
from repro.specs import CounterSpec, MemorySpec

#: ``successor_keys`` policies, as ``(include_backward, pull_active,
#: pull_committed_only, pull_budget)``: PULL off, committed-only, and
#: unrestricted under a budget — each with and without backward rules.
POLICIES = [
    (backward, active, committed_only, budget)
    for backward in (True, False)
    for active, committed_only, budget in (
        (False, False, None),
        (True, True, None),
        (True, False, 1),
    )
]

#: every instance: the checker's default enumeration
EVERY = (True, True, False, None)


def full_key(machine):
    """Ground truth: drop the cached/incremental digest and recompute the
    canonical key from the state's actual contents."""
    machine._skey = None
    machine._skey_src = None
    return machine.state_key()


def enabled_moves(machine, policy=EVERY):
    """Every key-first rule instance enabled in ``machine``, as
    ``(rule, tid, arg, derived_key)`` — the checker's own enumeration."""
    moves = []
    for thread in machine.threads:
        tid = thread.tid
        if thread.done:
            moves.append(("END", tid, None, machine.end_key(tid)))
            continue
        for rule, arg, skey in machine.successor_keys(tid, *policy):
            moves.append((rule, tid, arg, skey))
    return moves


def construct(machine, rule, tid, arg):
    """The successor built the classic check-then-construct way."""
    if rule == "END":
        return machine.end_thread(tid)
    return machine.try_apply(rule, tid, arg)


def _memory_call(draw_tuple):
    kind, key, value = draw_tuple
    return call("write", key, value) if kind == "w" else call("read", key)


_calls = st.tuples(
    st.sampled_from(["w", "r"]),
    st.sampled_from(["x", "y"]),
    st.integers(min_value=0, max_value=2),
).map(_memory_call)

_programs = st.lists(
    st.lists(_calls, min_size=1, max_size=3).map(lambda ops: tx(*ops)),
    min_size=1,
    max_size=2,
)


def _spawn_all(programs):
    machine = Machine(MemorySpec())
    for program in programs:
        machine, _ = machine.spawn(program)
    return machine


@settings(max_examples=40, deadline=None)
@given(programs=_programs, policy=st.sampled_from(POLICIES), data=st.data())
def test_derived_keys_match_constructed_successors(programs, policy, data):
    """Soundness along random walks: every enabled rule instance's derived
    key equals the from-scratch digest of the successor built both ways."""
    machine = _spawn_all(programs)
    for _ in range(8):
        moves = enabled_moves(machine, policy)
        if not moves:
            break
        for rule, tid, arg, skey in moves:
            via_state = machine.successor_state(rule, tid, arg, skey)
            assert full_key(via_state) == skey, rule
            via_try = construct(machine, rule, tid, arg)
            assert via_try is not None, rule
            assert full_key(via_try) == skey, rule
        rule, tid, arg, skey = data.draw(st.sampled_from(moves), label="next move")
        machine = machine.successor_state(rule, tid, arg, skey)


@settings(max_examples=40, deadline=None)
@given(programs=_programs, burn=st.integers(min_value=1, max_value=4))
def test_id_allocation_is_invisible(programs, burn):
    """Two machines running the same programs collide on ``state_key`` and
    ``fingerprint`` even when one minted (and discarded) extra op ids
    first — visits must be independent of id allocation order."""
    m1 = _spawn_all(programs)
    m2 = _spawn_all(programs)
    tid = m2.threads[0].tid
    for _ in range(burn):  # each APP/UNAPP round consumes a fresh op id
        m2 = m2.app(tid).unapp(tid)
    assert full_key(m1) == full_key(m2)
    assert m1.fingerprint() == m2.fingerprint()
    # The collision persists along an identical walk.  Operands carry
    # different op ids on the two machines, so the analogous move is the
    # first one with the same (rule, tid) in m2's own (deterministic)
    # enumeration — never m1's operand replayed on m2.
    for _ in range(4):
        moves1 = enabled_moves(m1)
        if not moves1:
            break
        rule, tid, arg1, skey1 = moves1[0]
        _, _, arg2, skey2 = next(
            mv for mv in enabled_moves(m2) if mv[:2] == (rule, tid)
        )
        m1 = m1.successor_state(rule, tid, arg1, skey1)
        m2 = m2.successor_state(rule, tid, arg2, skey2)
        assert full_key(m1) == full_key(m2)
        assert m1.fingerprint() == m2.fingerprint()


def test_flag_difference_distinguishes():
    """The same operation not-pushed vs. pushed is a different state."""
    machine, tid = Machine(CounterSpec()).spawn(tx(call("inc")))
    applied = machine.app(tid)
    pushed = applied.push(tid, applied.thread(tid).local[0].op)
    assert full_key(applied) != full_key(pushed)
    assert applied.fingerprint() != pushed.fingerprint()


def test_pull_flag_distinguishes():
    """A pulled foreign entry changes the puller's canonical key."""
    base = Machine(MemorySpec())
    base, ta = base.spawn(tx(call("write", "x", 1)))
    base, tb = base.spawn(tx(call("read", "x")))
    m = base.app(ta)
    op = m.thread(ta).local[0].op
    m = m.push(ta, op).cmt(ta)
    pulled = m.pull(tb, op)
    assert full_key(m) != full_key(pulled)
    assert m.fingerprint() != pulled.fingerprint()


def test_global_order_distinguishes():
    """The same two entries pushed in opposite orders are distinct
    states — the global log is a sequence, not a set."""
    base = Machine(MemorySpec())
    base, ta = base.spawn(tx(call("write", "x", 1)))
    base, tb = base.spawn(tx(call("write", "y", 2)))
    m = base.app(ta).app(tb)
    op_a = m.thread(ta).local[0].op
    op_b = m.thread(tb).local[0].op
    ab = m.push(ta, op_a).push(tb, op_b)
    ba = m.push(tb, op_b).push(ta, op_a)
    assert full_key(ab) != full_key(ba)
    assert ab.fingerprint() != ba.fingerprint()
