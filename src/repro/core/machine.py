"""The PUSH/PULL machine (§4, Figures 4–6).

Machine states are pairs ``T, G`` of a thread list and a global log.  Each
thread ``{c, σ, L}`` carries its remaining transaction body ``c``, a local
stack ``σ`` and a local log ``L``.  The seven rules of Figure 5 —

=========  ==================================================================
APP        speculatively apply a next method locally (``npshd``)
UNAPP      rewind the last unpushed local operation
PUSH       publish an unpushed operation to the global log (``gUCmt``)
UNPUSH     withdraw a pushed-but-uncommitted operation from the global log
PULL       import another transaction's published operation (``pld``)
UNPULL     discard a pulled operation (detangle)
CMT        atomically flip all own pushed operations to ``gCmt``
=========  ==================================================================

— are the rows of the rule table :data:`RULES`, written as the paper
writes them: each row holds the rule's instance enumeration, its one
criterion function (``None`` when the side-conditions hold, else a factory
for the :class:`~repro.core.errors.CriterionViolation` naming the rule and
the paper's criterion numeral — or a
:class:`~repro.core.errors.MachineError` for a malformed instance), its one
log effect (the successor thread, global log and owner delta) and its key
patch (how the successor's canonical key derives from the parent's).  A few
generic drivers run the table: :meth:`Machine.apply` behind the public
``app``/``unapp``/``push``/``unpush``/``pull``/``unpull``/``cmt`` names,
:meth:`Machine.try_apply`, :meth:`Machine.successor_state` and the
enumerations (:meth:`Machine.rule_instances`, :meth:`Machine.any_enabled`,
:meth:`Machine.successor_keys`) — so the TM drivers, the model checker's
key-first and construct-first expansions and its ample-set probe all
decide a criterion through the same function.
Criteria typeset in gray in the paper (not strictly necessary for
serializability) are checked when ``check_gray_criteria`` is set (the
default), and skipped otherwise.

Machine states are immutable: steps construct new states, so histories of
states can be retained, hashed (model checker) and rewound (§5.4) freely.
Probing a rule runs only its criterion: no exception allocation, successor
logs or fresh operation ids.  All ``allowed``/``allows``/``result`` queries
go through the spec's shared denotation cache
(:func:`~repro.core.spec.shared_denotations`) and all mover queries through
the shared per-spec memo (:func:`~repro.core.spec.shared_movers`).

Each machine thread runs a *single* transaction body (the paper's top-level
rules likewise pertain to "a thread performing a transaction ``tx c``");
drivers sequence multiple transactions by spawning threads.  The structural
rules of Figure 6 (NONDETL/NONDETR/LOOP/SEMI/SEMISKIP) are provided for
completeness via :meth:`Machine.structural_steps`, but APP/CMT already
resolve nondeterminism through ``step``/``fin`` exactly as the paper's APP
and CMT rules do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import CriterionViolation, MachineError, SpecError
from repro.core.language import (
    Call,
    Choice,
    Code,
    Seq,
    Skip,
    SKIP,
    Star,
    Tx,
    fin_cached,
    seq_cont,
    sorted_choices,
    step,
)
from repro.core.logs import (
    EMPTY_GLOBAL,
    EMPTY_LOCAL,
    GlobalLog,
    LocalLog,
    NotPushed,
    Pulled,
    Pushed,
    UNCOMMITTED,
)
from repro.core.ops import (
    IdGenerator,
    Op,
    code_state_id,
    payload_class_id,
    payload_class_of,
)
from repro.core.packed import (
    pack_i32,
    pack_owners,
    pack_tid_cs,
    pack_u32,
    unpack_codes,
    unpack_owners,
)
from repro.core.spec import (
    MemoizedMovers,
    SequentialSpec,
    SpecDenotations,
    shared_denotations,
    shared_movers,
)
from repro.obs.tracer import CAT_CRITERION, CAT_RULE, NULL_TRACER, Tracer

#: a criterion result — ``None`` (criteria hold) or a factory building the
#: exception the rule would raise.  Factories are only invoked on the rule
#: path, so probes never pay for message formatting.
CheckResult = Optional[Callable[[], Exception]]

#: an instance-enumeration policy, in :meth:`Machine.successor_keys`'s
#: argument order: ``(include_backward, pull_active, pull_committed_only,
#: pull_budget)``
Policy = Tuple[bool, bool, bool, Optional[int]]

#: every instance: backward rules included, PULL unrestricted
EVERY_INSTANCE: Policy = (True, True, False, None)

_UNSET = object()


@dataclass(frozen=True)
class Thread:
    """A machine thread ``{c, σ, L}`` plus bookkeeping identity.

    ``original_code``/``original_stack`` record the transaction as first
    submitted (the paper's ``otx``), used by rewind and by the simulation
    relation which maps threads back to un-started transactions.
    """

    tid: int
    code: Code
    stack: Any
    local: LocalLog
    original_code: Code
    original_stack: Any = None

    def own_op_ids(self) -> frozenset:
        """The ids of the thread's own operations, cached on the
        (immutable) thread — the PUSH criteria consult this per probe."""
        try:
            return self._ownids  # type: ignore[attr-defined]
        except AttributeError:
            pass
        own = frozenset(op.op_id for op in self.local.own_ops())
        object.__setattr__(self, "_ownids", own)
        return own

    def evolve(
        self, code: Optional[Code] = None, stack: Any = _UNSET, local: Optional[LocalLog] = None
    ) -> "Thread":
        """A copy with the given fields replaced (cheaper than
        ``dataclasses.replace`` on the rules' hot path)."""
        return Thread(
            self.tid,
            self.code if code is None else code,
            self.stack if stack is _UNSET else stack,
            self.local if local is None else local,
            self.original_code,
            self.original_stack,
        )

    @property
    def done(self) -> bool:
        return isinstance(self.code, Skip) and len(self.local) == 0


def _thread_key(thread: Thread) -> bytes:
    """The packed digest of a thread — ``pack("<ii", tid, code_state_id)``
    followed by the local log's packed row codes — cached on the
    (immutable) thread object so successor machines only re-digest changed
    threads.  Byte strings cache their hash in CPython, so repeated
    seen-set membership tests never re-hash the code AST or payloads;
    :func:`repro.core.packed.decode_thread_key` recovers the PR-2
    object-level tuple."""
    try:
        return thread._tkey  # type: ignore[attr-defined]
    except AttributeError:
        pass
    key = (
        pack_tid_cs(thread.tid, code_state_id(thread.code, thread.stack))
        + thread.local.packed()
    )
    object.__setattr__(thread, "_tkey", key)
    return key


# ---------------------------------------------------------------------------
# The Figure 5 rule table
# ---------------------------------------------------------------------------
#
# Per rule, four functions of ``(machine, thread, …)``:
#
# * ``instances(m, thread, policy)`` — the candidate arguments, criteria
#   not yet checked: the step choice (APP), the operation
#   (PUSH/PULL/UNPUSH/UNPULL) or ``None`` (CMT/UNAPP);
# * ``check(m, thread, arg)`` — the rule's criteria, as a ``CheckResult``;
# * ``effect(m, thread, arg)`` — the log effect of an enabled instance:
#   ``(thread', G', owner_delta)``, the delta in :func:`_patch_global`'s
#   format (``None`` when ``G`` is untouched);
# * ``patch(m, thread, arg)`` — the successor's thread digest as a splice
#   of the parent's, ``(code_state, start, stop, rows, owner_delta)``: the
#   digest header gets ``code_state`` (``None`` keeps it,
#   ``_SAVED_CONTINUATION`` takes UNAPP's saved code/stack off the live
#   flag), packed local rows ``[start, stop)`` are replaced by ``rows``.
#   Everything in it is a function of the thread's payload-level
#   configuration, so :meth:`Machine.successor_keys` memoizes it across
#   threads and operation ids.

#: see ``patch`` above — the one header a recipe cannot carry, because the
#: saved continuation of an ``npshd`` flag is not part of the key
_SAVED_CONTINUATION = object()


def _patch_global(
    rows: bytes, owners: bytes, delta: Tuple, tid: int
) -> Tuple[bytes, bytes]:
    """The global columns of a state key after thread ``tid``'s owner
    delta: ``("push", pid)`` appends a row owned by ``tid``;
    ``("unpush", position)`` drops the row at that global position;
    ``("cmt",)`` flips ``tid``'s rows to committed and releases them (its
    local log empties)."""
    kind = delta[0]
    if kind == "push":
        return rows + pack_u32(delta[1] << 1), owners + pack_i32(tid)
    if kind == "unpush":
        at = 4 * delta[1]
        return rows[:at] + rows[at + 4 :], owners[:at] + owners[at + 4 :]
    gcodes = unpack_codes(rows)
    owner_ids = unpack_owners(owners)
    for i, o in enumerate(owner_ids):
        if o == tid:
            gcodes[i] |= 1
            owner_ids[i] = -1
    return gcodes.tobytes(), owner_ids.tobytes()


def _one_instance(m: "Machine", thread: Thread, policy: Policy) -> Tuple[None]:
    return (None,)


def _trace_rule(
    tracer: Tracer,
    rule: str,
    tid: int,
    start: float,
    violation: Optional[CriterionViolation] = None,
) -> None:
    """One rule application's events: a ``rule`` span and a
    ``{RULE}.check`` criterion instant recording whether its criteria held
    — the stream :mod:`repro.fuzz.coverage` and flight-recorder dumps
    read."""
    if violation is None:
        tracer.span(rule, CAT_RULE, start, tid=tid, args={"ok": True})
        tracer.instant(f"{rule}.check", CAT_CRITERION, tid=tid, args={"ok": True})
        return
    tracer.span(rule, CAT_RULE, start, tid=tid, args={"ok": False})
    tracer.instant(
        f"{rule}.check",
        CAT_CRITERION,
        tid=tid,
        args={"ok": False, "criterion": violation.criterion, "detail": violation.detail},
    )


# ------------------------------------------------------------------- APP


def _app_instances(m: "Machine", thread: Thread, policy: Policy) -> Sequence:
    return sorted_choices(thread.code)


def _app_ret(m: "Machine", thread: Thread, call_node: Call) -> Any:
    """``σ2``: the return value the specification gives ``call_node`` after
    the local log ``L1`` (a cached denotation query; raises
    :class:`SpecError` when ``L1`` itself is disallowed)."""
    return m.denots.result_log(thread.local, call_node.method, call_node.args)


def _app_check(m: "Machine", thread: Thread, choice: Tuple[Call, Code]) -> CheckResult:
    """APP: apply a next reachable method locally.

    * criterion (i):  ``(m1, c2) ∈ step(c1)`` — ``choice`` must come
      from :meth:`Machine.app_choices`;
    * criterion (ii): ``L1`` allows ``⟨m1, σ1, σ2, id1⟩`` — the local
      log admits the operation, whose post-stack ``σ2`` is synthesised
      from the specification's view of ``L1``;
    * criterion (iii): ``fresh(id1)`` — ids come from the machine's
      generator, unique by construction (the effect mints them; a probe
      never does).
    """
    if choice not in sorted_choices(thread.code):
        return lambda: CriterionViolation("APP", "i", f"{choice[0]!r} not in step(c)")
    call_node = choice[0]
    try:
        ret = _app_ret(m, thread, call_node)
    except SpecError as exc:
        detail = str(exc)
        return lambda: CriterionViolation("APP", "ii", detail)
    method, args = call_node.method, call_node.args
    if not m.denots.allows_pid(thread.local, payload_class_of(method, args, ret)):
        return lambda: CriterionViolation(
            "APP",
            "ii",
            f"local log does not allow {Op(method, args, ret, m.ids.fresh()).pretty()}",
        )
    return None


def _app_effect(m: "Machine", thread: Thread, choice: Tuple[Call, Code]) -> Tuple:
    """The pre-code and pre-stack are saved in the ``npshd`` flag so UNAPP
    can rewind."""
    call_node, continuation = choice
    ret = _app_ret(m, thread, call_node)
    op = Op(call_node.method, call_node.args, ret, m.ids.fresh())
    flag = NotPushed(saved_code=thread.code, saved_stack=thread.stack)
    new_thread = thread.evolve(
        code=continuation, stack=ret, local=thread.local.append(op, flag)
    )
    return new_thread, m.global_log, None


def _app_patch(m: "Machine", thread: Thread, choice: Tuple[Call, Code]) -> Tuple:
    call_node, continuation = choice
    ret = _app_ret(m, thread, call_node)
    n = len(thread.local)
    row = pack_u32(payload_class_of(call_node.method, call_node.args, ret) << 2)
    return code_state_id(continuation, ret), n, n, row, None


# ----------------------------------------------------------------- UNAPP


def _unapp_check(m: "Machine", thread: Thread, _: None) -> CheckResult:
    """UNAPP: rewind the last local-log entry, which must be ``npshd``
    (criterion (i)); the effect restores the code and stack saved at APP
    time."""
    local = thread.local
    if len(local) == 0:
        return lambda: MachineError("UNAPP: empty local log")
    last = local[-1]
    if not last.is_not_pushed:
        return lambda: CriterionViolation(
            "UNAPP", "i", f"last entry {last.op.pretty()} is {last.flag!r}, not npshd"
        )
    return None


def _unapp_effect(m: "Machine", thread: Thread, _: None) -> Tuple:
    flag = thread.local[-1].flag
    new_thread = thread.evolve(
        code=flag.saved_code, stack=flag.saved_stack, local=thread.local.drop_last()
    )
    return new_thread, m.global_log, None


def _unapp_patch(m: "Machine", thread: Thread, _: None) -> Tuple:
    n = len(thread.local)
    return _SAVED_CONTINUATION, n - 1, n, b"", None


# ------------------------------------------------------------------ PUSH


def _push_instances(m: "Machine", thread: Thread, policy: Policy) -> Sequence[Op]:
    return thread.local.not_pushed_ops()


def _push_check(m: "Machine", thread: Thread, op: Op) -> CheckResult:
    """PUSH: publish a local ``npshd`` operation ``op`` to the global log.

    * criterion (i):  ``op`` moves left of every ``npshd`` operation
      preceding it in the local log (trivial when pushing in APP order,
      as all known implementations do — §4);
    * criterion (ii): every uncommitted global operation of *another*
      transaction moves right of ``op`` (``u ◁ op``), so the pusher can
      still serialize before all concurrent uncommitted transactions;
    * criterion (iii): the global log allows ``op``.
    """
    local = thread.local
    entry = local.entry_for(op)
    if entry is None or not entry.is_not_pushed:
        return lambda: MachineError(
            f"PUSH: {op.pretty()} is not an npshd entry of thread {thread.tid}"
        )
    position = local.index_of(op)
    codes = local.codes()
    op_pid = payload_class_id(op)
    lm = m.movers.left_mover_pid
    entries = local.entries
    # criterion (i) — both directions of local-order coherence:
    # (a) op moves left of every earlier unpushed own operation
    #     (preserves I_localOrder, Lemma 5.12);
    # (b) every *later*-local own operation already published (pushed,
    #     uncommitted) moves left of op — op will land after them in G
    #     against local order, the pattern I_reorderPUSH (Lemma 5.10)
    #     constrains.  In-order pushing never triggers (b); it bites on
    #     re-publication after an UNPUSH (found by the theorem fuzzer).
    for i in range(position):
        c = codes[i]
        if c & 3 == 0 and not lm(op_pid, c >> 2):
            earlier = entries[i]
            return lambda earlier=earlier: CriterionViolation(
                "PUSH",
                "i",
                f"{op.pretty()} does not move left of earlier unpushed "
                f"{earlier.op.pretty()}",
            )
    global_log = m.global_log
    gcodes = global_log.codes()
    if position + 1 < len(codes):
        gpos_of = global_log._positions()
        for i in range(position + 1, len(codes)):
            c = codes[i]
            if c & 3 != 1:
                continue
            gpos = gpos_of.get(entries[i].op.op_id)
            if gpos is not None and not gcodes[gpos] & 1 and not lm(c >> 2, op_pid):
                later = entries[i]
                return lambda later=later: CriterionViolation(
                    "PUSH",
                    "i",
                    f"already-published later operation "
                    f"{later.op.pretty()} does not move left of "
                    f"{op.pretty()}",
                )
    # criterion (ii)
    own = thread.own_op_ids()
    idrow = global_log.id_row()
    for i, gc in enumerate(gcodes):
        if gc & 1 or idrow[i] in own:
            continue
        if not lm(gc >> 1, op_pid):
            other = global_log.entries[i].op
            return lambda other=other: CriterionViolation(
                "PUSH",
                "ii",
                f"uncommitted {other.pretty()} does not move right of {op.pretty()}",
            )
    # criterion (iii)
    if not m.denots.allows_pid(global_log, op_pid):
        return lambda: CriterionViolation(
            "PUSH", "iii", f"global log does not allow {op.pretty()}"
        )
    return None


def _push_effect(m: "Machine", thread: Thread, op: Op) -> Tuple:
    flag = thread.local.entry_for(op).flag
    new_local = thread.local.set_flag(
        op, Pushed(saved_code=flag.saved_code, saved_stack=flag.saved_stack)
    )
    return (
        thread.evolve(local=new_local),
        m.global_log.append(op, UNCOMMITTED),
        ("push", payload_class_id(op)),
    )


def _push_patch(m: "Machine", thread: Thread, op: Op) -> Tuple:
    # op's flag row flips npshd → pshd in place.
    lidx = thread.local.index_of(op)
    row = pack_u32((thread.local.codes()[lidx] & ~3) | 1)
    return None, lidx, lidx + 1, row, ("push", payload_class_id(op))


# ---------------------------------------------------------------- UNPUSH


def _unpush_instances(m: "Machine", thread: Thread, policy: Policy) -> Sequence[Op]:
    return thread.local.pushed_ops()


def _unpush_check(m: "Machine", thread: Thread, op: Op) -> CheckResult:
    """UNPUSH: withdraw a pushed (``pshd``), still-uncommitted ``op``.

    * criterion (i) [gray]: ``G2`` (everything pushed after ``op``)
      does not depend on ``op`` — in mover form, ``op`` moves right
      past each later entry (``op ◁ e`` for ``e ∈ G2``), as if it had
      never been pushed.  The paper greys this out because disciplined
      drivers can be *proved* to maintain it; the machine checks it
      (under ``check_gray_criteria``) because Lemmas 5.10/5.12 lean on
      it — without it an arbitrary rule player can break
      ``I_localOrder`` by unpushing beneath its own later pushes;
    * criterion (ii): everything pushed chronologically after ``op``
      could still have been pushed had ``op`` not been (the global log
      without ``op`` is still allowed).
    """
    entry = thread.local.entry_for(op)
    if entry is None or not entry.is_pushed:
        return lambda: MachineError(
            f"UNPUSH: {op.pretty()} is not a pshd entry of thread {thread.tid}"
        )
    global_log = m.global_log
    gpos_of = global_log._positions()
    position = gpos_of.get(op.op_id)
    if position is None:
        return lambda: MachineError(
            f"UNPUSH: {op.pretty()} missing from global log (I_LG broken)"
        )
    gcodes = global_log.codes()
    if gcodes[position] & 1:
        return lambda: MachineError(f"UNPUSH: {op.pretty()} is already committed")
    if m.check_gray_criteria:
        op_pid = payload_class_id(op)
        lm = m.movers.left_mover_pid
        # (a) G2 does not depend on op: op moves right past everything
        #     pushed after it (Lemma 5.10's need).
        for i in range(position + 1, len(gcodes)):
            if not lm(op_pid, gcodes[i] >> 1):
                later = global_log.entries[i]
                return lambda later=later: CriterionViolation(
                    "UNPUSH",
                    "i",
                    f"{later.op.pretty()} (pushed later) depends on "
                    f"{op.pretty()}",
                )
        # (b) own later-local published operations must move left of
        #     op — unpushing turns op ``npshd`` beneath them, the
        #     I_localOrder pattern (Lemma 5.12's UNPUSH case).  Found
        #     necessary by the theorem fuzzer.
        local = thread.local
        codes = local.codes()
        entries = local.entries
        local_position = local.index_of(op)
        for i in range(local_position + 1, len(codes)):
            c = codes[i]
            if c & 3 != 1:
                continue
            later_gpos = gpos_of.get(entries[i].op.op_id)
            if later_gpos is None or gcodes[later_gpos] & 1:
                continue
            if not lm(c >> 2, op_pid):
                later_entry = entries[i]
                return lambda later_entry=later_entry: CriterionViolation(
                    "UNPUSH",
                    "i",
                    f"own published {later_entry.op.pretty()} does not "
                    f"move left of {op.pretty()}",
                )
    if not m.denots.allowed_log(global_log.remove(op)):
        return lambda: CriterionViolation(
            "UNPUSH",
            "ii",
            f"later pushes are not allowed without {op.pretty()}",
        )
    return None


def _unpush_effect(m: "Machine", thread: Thread, op: Op) -> Tuple:
    flag = thread.local.entry_for(op).flag
    new_local = thread.local.set_flag(
        op, NotPushed(saved_code=flag.saved_code, saved_stack=flag.saved_stack)
    )
    return (
        thread.evolve(local=new_local),
        m.global_log.remove(op),
        ("unpush", m.global_log.index_of(op)),
    )


def _unpush_patch(m: "Machine", thread: Thread, op: Op) -> Tuple:
    # op's flag row flips pshd → npshd in place.
    lidx = thread.local.index_of(op)
    row = pack_u32(thread.local.codes()[lidx] & ~3)
    return None, lidx, lidx + 1, row, ("unpush", m.global_log.index_of(op))


# ------------------------------------------------------------------ PULL


def _pull_instances(m: "Machine", thread: Thread, policy: Policy) -> List[Op]:
    """Every global entry not in ``L`` — committed ones only under
    ``pull_committed_only``, none once ``pull_budget`` pulls are held."""
    _, active, committed_only, budget = policy
    local = thread.local
    if not active or (budget is not None and len(local.pulled_ops()) >= budget):
        return []
    in_local = local._positions()
    return [
        entry.op
        for entry in m.global_log.entries
        if entry.op.op_id not in in_local and (entry.is_committed or not committed_only)
    ]


def _pull_check(m: "Machine", thread: Thread, op: Op) -> CheckResult:
    """PULL: import a published operation ``op`` into the local view.

    * criterion (i):  ``op ∉ L`` — not pulled (or owned) already;
    * criterion (ii): the local log allows ``op``;
    * criterion (iii) [gray]: everything the transaction has done
      locally moves right of ``op`` (``o ◁ op``), so the pulled effect
      can be viewed as having preceded the transaction.
    """
    if op not in m.global_log:
        return lambda: MachineError(f"PULL: {op.pretty()} not in global log")
    local = thread.local
    if op.op_id in local._positions():
        return lambda: CriterionViolation(
            "PULL", "i", f"{op.pretty()} already in local log"
        )
    op_pid = payload_class_id(op)
    if not m.denots.allows_pid(local, op_pid):
        return lambda: CriterionViolation(
            "PULL", "ii", f"local log does not allow {op.pretty()}"
        )
    if m.check_gray_criteria:
        lm = m.movers.left_mover_pid
        codes = local.codes()
        for i, c in enumerate(codes):
            if c & 3 != 2 and not lm(c >> 2, op_pid):
                own = local.entries[i].op
                return lambda own=own: CriterionViolation(
                    "PULL",
                    "iii",
                    f"own {own.pretty()} does not move right of pulled {op.pretty()}",
                )
    return None


def _pull_effect(m: "Machine", thread: Thread, op: Op) -> Tuple:
    return thread.evolve(local=thread.local.append(op, Pulled())), m.global_log, None


def _pull_patch(m: "Machine", thread: Thread, op: Op) -> Tuple:
    n = len(thread.local)
    return None, n, n, pack_u32((payload_class_id(op) << 2) | 2), None


# ---------------------------------------------------------------- UNPULL


def _unpull_instances(m: "Machine", thread: Thread, policy: Policy) -> Sequence[Op]:
    return thread.local.pulled_ops()


def _unpull_check(m: "Machine", thread: Thread, op: Op) -> CheckResult:
    """UNPULL: discard a pulled (``pld``) operation ``op``.  Criterion
    (i): the local log without ``op`` is still allowed — the transaction
    did nothing that depended on ``op``."""
    local = thread.local
    entry = local.entry_for(op)
    if entry is None or not entry.is_pulled:
        return lambda: MachineError(
            f"UNPULL: {op.pretty()} is not a pld entry of thread {thread.tid}"
        )
    if not m.denots.allowed_log(local.remove(op)):
        return lambda: CriterionViolation(
            "UNPULL", "i", f"local log depends on pulled {op.pretty()}"
        )
    return None


def _unpull_effect(m: "Machine", thread: Thread, op: Op) -> Tuple:
    # ``remove`` is memoized per op: this is the node the criterion built.
    return thread.evolve(local=thread.local.remove(op)), m.global_log, None


def _unpull_patch(m: "Machine", thread: Thread, op: Op) -> Tuple:
    lidx = thread.local.index_of(op)
    return None, lidx, lidx + 1, b"", None


# ------------------------------------------------------------------- CMT


def _cmt_check(m: "Machine", thread: Thread, _: None) -> CheckResult:
    """CMT: the instantaneous commit.

    * criterion (i):   ``fin(c)`` — a method-free path to ``skip``;
    * criterion (ii):  ``L ⊆ G`` — every own operation pushed
      (``⌊L⌋_npshd = ∅``);
    * criterion (iii): every pulled operation is committed in ``G``;
    * criterion (iv):  ``cmt(G, L, G')`` — own pushed operations flip
      to ``gCmt`` (the construction, always possible under I_LG).

    The thread finishes as ``{skip, σ, []}`` (removable via MS_END).
    """
    if not fin_cached(thread.code):
        return lambda: CriterionViolation(
            "CMT", "i", f"no method-free path to skip in {thread.code!r}"
        )
    local = thread.local
    codes = local.codes()
    for c in codes:
        if c & 3 == 0:
            return lambda: CriterionViolation(
                "CMT",
                "ii",
                "unpushed operations remain: "
                + ", ".join(o.pretty() for o in local.not_pushed_ops()),
            )
    global_log = m.global_log
    gpos_of = global_log._positions()
    gcodes = global_log.codes()
    entries = local.entries
    for i, c in enumerate(codes):
        if c & 3 != 2:
            continue
        gpos = gpos_of.get(entries[i].op.op_id)
        if gpos is None:
            pulled = entries[i].op
            return lambda pulled=pulled: CriterionViolation(
                "CMT", "iii", f"pulled {pulled.pretty()} vanished from global log"
            )
        if not gcodes[gpos] & 1:
            pulled = entries[i].op
            return lambda pulled=pulled: CriterionViolation(
                "CMT", "iii", f"pulled {pulled.pretty()} is still uncommitted"
            )
    return None


def _cmt_effect(m: "Machine", thread: Thread, _: None) -> Tuple:
    return (
        thread.evolve(code=SKIP, local=EMPTY_LOCAL),
        m.global_log.commit(thread.local),
        ("cmt",),
    )


def _cmt_patch(m: "Machine", thread: Thread, _: None) -> Tuple:
    # The digest resets to {skip, σ, []}; σ is part of the configuration.
    return code_state_id(SKIP, thread.stack), 0, len(thread.local), b"", ("cmt",)


class Rule(NamedTuple):
    """One row of the Figure 5 rule table (see the section comment)."""

    name: str
    #: UNAPP/UNPUSH/UNPULL: enumerated only under ``include_backward``
    backward: bool
    #: where an instance's argument lives, so memoized recipes can hold a
    #: position instead of an operation: ``"local"`` / ``"global"`` for an
    #: operation of the thread's local / the global log; ``None`` when the
    #: argument is kept as is (APP's step choice; CMT/UNAPP take none)
    source: Optional[str]
    instances: Callable[["Machine", Thread, Policy], Iterable[Any]]
    check: Callable[["Machine", Thread, Any], CheckResult]
    effect: Callable[["Machine", Thread, Any], Tuple]
    patch: Callable[["Machine", Thread, Any], Tuple]


#: the Figure 5 rules, keyed by name, in the model checker's canonical
#: emission order (forward rules first)
RULES: Dict[str, Rule] = {
    row.name: row
    for row in (
        Rule("APP", False, None, _app_instances, _app_check, _app_effect, _app_patch),
        Rule("PUSH", False, "local", _push_instances, _push_check, _push_effect, _push_patch),
        Rule("PULL", False, "global", _pull_instances, _pull_check, _pull_effect, _pull_patch),
        Rule("CMT", False, None, _one_instance, _cmt_check, _cmt_effect, _cmt_patch),
        Rule("UNAPP", True, None, _one_instance, _unapp_check, _unapp_effect, _unapp_patch),
        Rule(
            "UNPUSH", True, "local",
            _unpush_instances, _unpush_check, _unpush_effect, _unpush_patch,
        ),
        Rule(
            "UNPULL", True, "local",
            _unpull_instances, _unpull_check, _unpull_effect, _unpull_patch,
        ),
    )
}


class Machine:
    """An executable PUSH/PULL machine over a sequential specification."""

    def __init__(
        self,
        spec: SequentialSpec,
        threads: Sequence[Thread] = (),
        global_log: GlobalLog = EMPTY_GLOBAL,
        ids: Optional[IdGenerator] = None,
        check_gray_criteria: bool = True,
        movers: Optional[MemoizedMovers] = None,
        tracer: Tracer = NULL_TRACER,
        denots: Optional[SpecDenotations] = None,
    ):
        self.spec = spec
        self.threads: Tuple[Thread, ...] = tuple(threads)
        self.global_log = global_log
        self.ids = ids or IdGenerator()
        self.check_gray_criteria = check_gray_criteria
        self.tracer = tracer
        self.movers = movers or shared_movers(spec, tracer=tracer)
        self.denots = denots or shared_denotations(spec, tracer=tracer)
        self._by_tid: Dict[int, int] = {t.tid: i for i, t in enumerate(self.threads)}
        self._skey: Optional[Tuple] = None
        self._skey_src: Optional[Tuple] = None
        # Successor-recipe memo (see successor_keys): payload-level thread
        # configuration → tid-independent expansion recipe.  Shared by all
        # successors of this machine root (copied by reference in _with),
        # so one exploration shares a single memo; never shared across
        # machine roots (check_gray_criteria and the spec may differ).
        self._skmemo: Dict[Tuple, Tuple] = {}
        self._skplans: Dict[Tuple, Tuple] = {}
        if len(self._by_tid) != len(self.threads):
            raise MachineError("duplicate thread ids")

    # ------------------------------------------------------------------ utils

    def _with(
        self,
        threads: Tuple[Thread, ...],
        global_log: GlobalLog,
        changed_tid: Optional[int] = None,
        owner_delta: Optional[Tuple[Any, ...]] = None,
    ) -> "Machine":
        """Successor-state constructor: shares every per-spec component and,
        when the thread list shape is unchanged (every rule except
        spawn/MS_END), the tid index too — the model checker builds tens of
        thousands of successors per scope, so ``__init__`` revalidation is
        skipped on this internal path.

        Every single-thread rule passes ``changed_tid`` so the successor's
        canonical key can be *derived* from this state's (the incremental
        fingerprint update) instead of rebuilt from the whole state: one
        thread digest is swapped into the parent key, and the global part
        is either reused verbatim (``global_log`` identical) or patched
        through the rule's ``owner_delta`` (see :func:`_patch_global`).
        """
        machine = Machine.__new__(Machine)
        state = machine.__dict__
        state.update(self.__dict__)
        state["threads"] = threads
        state["global_log"] = global_log
        state["_skey"] = None
        state["_skey_src"] = None
        if len(threads) == len(self.threads):
            # _replace_thread preserves positions, so the tid index copied
            # from the parent carries over.
            if (
                changed_tid is not None
                and self._skey is not None
                and (global_log is self.global_log or owner_delta is not None)
            ):
                state["_skey_src"] = (
                    self._skey,
                    self._by_tid[changed_tid],
                    None if global_log is self.global_log else owner_delta,
                )
        else:
            state["_by_tid"] = {t.tid: i for i, t in enumerate(threads)}
        return machine

    def thread(self, tid: int) -> Thread:
        try:
            return self.threads[self._by_tid[tid]]
        except KeyError:
            raise MachineError(f"no thread with tid {tid}")

    def _replace_thread(self, new_thread: Thread) -> Tuple[Thread, ...]:
        index = self._by_tid[new_thread.tid]
        return self.threads[:index] + (new_thread,) + self.threads[index + 1 :]

    def spawn(self, code: Code, stack: Any = None, tid: Optional[int] = None) -> Tuple["Machine", int]:
        """Add a thread for transaction ``code`` (a ``tx`` block or a bare
        body).  Returns the new machine and the thread id."""
        body = code.body if isinstance(code, Tx) else code
        if tid is None:
            tid = max(self._by_tid, default=-1) + 1
        if tid in self._by_tid:
            raise MachineError(f"thread id {tid} already in use")
        thread = Thread(tid, body, stack, EMPTY_LOCAL, original_code=body, original_stack=stack)
        return self._with(self.threads + (thread,), self.global_log), tid

    def end_thread(self, tid: int) -> "Machine":
        """MS_END: remove a completed thread ``{skip, σ, L}``.

        The paper's rule only requires ``skip`` code; we additionally insist
        the local log is empty (it always is after CMT, and removing a
        thread with live ``npshd``/``pshd`` entries would strand them).
        """
        thread = self.thread(tid)
        if not isinstance(thread.code, Skip):
            raise MachineError("MS_END: thread code is not skip")
        if len(thread.local) != 0:
            raise MachineError("MS_END: thread still has local-log entries")
        index = self._by_tid[tid]
        return self._with(self.threads[:index] + self.threads[index + 1 :], self.global_log)

    def drop_thread(self, tid: int) -> "Machine":
        """Administrative removal of an *abandoned* thread.

        Not a paper rule: MS_END requires ``skip`` code, but a permanently
        aborted transaction leaves its (rolled-back) thread holding the
        original, unconsumed program.  A long-running service cannot keep
        such threads around — every rule application copies the thread
        tuple — so after rollback (local log empty, nothing stranded) the
        service layer discards the thread wholesale.  The empty-local-log
        requirement is what keeps this sound: dropping a thread with live
        entries would strand ``pshd`` work in the global log.
        """
        thread = self.thread(tid)
        if len(thread.local) != 0:
            raise MachineError("drop_thread: thread still has local-log entries")
        index = self._by_tid[tid]
        return self._with(self.threads[:index] + self.threads[index + 1 :], self.global_log)

    def end_key(self, tid: int) -> Tuple:
        """The MS_END successor's canonical :meth:`state_key` — the thread
        digest drops out; the global part is shared.  The thread must be
        ``done`` (the checker guarantees it)."""
        parent_key = self.state_key()
        index = self._by_tid[tid]
        tkeys = parent_key[0]
        return (
            tkeys[:index] + tkeys[index + 1 :],
            parent_key[1],
            parent_key[2],
        )

    # ------------------------------------------------------ Figure 5 rules

    def app_choices(self, tid: int) -> FrozenSetType:
        """The ``step(c)`` choices available to APP for thread ``tid``."""
        return step(self.thread(tid).code)

    def app(self, tid: int, choice: Optional[Tuple[Call, Code]] = None) -> "Machine":
        """APP (criteria on :func:`_app_check`); ``choice`` may be omitted
        when ``step(c)`` has exactly one member."""
        if choice is None:
            choices = step(self.thread(tid).code)
            if len(choices) != 1:
                raise MachineError(
                    f"APP: thread {tid} has {len(choices)} step choices; pass one"
                )
            choice = next(iter(choices))
        return self.apply("APP", tid, choice)

    def unapp(self, tid: int) -> "Machine":
        """UNAPP (criterion on :func:`_unapp_check`)."""
        return self.apply("UNAPP", tid)

    def push(self, tid: int, op: Op) -> "Machine":
        """PUSH (criteria on :func:`_push_check`)."""
        return self.apply("PUSH", tid, op)

    def unpush(self, tid: int, op: Op) -> "Machine":
        """UNPUSH (criteria on :func:`_unpush_check`)."""
        return self.apply("UNPUSH", tid, op)

    def pull(self, tid: int, op: Op) -> "Machine":
        """PULL (criteria on :func:`_pull_check`)."""
        return self.apply("PULL", tid, op)

    def unpull(self, tid: int, op: Op) -> "Machine":
        """UNPULL (criterion on :func:`_unpull_check`)."""
        return self.apply("UNPULL", tid, op)

    def cmt(self, tid: int) -> "Machine":
        """CMT (criteria on :func:`_cmt_check`)."""
        return self.apply("CMT", tid)

    def apply(self, rule: str, tid: int, arg: Any = None) -> "Machine":
        """Apply one instance of Figure 5 rule ``rule`` (a :data:`RULES`
        name) to thread ``tid``: raise what its criterion reports, else
        return the successor.

        Traced: a ``rule`` span and a ``{RULE}.check`` criterion instant
        per application that reached its criteria, ``ok`` false on a
        :class:`CriterionViolation`; a :class:`MachineError` (a malformed
        instance) is no criterion outcome and leaves no trace.  With the
        default disabled tracer the tracing costs two ``enabled`` tests."""
        row = RULES[rule]
        tracer = self.tracer
        start = tracer.now() if tracer.enabled else 0.0
        thread = self.thread(tid)
        fail = row.check(self, thread, arg)
        if fail is not None:
            exc = fail()
            if tracer.enabled and isinstance(exc, CriterionViolation):
                _trace_rule(tracer, rule, tid, start, exc)
            raise exc
        successor = self._step(row, thread, arg)
        if tracer.enabled:
            _trace_rule(tracer, rule, tid, start)
        return successor

    def try_apply(self, rule: str, tid: int, arg: Any = None) -> Optional["Machine"]:
        """:meth:`apply` if the instance is enabled, else ``None`` — one
        criterion pass, no exception on the disabled path, which leaves no
        trace."""
        row = RULES[rule]
        thread = self.thread(tid)
        if row.check(self, thread, arg) is not None:
            return None
        tracer = self.tracer
        if not tracer.enabled:
            return self._step(row, thread, arg)
        start = tracer.now()
        successor = self._step(row, thread, arg)
        _trace_rule(tracer, rule, tid, start)
        return successor

    def _step(self, row: Rule, thread: Thread, arg: Any) -> "Machine":
        new_thread, global_log, owner_delta = row.effect(self, thread, arg)
        return self._with(
            self._replace_thread(new_thread),
            global_log,
            changed_tid=thread.tid,
            owner_delta=owner_delta,
        )

    def successor_state(self, rule: str, tid: int, arg: Any, skey: Tuple) -> "Machine":
        """Construct the successor of an instance :meth:`successor_keys`
        emitted as ``(rule, arg, skey)`` (or, for ``"END"``, of a ``done``
        thread's MS_END with :meth:`end_key`); ``skey`` becomes its cached
        state key.  Operation ids are minted here, so only states the
        checker actually keeps consume ids."""
        if rule == "END":
            machine = self.end_thread(tid)
        else:
            new_thread, global_log, _ = RULES[rule].effect(self, self.thread(tid), arg)
            machine = self._with(self._replace_thread(new_thread), global_log)
        machine._skey = skey
        return machine

    # --------------------------------------------------------- enumeration

    def rule_instances(self, tid: int, policy: Policy) -> Iterator[Tuple[str, Any]]:
        """Candidate ``(rule, arg)`` instances for thread ``tid``, in
        :data:`RULES` order, criteria not yet checked: ``arg`` is the step
        choice (APP), the operation (PUSH/PULL/UNPUSH/UNPULL) or ``None``
        (CMT/UNAPP).  ``policy`` (a :data:`Policy`) drops the backward
        rules and restricts PULL as the model checker asks."""
        thread = self.thread(tid)
        for name, row in RULES.items():
            if row.backward and not policy[0]:
                continue
            for arg in row.instances(self, thread, policy):
                yield name, arg

    def any_enabled(
        self, tid: int, rules: Iterable[str], policy: Policy = EVERY_INSTANCE
    ) -> bool:
        """Whether some :meth:`rule_instances` candidate's criteria hold,
        probing ``rules`` in order and stopping at the first — check only:
        no successor states, no exceptions, no fresh ids.  A plain loop,
        not a filter over the generator: the ample-set probe runs it for
        every thread of every visited state."""
        thread = self.thread(tid)
        for name in rules:
            row = RULES[name]
            if row.backward and not policy[0]:
                continue
            check = row.check
            for arg in row.instances(self, thread, policy):
                if check(self, thread, arg) is None:
                    return True
        return False

    def enabled_rules(self, tid: int) -> List[str]:
        """Names of Figure 5 rules with at least one enabled instance for
        ``tid``, in :data:`RULES` order (check only)."""
        return [name for name in RULES if self.any_enabled(tid, (name,))]

    # -------------------------------------------- batched key-first expansion

    def successor_keys(
        self,
        tid: int,
        include_backward: bool,
        pull_active: bool,
        pull_committed_only: bool,
        pull_budget: Optional[int],
    ) -> List[Tuple]:
        """Every enabled rule instance of one (unfinished) thread as a
        ``(rule, arg, skey)`` triple, in :data:`RULES` order: the
        successor's canonical :meth:`state_key`, derived from this state's
        without constructing the successor.  Backward moves mostly land on
        already-visited states, so the model checker probes keys first and
        only materialises new ones (:meth:`successor_state`).

        Which instances are enabled — and the byte patches their keys
        need (each rule's ``patch``) — is a pure function of the thread's
        payload-level configuration: its interned code-state, its packed
        local column, the packed global column, and the local→global
        position map (``lgmap``; the §5.3 criteria read global positions
        only through it).  That recipe is computed once per configuration
        by :meth:`_successor_recipe` through the rules' own criteria and
        memoized in ``_skmemo``; product states that revisit the
        configuration — the overwhelmingly common case — skip every
        criterion scan and denotation lookup and only re-assemble the key
        bytes around this state's parent key.
        """
        index = self._by_tid[tid]
        thread = self.threads[index]
        policy = (include_backward, pull_active, pull_committed_only, pull_budget)
        # The plan — (rule, arg, successor thread digest, owner delta) per
        # enabled instance — is a pure function of the thread's value
        # (tid, interned code-state, local log), the global log and the
        # policy; the logs hash by value with cached hashes, so product
        # states that revisit a configuration (the overwhelmingly common
        # case) pay one tuple hash for the whole expansion.  Ops handed
        # back through a shared plan may be equal rather than identical
        # objects — sound, because every log keys them by ``op_id``.
        pkey = (
            tid,
            code_state_id(thread.code, thread.stack),
            thread.local,
            self.global_log,
            policy,
        )
        plans = self._skplans
        plan = plans.get(pkey)
        if plan is None:
            plan = plans[pkey] = self._successor_plan(thread, policy)
        parent_key = self.state_key()
        tkeys = parent_key[0]
        head = tkeys[:index]
        tail = tkeys[index + 1 :]
        grows = parent_key[1]
        orow = parent_key[2]
        out: List[Tuple] = []
        emit = out.append
        for rule, arg, new_tkey, delta in plan:
            tk = head + (new_tkey,) + tail
            if delta is None:
                emit((rule, arg, (tk, grows, orow)))
            else:
                # Patched against this state's live owner row.
                emit((rule, arg, (tk,) + _patch_global(grows, orow, delta, tid)))
        return out

    def _successor_plan(self, thread: Thread, policy: Policy) -> Tuple[Tuple, ...]:
        """Assemble one thread's emission plan from its (payload-level,
        memoized) expansion recipe: ``(rule, arg, new_tkey, owner_delta)``
        per enabled instance, ``new_tkey`` being the successor's finished
        thread digest."""
        local = thread.local
        global_log = self.global_log
        entries = local.entries
        gpos_of = global_log._positions()
        lgmap = pack_owners(
            gpos_of.get(e.op.op_id, -1) for e in entries
        )
        memo_key = (
            policy,
            code_state_id(thread.code, thread.stack),
            local.packed(),
            global_log.packed(),
            lgmap,
        )
        memo = self._skmemo
        recipe = memo.get(memo_key)
        if recipe is None:
            recipe = memo[memo_key] = self._successor_recipe(thread, policy)
        tid = thread.tid
        header = _thread_key(thread)[:8]
        lpk = local.packed()
        gentries = global_log.entries
        out: List[Tuple] = []
        emit = out.append
        for rule, loc, cs, start, stop, rows, delta in recipe:
            source = RULES[rule].source
            if source is None:
                arg = loc
            else:
                arg = (entries if source == "local" else gentries)[loc].op
            if cs is None:
                head = header
            elif cs is _SAVED_CONTINUATION:
                flag = entries[-1].flag
                head = pack_tid_cs(tid, code_state_id(flag.saved_code, flag.saved_stack))
            else:
                head = pack_tid_cs(tid, cs)
            emit((rule, arg, head + lpk[: 4 * start] + rows + lpk[4 * stop :], delta))
        return tuple(out)

    def _successor_recipe(self, thread: Thread, policy: Policy) -> Tuple[Tuple, ...]:
        """The tid-independent expansion recipe of one thread
        configuration (see :meth:`successor_keys`): each enabled instance
        as ``(rule, position, *patch)``, carrying only interned codes, log
        positions and pre-packed byte patches.

        Everything recorded here is a pure function of the memo key —
        criterion decisions go through the payload-interned oracles
        (movers, denotations), positions through ``lgmap`` — so replaying
        a recipe under a different tid or owner row yields exactly the
        keys the unmemoized derivation would have produced.  Data that is
        *not* key-determined (operation identities, saved continuations,
        this state's owner row) never enters the recipe; the assembly
        reads it from the live state.
        """
        out: List[Tuple] = []
        for rule, arg in self.rule_instances(thread.tid, policy):
            row = RULES[rule]
            if row.check(self, thread, arg) is not None:
                continue
            if row.source == "local":
                loc = thread.local.index_of(arg)
            elif row.source == "global":
                loc = self.global_log.index_of(arg)
            else:
                loc = arg
            out.append((rule, loc) + row.patch(self, thread, arg))
        return tuple(out)

    # ------------------------------------------------- structural rules (Fig 6)

    def structural_steps(self, tid: int) -> Iterator[Tuple[str, "Machine"]]:
        """The NONDETL/NONDETR/LOOP/SEMI/SEMISKIP reductions for ``tid``.

        Yields ``(rule_name, successor)`` pairs.  SEMI recursion is folded
        into the traversal (the reduction type is inductive, Figure 6).
        """
        thread = self.thread(tid)
        for rule, new_code in _structural_code_steps(thread.code):
            new_thread = thread.evolve(code=new_code)
            yield rule, self._with(self._replace_thread(new_thread), self.global_log, changed_tid=tid)

    # -------------------------------------------------------------- inspection

    #: Figure 5 rule footprints — which components a rule instance reads
    #: and writes.  ``local`` rules touch only the acting thread's
    #: ``(c, σ, L)`` and are read by no other rule (no criterion of any
    #: rule inspects another thread's local log): they are independent of
    #: every rule instance on every other thread, which is what the model
    #: checker's ample-set reduction leans on.  ``global`` rules read or
    #: write ``G`` (their enabledness can change under other threads'
    #: moves).
    RULE_FOOTPRINT = {
        "APP": "local",
        "UNAPP": "local",
        "PUSH": "global",
        "UNPUSH": "global",
        "PULL": "global",
        "UNPULL": "local",  # writes only L; enabledness reads only L
        "CMT": "global",
        "END": "structural",  # removes the thread; reads only L
    }

    def state_key(self) -> Tuple:
        """A hashable digest of the machine state (payload-level via the
        intern tables, so model checker visits are independent of id
        allocation order).

        Packed representation: ``(thread_key_bytes…, global_codes_bytes,
        owner_row_bytes)`` — see :mod:`repro.core.packed` for the layout
        and the decoder back to the PR-2 object-level key.  Computed at
        most once per (immutable) machine; thread digests are cached on
        the thread objects, so a successor state only re-digests the one
        thread a rule changed plus the global-log owner bytes.
        """
        key = self._skey
        if key is not None:
            return key
        src = self._skey_src
        if src is not None:
            # Incremental path: one thread changed; the global part of the
            # key is reused (local-only rule) or patched (owner_delta).
            parent_key, index, delta = src
            thread = self.threads[index]
            parent_tkeys = parent_key[0]
            thread_keys = (
                parent_tkeys[:index]
                + (_thread_key(thread),)
                + parent_tkeys[index + 1 :]
            )
            if delta is None:
                global_part = parent_key[1:]
            else:
                global_part = _patch_global(parent_key[1], parent_key[2], delta, thread.tid)
            key = self._skey = (thread_keys,) + global_part
            self._skey_src = None
            return key
        owners: Dict[int, int] = {}
        for t in self.threads:
            tid = t.tid
            for op in t.local.own_ops():
                owners[op.op_id] = tid
        thread_keys = tuple(_thread_key(t) for t in self.threads)
        # The id-free global row codes are cached on the log node (shared
        # by every successor whose rule left G untouched); only the owner
        # row depends on the thread list.
        global_log = self.global_log
        owner_row = pack_owners(
            owners.get(i, -1) for i in global_log.id_row()
        )
        key = self._skey = (thread_keys, global_log.packed(), owner_row)
        return key

    def fingerprint(self) -> int:
        """The canonical fingerprint: the hash of :meth:`state_key`.

        Because the key (and each thread digest feeding it) is cached on
        immutable objects shared between a state and its successors, the
        fingerprint is maintained incrementally across transitions rather
        than recomputed from the full state.
        """
        return hash(self.state_key())


def _structural_code_steps(code: Code) -> Iterator[Tuple[str, Code]]:
    if isinstance(code, Choice):
        yield "NONDETL", code.left
        yield "NONDETR", code.right
        return
    if isinstance(code, Star):
        yield "LOOP", Choice(Seq(code.body, code), SKIP)
        return
    if isinstance(code, Seq):
        if isinstance(code.first, Skip):
            yield "SEMISKIP", code.second
            return
        for rule, new_first in _structural_code_steps(code.first):
            yield f"SEMI:{rule}", seq_cont(new_first, code.second)
        return
    # Skip / Call / Tx have no structural reductions.
    return


# Typing helper (language.step returns a frozenset of pairs).
FrozenSetType = Iterable[Tuple[Call, Code]]
