"""Mover-guided partial-order reduction for the model checker.

The paper's central oracle family — Lipton left/right movers over the log
precongruence ``≼`` (§4) — is exactly the independence relation a sound
partial-order reduction needs.  This module turns the memoized mover
oracles into a *state-space quotient* plus an *ample-set successor
filter*, both consumed by :func:`repro.checking.model_checker.explore`:

1. **Trace quotient** (:meth:`Reducer.canonical`).  Visited-state keys
   are mapped to the lexicographically least representative of their
   Mazurkiewicz trace class: the global log's rows are rewritten by
   :func:`repro.core.precongruence.trace_normal_form` under payload-level
   both-mover independence, and each thread's maximal runs of pulled
   (``pld``) entries are normalized the same way (own ``npshd``/``pshd``
   entries are fixed barriers — their order is the program/push order the
   §5.3 invariants constrain).  Both-mover adjacent swaps produce
   mutually-``≼`` logs in every context, every order-sensitive invariant
   clause and rule criterion is mover-guarded, and the Theorem 5.17 cover
   check reads only the committed payload *multiset* — so two states that
   differ by such swaps are verdict-equivalent and exploring one
   representative per class is sound (see DESIGN.md "Reduction").

2. **Thread-permutation symmetry.**  For scopes whose threads run
   identical programs, the key is additionally minimized over the
   permutations of each identical-program group (tids renamed in thread
   digests, the owner row, and the commit order).  The machine is fully
   symmetric in thread identity, so permuted states are bisimilar.

3. **Ample sets** (:meth:`Reducer.ample_tid`).  A thread whose enabled
   instances are *all* APP/UNAPP — with at least one APP — touches
   nothing any other thread can observe (APP/UNAPP read and write only
   the thread's own ``(c, σ, L)``; see ``Machine.RULE_FOOTPRINT``), so
   the checker may expand only that thread's moves and defer the rest.
   Requiring an enabled APP gives deterministic progress: every maximal
   ample chain strictly consumes program text and ends in a fully
   expanded state, which rules out the ignoring problem without a
   seen-set proviso — the ample decision is a pure function of the state,
   so sequential and work-stealing parallel runs explore the *same*
   reduced graph.  The filter is applied only when backward rules are
   explored (``include_backward``): UNAPP chains from the fully expanded
   chain ends re-reach the deferred mid-chain configurations, preserving
   the per-thread invariant-witness coverage of the full graph.

Everything here is payload-level and deterministic; no operation ids,
``id()`` values, or hashes enter the canonical keys, so keys agree across
processes (the parallel explorer's shared seen-set relies on this).
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.language import Code
from repro.core.machine import Machine
from repro.core.ops import Op
from repro.core.packed import (
    decode_global_rows,
    decode_thread_key,
    encode_global_rows,
    encode_thread_key,
    pack_i32,
    pack_owners,
    unpack_owners,
)
from repro.core.precongruence import trace_normal_form
from repro.core.spec import MemoizedMovers, SequentialSpec, shared_movers
from repro.obs.tracer import CAT_POR, NULL_TRACER, Tracer


def _symmetry_perms(programs: Sequence[Tuple[int, Code]]) -> List[Dict[int, int]]:
    """Non-identity tid permutations respecting program identity.

    ``programs`` pairs each spawned tid with its *original* program; tids
    are interchangeable only within groups running syntactically equal
    programs.  Returns the non-trivial permutations as tid→tid maps (the
    identity is implicit — the caller always keeps the unpermuted
    candidate), or ``[]`` when every group is a singleton.
    """
    groups: Dict[str, List[int]] = {}
    for tid, program in programs:
        groups.setdefault(repr(program), []).append(tid)
    swappable = [sorted(tids) for tids in groups.values() if len(tids) > 1]
    if not swappable:
        return []
    perms: List[Dict[int, int]] = [{}]
    for tids in swappable:
        extended: List[Dict[int, int]] = []
        for image in permutations(tids):
            mapping = dict(zip(tids, image))
            for base in perms:
                extended.append({**base, **mapping})
        perms = extended
    return [p for p in perms if any(k != v for k, v in p.items())]


def _candidate_rank(thread_reprs: List[str], global_repr: str, committed: Tuple) -> str:
    """``repr(((thread_forms, rows, owners), committed))`` assembled from
    its parts' reprs (``global_repr`` is ``repr(rows) + ", " +
    repr(owners)``) — the very same string, so symmetry candidates rank
    exactly as by the ``repr`` of the decoded candidate without walking
    its decoded forms again."""
    inner = ", ".join(thread_reprs)
    if len(thread_reprs) == 1:
        inner += ","
    return f"((({inner}), {global_repr}), {committed!r})"


#: The rules whose enabled instances bar a thread from forming an ample
#: set: those that read or write the global log (see
#: ``Machine.RULE_FOOTPRINT``), cheapest probe first and PULL last.
#: UNPULL writes only the local log but is grouped with them: its successor
#: changes which PULLs are within budget, and deferring a thread's own
#: non-APP moves is exactly what the reduction must not do (an ample set
#: contains every enabled move of its thread).
AMPLE_BLOCKERS = ("PUSH", "CMT", "UNPULL", "UNPUSH", "PULL")


class Reducer:
    """Canonicalization and ample-set decisions for one exploration.

    Stateful only in its caches and counters; :meth:`canonical` and
    :meth:`ample_tid` are pure functions of their arguments, which is what
    makes the reduction reproducible across runs and across the parallel
    explorer's workers.  The canonical-key and ample caches are keyed on
    packed bytes (CPython caches ``bytes.__hash__``); every cache lives as
    long as the reducer.
    """

    def __init__(
        self,
        spec: SequentialSpec,
        programs: Sequence[Tuple[int, Code]] = (),
        symmetry: bool = True,
        ample: bool = True,
        tracer: Tracer = NULL_TRACER,
        movers: Optional[MemoizedMovers] = None,
    ) -> None:
        self.spec = spec
        self.movers = movers or shared_movers(spec)
        self.ample = ample
        self.perms = _symmetry_perms(programs) if symmetry else []
        self.tracer = tracer
        # Payload-level commutation of two id-free rows; symmetric, so both
        # orientations are stored per query.
        self._commute: Dict[Tuple, bool] = {}
        # Packed thread key → (canonical packed thread key, tid, repr of the
        # decoded canonical ``(tid, code, stack, flag_rows)`` form after its
        # tid — symmetry ranking reads the form only through its repr).
        self._threads: Dict[bytes, Tuple[bytes, int, str]] = {}
        # Packed ``(G codes, owner row)`` → (canonical packed pair, decoded
        # canonical owners, ``repr(rows) + ", " + repr(owners)`` of the
        # decoded canonical rows and owners).  G changes on a minority of
        # transitions, so few distinct pairs carry every state.
        self._globals: Dict[Tuple[bytes, bytes], Tuple] = {}
        # Packed node key → packed canonical key.  The checker calls
        # :meth:`canonical` once per emitted transition and most states are
        # revisited, so this front cache answers most calls outright.
        self._canon_cache: Dict[Tuple, Tuple] = {}
        # (packed thread key, G codes, owner row, policy) → ample
        # eligibility of that thread.
        self._eligible: Dict[Tuple, bool] = {}
        # Counters folded into the report / `por.*` trace stream.
        self.ample_hits = 0
        self.ample_deferred = 0
        self.full_expansions = 0
        self.ample_probes = 0
        self.canon_decodes = 0
        self.thread_canon_misses = 0
        self.global_canon_misses = 0

    # ------------------------------------------------------------- movers

    def _rows_commute(self, row1: Tuple, row2: Tuple) -> bool:
        """Both-mover check on id-free payload rows ``(method, args, ret)``.

        Probe records carry sentinel ids (never stored); the underlying
        memo is keyed on payload classes, so repeats are dictionary hits.
        """
        key = (row1, row2)
        got = self._commute.get(key)
        if got is None:
            op1 = Op(row1[0], row1[1], row1[2], -1)
            op2 = Op(row2[0], row2[1], row2[2], -2)
            got = self.movers.commutes(op1, op2)
            self._commute[key] = got
            self._commute[(row2, row1)] = got
        return got

    def _local_rows_commute(self, row1: Tuple, row2: Tuple) -> bool:
        """Independence of two local-log rows ``(method, args, ret, kind)``.

        Own entries (``npshd``/``pshd``) never commute with each other,
        whatever their payloads: their relative order is *data* — the
        program order I_localOrder checks and the push order I_chronPush
        checks — not an artifact of interleaving, so rewriting it could
        manufacture or mask violations.  Every other pair (pld/pld and
        pld/own) reorders freely when the payloads are both-movers: the
        swapped logs are mutually ``≼`` in every context, and every
        order-sensitive clause or criterion cites a non-commuting pair,
        whose relative order the trace normal form preserves."""
        if row1[3] != "pld" and row2[3] != "pld":
            return False
        return self._rows_commute(row1[:3], row2[:3])

    # ----------------------------------------------------- canonical keys

    def _canon_thread(self, tkey: bytes) -> Tuple[bytes, int, str]:
        """Decode one packed thread key, bring its local rows to the trace
        normal form under :meth:`_local_rows_commute` — pulled entries
        slide into canonical position among themselves and past commuting
        own entries, so the PULL-permutation blowup collapses to one
        representative per thread-local trace class — and cache the
        re-encoded key with the tid and the decoded form's repr tail."""
        self.thread_canon_misses += 1
        tid, code, stack, frows = decode_thread_key(tkey)
        form = (tid, code, stack, trace_normal_form(frows, self._local_rows_commute, repr))
        got = self._threads[tkey] = (
            encode_thread_key(form),
            tid,
            repr(form)[len(str(tid)) + 1 :],
        )
        return got

    def _canon_global(self, gpacked: bytes, opacked: bytes) -> Tuple:
        """Decode packed ``(G codes, owner row)``, bring G's ``(row,
        owner)`` sequence to its trace normal form and cache the
        re-encoded pair with the owners and the rows' and owners' repr."""
        self.global_canon_misses += 1
        items = trace_normal_form(
            tuple(zip(decode_global_rows(gpacked), unpack_owners(opacked))),
            lambda a, b: self._rows_commute(a[0][:3], b[0][:3]),
            repr,
        )
        rows, owners = (tuple(col) for col in zip(*items)) if items else ((), ())
        got = self._globals[(gpacked, opacked)] = (
            (encode_global_rows(rows), pack_owners(owners)),
            owners,
            f"{rows!r}, {owners!r}",
        )
        return got

    def canonical(self, nkey: Tuple) -> Tuple:
        """The canonical key of a packed checker node key
        ``(state_key, committed)``.

        Applies, in order: per-thread pld-run normalization, global-log
        trace normalization, and (when the scope has interchangeable
        threads) minimization over program-preserving tid permutations.
        Normalization runs on decoded object-level rows (intern ids are
        process-local and carry no payload order, so packed codes can't
        be ranked directly), but one component at a time: each distinct
        packed thread key and each distinct packed ``(G, owner row)`` pair
        is decoded, normalized and re-encoded once, then served from a
        byte-keyed cache.  Without symmetry the canonical key is assembled
        from those cached bytes alone.  With symmetry the candidates are
        ranked by the ``repr`` of their decoded form, assembled from
        per-component reprs held in the same caches
        (:func:`_candidate_rank`), and only the winner's thread keys are
        re-packed (its tids renamed).  Everything is pure and
        payload-level — canonical keys of equal states agree across
        processes once digested through
        :func:`repro.checking.parallel.key_digest` (which decodes again).
        """
        got = self._canon_cache.get(nkey)
        if got is not None:
            return got
        self.canon_decodes += 1
        (ptkeys, gpacked, opacked), committed = nkey
        threads = self._threads
        globals_ = self._globals
        tcanon = [threads.get(tb) or self._canon_thread(tb) for tb in ptkeys]
        gcanon = globals_.get((gpacked, opacked)) or self._canon_global(gpacked, opacked)
        # Commit *order* is bookkeeping only — every consumer (the
        # Theorem 5.17 cover check, the CLI reports) reads the committed
        # *set* — so CMT-order interleavings collapse to one key.
        committed = tuple(sorted(committed))
        got = ((tuple(cbytes for cbytes, _, _ in tcanon),) + gcanon[0], committed)
        if self.perms:
            # Tids occur inside heterogeneous tuples, so candidates are
            # ranked by their (deterministic) repr rather than compared
            # structurally.
            # ``f"({tid}{tail}"`` is the repr of a thread's decoded form
            # under tid ``tid``.
            (cg, _), owners, grepr = gcanon
            best_rank = _candidate_rank(
                [f"({tid}{tail}" for _, tid, tail in tcanon], grepr, committed
            )
            winner = None
            for perm in self.perms:
                order = sorted(
                    (perm.get(tid, tid), cbytes, tail) for cbytes, tid, tail in tcanon
                )
                pkey = (cg, pack_owners(perm.get(o, o) for o in owners))
                pglobal = globals_.get(pkey) or self._canon_global(*pkey)
                pcommitted = tuple(sorted(perm.get(t, t) for t in committed))
                rank = _candidate_rank(
                    [f"({tid}{tail}" for tid, _, tail in order], pglobal[2], pcommitted
                )
                if rank < best_rank:
                    best_rank, winner = rank, (order, pglobal, pcommitted)
            if winner is not None:
                order, pglobal, pcommitted = winner
                got = (
                    (tuple(pack_i32(tid) + cbytes[4:] for tid, cbytes, _ in order),)
                    + pglobal[0],
                    pcommitted,
                )
        self._canon_cache[nkey] = got
        return got

    # -------------------------------------------------------- ample sets

    def ample_tid(
        self,
        machine: Machine,
        pull_allowed: bool,
        pull_committed_only: bool,
        pull_budget: Optional[int],
    ) -> Optional[int]:
        """The tid whose moves form an ample set at this state, or ``None``
        for full expansion.

        Eligibility: the thread is unfinished, has at least one enabled
        APP instance (strict progress — ample chains terminate), and has
        *no* enabled :data:`AMPLE_BLOCKERS` instance (per the checker's
        PULL policy).  The lowest eligible tid wins, making the choice a
        pure function of the state.

        A thread's eligibility is memoized on its packed thread key, the
        packed G codes and owner row, and the policy — a projection of
        the raw state key the checker dedups on, which it already treats
        as deciding every criterion — so the probe runs once per distinct
        thread configuration.
        """
        policy = (True, pull_allowed, pull_committed_only, pull_budget)
        tkeys, gpacked, opacked = machine.state_key()
        memo = self._eligible
        for tkey, thread in zip(tkeys, machine.threads):
            if thread.done:
                continue
            key = (tkey, gpacked, opacked, policy)
            eligible = memo.get(key)
            if eligible is None:
                tid = thread.tid
                self.ample_probes += 1
                eligible = machine.any_enabled(tid, ("APP",), policy)
                if eligible:
                    self.ample_probes += 1
                    eligible = not machine.any_enabled(tid, AMPLE_BLOCKERS, policy)
                memo[key] = eligible
            if eligible:
                self.ample_hits += 1
                self.ample_deferred += len(machine.threads) - 1
                return thread.tid
        self.full_expansions += 1
        return None

    # ------------------------------------------------------ observability

    def emit_stats(self, tracer: Optional[Tracer] = None) -> Dict[str, int]:
        """The ``por.*`` counter snapshot; also emitted on ``tracer`` as a
        single ``por.stats`` counter event when tracing is enabled."""
        stats = {
            "por.ample_hits": self.ample_hits,
            "por.ample_deferred": self.ample_deferred,
            "por.full_expansions": self.full_expansions,
            "por.ample_probes": self.ample_probes,
            "por.thread_canon_misses": self.thread_canon_misses,
            "por.global_canon_misses": self.global_canon_misses,
            "por.g_cache_size": len(self._globals),
            "por.l_cache_size": len(self._threads),
            "por.canon_decodes": self.canon_decodes,
            "por.canon_cache_size": len(self._canon_cache),
            "por.symmetry_perms": len(self.perms),
        }
        tracer = tracer or self.tracer
        if tracer.enabled:
            tracer.counter(
                "por.stats", CAT_POR, {k: float(v) for k, v in stats.items()}
            )
        return stats
