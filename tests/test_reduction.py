"""Soundness tests for the mover-guided partial-order reduction.

The load-bearing property is *witness preservation*: the reduced
exploration must report exactly the verdicts and (payload-level)
violation witnesses of the full one, on correct scopes and on scopes
with known violations alike.  The hypothesis property pins the
mechanism that makes this true — the canonical representative of a
state is reachable from the state via both-mover adjacent swaps only,
so pruned states never differ observably from the one explored.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking import explore, model_checker, verdict_fingerprint
from repro.checking.model_checker import ExploreOptions
from repro.checking.reduction import Reducer, _candidate_rank, _symmetry_perms
from repro.cli import SCOPES
from repro.core.language import call, tx
from repro.core.packed import decode_node_key, encode_state_key
from repro.core.precongruence import trace_normal_form
from repro.specs import CounterSpec, KVMapSpec


# Counter payload rows (method, args, ret): inc/dec commute with each
# other; get commutes with neither.
_ROWS = [
    ("inc", (), None),
    ("dec", (), None),
    ("get", (), 0),
    ("get", (), 1),
]

rows_lists = st.lists(st.sampled_from(_ROWS), min_size=0, max_size=7)


def _reducer():
    return Reducer(CounterSpec(), programs=(), symmetry=False)


def _swap_reachable(source, target, commutes):
    """True iff ``target`` can be produced from ``source`` using only
    adjacent swaps of commuting elements (selection-sort argument: bring
    each target element to its position; every element it hops over must
    commute with it)."""
    work = list(source)
    for position, wanted in enumerate(target):
        try:
            at = work.index(wanted, position)
        except ValueError:
            return False
        for hop in range(at, position, -1):
            if not commutes(work[hop - 1], work[hop]):
                return False
            work[hop - 1], work[hop] = work[hop], work[hop - 1]
    return work == list(target)


@settings(max_examples=200, deadline=None)
@given(rows_lists)
def test_normal_form_reachable_via_both_mover_swaps(rows):
    """The representative the reduction keeps is connected to every
    pruned state by both-mover swaps alone — no observable difference
    is ever pruned away."""
    reducer = _reducer()
    normal = trace_normal_form(
        tuple(rows), reducer._rows_commute, repr
    )
    assert sorted(map(repr, normal)) == sorted(map(repr, rows))
    assert _swap_reachable(tuple(rows), normal, reducer._rows_commute)


@settings(max_examples=200, deadline=None)
@given(rows_lists, st.data())
def test_canonical_invariant_under_both_mover_swap(rows, data):
    """Swapping any adjacent both-mover pair lands in the same trace
    class: both orders canonicalize identically (this is what makes the
    seen-set quotient collapse them to one explored state)."""
    reducer = _reducer()
    swappable = [
        i for i in range(len(rows) - 1)
        if reducer._rows_commute(rows[i], rows[i + 1])
    ]
    if not swappable:
        return
    i = data.draw(st.sampled_from(swappable))
    swapped = list(rows)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    canon = lambda r: trace_normal_form(tuple(r), reducer._rows_commute, repr)
    assert canon(rows) == canon(swapped)


def test_non_movers_never_reordered():
    reducer = _reducer()
    get, inc = ("get", (), 0), ("inc", (), None)
    assert not reducer._rows_commute(get, inc)
    normal = trace_normal_form(
        (get, inc), reducer._rows_commute, repr
    )
    assert normal == (get, inc)


def test_symmetry_perms_respect_program_identity():
    p = tx(call("inc"))
    q = tx(call("dec"))
    # Three identical programs: 3! - 1 non-trivial permutations.
    assert len(_symmetry_perms([(0, p), (1, p), (2, p)])) == 5
    # Distinct programs are not interchangeable.
    assert _symmetry_perms([(0, p), (1, q)]) == []
    # Mixed: only the identical pair swaps.
    perms = _symmetry_perms([(0, p), (1, q), (2, p)])
    assert perms == [{0: 2, 2: 0}]


def test_por_and_full_exploration_agree_on_registry_scopes():
    """The CI verdict-identity gate in miniature: same verdict and same
    payload-level witnesses with the reduction on and off, and the
    reduction never *adds* states."""
    for name, (spec_cls, programs) in SCOPES.items():
        if name == "counter-sym":
            continue  # full exploration takes seconds; covered below
        on = explore(
            spec_cls(), programs, ExploreOptions(max_states=400_000, por=True)
        )
        off = explore(
            spec_cls(), programs, ExploreOptions(max_states=400_000, por=False)
        )
        assert verdict_fingerprint(on) == verdict_fingerprint(off), name
        assert on.states <= off.states, name
        # Terminal *classes*, not raw terminals: the quotient merges
        # commit-order and trace-equivalent finals, so the reduced count
        # may be smaller but never zero when the full run terminates.
        assert 0 < on.final_states <= off.final_states, name


def test_symmetry_quotient_reduces_identical_program_scope():
    spec_cls, programs = SCOPES["counter-sym"]
    on = explore(
        spec_cls(), programs, ExploreOptions(max_states=400_000, por=True)
    )
    # Forward-only full run keeps the comparison cheap; the committed
    # BENCH_por.json holds the full 61.7x figure.
    assert on.ok
    assert on.ample_hits > 0
    no_sym = explore(
        spec_cls(),
        programs,
        ExploreOptions(max_states=400_000, por=True, por_symmetry=False),
    )
    assert no_sym.states > on.states
    assert verdict_fingerprint(no_sym) == verdict_fingerprint(on)


def test_known_violation_scope_keeps_its_witnesses_with_por():
    """Regression: a scope with a *known* violation (gray-zone criteria
    disabled lets a doomed get/dec interleaving through) must report the
    identical witness set with POR on — a reduction that hides or
    rewrites witnesses is unsound."""
    programs = [tx(call("get"), call("dec")), tx(call("inc"))]
    base = dict(max_states=400_000, check_gray_criteria=False)
    on = explore(CounterSpec(), programs, ExploreOptions(**base, por=True))
    off = explore(CounterSpec(), programs, ExploreOptions(**base, por=False))
    assert not off.ok, "scope is supposed to violate without gray criteria"
    assert not on.ok
    assert verdict_fingerprint(on) == verdict_fingerprint(off)


# ---------------------------------------------------------------------------
# The packed canonicalizer against the decode → normalize → encode reference
# ---------------------------------------------------------------------------

#: The modelcheck benchmark's six scopes: the ``repro modelcheck`` registry
#: plus a three-thread kvmap scope (put a ‖ put b ‖ get a).
BENCH_SCOPES = {
    **SCOPES,
    "kvmap-3": (
        KVMapSpec,
        [tx(call("put", "a", 1)), tx(call("put", "b", 2)), tx(call("get", "a"))],
    ),
}


def _reference_canonical(reducer, nkey):
    """The canonical key by whole-key decode → normalize → encode: decode
    the node key, bring each thread's local rows and G's ``(row, owner)``
    sequence to their trace normal forms, minimize over the symmetry
    permutations by ``repr`` and encode the winner.  The specification
    :meth:`Reducer.canonical`'s cached, component-wise path must match
    byte for byte."""

    def canon_global(rows, owners):
        items = trace_normal_form(
            tuple(zip(rows, owners)),
            lambda a, b: reducer._rows_commute(a[0][:3], b[0][:3]),
            repr,
        )
        if not items:
            return (), ()
        crows, cowners = zip(*items)
        return tuple(crows), tuple(cowners)

    (tkeys, rows, owners), committed = decode_node_key(nkey)
    tkeys = tuple(
        (tid, code, stack, trace_normal_form(frows, reducer._local_rows_commute, repr))
        for tid, code, stack, frows in tkeys
    )
    rows, owners = canon_global(rows, tuple(owners))
    committed = tuple(sorted(committed))
    best = ((tkeys, rows, owners), committed)
    for perm in reducer.perms:
        ptkeys = tuple(
            sorted(((perm.get(tk[0], tk[0]),) + tk[1:] for tk in tkeys), key=lambda t: t[0])
        )
        prows, powners = canon_global(rows, tuple(perm.get(o, o) for o in owners))
        pcommitted = tuple(sorted(perm.get(t, t) for t in committed))
        cand = ((ptkeys, prows, powners), pcommitted)
        if repr(cand) < repr(best):
            best = cand
    skey, committed = best
    return (encode_state_key(skey), committed)


class _SpyReducer(Reducer):
    """A :class:`Reducer` that records itself and every
    ``(node key, canonical key)`` pair :meth:`canonical` returns."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []
        _SpyReducer.made.append(self)

    def canonical(self, nkey):
        got = super().canonical(nkey)
        self.calls.append((nkey, got))
        return got


def _explore_spied(monkeypatch, spec_cls, programs, **options):
    """Explore with POR on (the ``repro modelcheck`` defaults plus
    ``options``) and return the exploration's reducer."""
    monkeypatch.setattr(model_checker, "Reducer", _SpyReducer)
    _SpyReducer.made = []
    explore(spec_cls(), programs, ExploreOptions(max_states=400_000, por=True, **options))
    (reducer,) = _SpyReducer.made
    return reducer


@pytest.mark.parametrize(
    "name,symmetry",
    [(name, True) for name in sorted(BENCH_SCOPES)] + [("counter-sym", False)],
)
def test_canonical_keys_match_whole_key_reference(monkeypatch, name, symmetry):
    """Every key :meth:`Reducer.canonical` hands the checker while
    exploring a benchmark scope is byte-identical to the whole-key
    decode → normalize → encode reference, with the symmetry quotient on
    and off (only ``counter-sym`` has interchangeable threads, so it is
    the one scope whose exploration the switch changes)."""
    spec_cls, programs = BENCH_SCOPES[name]
    reducer = _explore_spied(monkeypatch, spec_cls, programs, por_symmetry=symmetry)
    assert reducer.calls
    assert bool(reducer.perms) == (symmetry and name == "counter-sym")
    reference = {}
    for nkey, got in reducer.calls:
        if nkey not in reference:
            reference[nkey] = _reference_canonical(reducer, nkey)
        assert got == reference[nkey], (name, nkey)


@pytest.mark.parametrize("threads", [0, 1, 2, 3])
@pytest.mark.parametrize("committed", [(), (1,), (0, 2)])
def test_candidate_rank_is_the_candidate_repr(threads, committed):
    """The symmetry ranking string assembled from component reprs is
    exactly ``repr`` of the decoded candidate, including the one-element
    tuple's trailing comma."""
    code = tx(call("inc"))
    forms = tuple(
        (tid, code, None, (("inc", (), None, "pld"),) * tid) for tid in range(threads)
    )
    rows, owners = (("inc", (), None, True), ("get", (), 1, False)), (-1, 2)
    assert _candidate_rank(
        [repr(form) for form in forms], f"{rows!r}, {owners!r}", committed
    ) == repr(((forms, rows, owners), committed))


#: ``por.canon_decodes`` (front-cache misses) per benchmark scope, with the
#: defaults: the whole-key decoder's figures, which the cached path keeps.
CANON_DECODES = {
    "mem-ww": 64,
    "mem-wrw": 284,
    "counter": 574,
    "kvmap-branch": 1161,
    "counter-sym": 1758,
    "kvmap-3": 13828,
}


def test_component_caches_decode_each_input_once(monkeypatch):
    """Timing-free gate on the canonical and ample paths over the six
    benchmark scopes.

    Before the byte-keyed component caches, one verification decoded
    thread keys 48,092 times and global logs 17,669 times, and the ample
    probe ran ``Machine.any_enabled`` 26,245 times.  Now each distinct
    packed thread key and each distinct packed ``(G, owner row)`` pair is
    decoded exactly once (miss counter = cache size), and the probe runs
    once per distinct thread configuration: 357 thread decodes, 150
    global decodes (142 raw pairs plus 8 permuted-owner candidates of
    ``counter-sym``) and 2,063 ``any_enabled`` runs in all.  The front
    cache still misses once per distinct raw node key, exactly as before.
    """
    totals = {"por.thread_canon_misses": 0, "por.global_canon_misses": 0,
              "por.ample_probes": 0}
    for name, (spec_cls, programs) in BENCH_SCOPES.items():
        reducer = _explore_spied(monkeypatch, spec_cls, programs)
        stats = reducer.emit_stats()
        assert stats["por.thread_canon_misses"] == stats["por.l_cache_size"], name
        assert stats["por.global_canon_misses"] == stats["por.g_cache_size"], name
        assert stats["por.canon_decodes"] == stats["por.canon_cache_size"], name
        assert stats["por.canon_decodes"] == CANON_DECODES[name], name
        for key in totals:
            totals[key] += stats[key]
    assert totals["por.thread_canon_misses"] <= 357, totals
    assert totals["por.global_canon_misses"] <= 150, totals
    assert totals["por.ample_probes"] <= 2063, totals
