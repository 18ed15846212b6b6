"""Bank accounts — the classic transactional workload (used by examples
and the E2/E3 benchmarks as a "realistic scenario" with *conditional*
commutativity).

State is a map ``account ↦ balance`` (missing accounts have balance 0;
balances never go negative).  Methods:

* ``deposit(a, k) -> None`` (``k > 0``)
* ``withdraw(a, k) -> bool`` — ``True`` iff the balance covered ``k``
  (partial withdrawals do not happen);
* ``balance(a) -> n``.

Commutativity here is the paper's motivating *abstract-level* conflict
notion: two successful withdrawals commute (success implies both orders
succeed), deposits always commute, but a *failed* withdrawal conflicts
with deposits — which only an abstract (boosting-style) TM can exploit,
while a read/write STM sees every pair as a conflict on the balance word.

Mover decision procedure
------------------------
Every method reads and writes only its own account ``a = args[0]``, and
acts on that balance as a translation (``deposit``/``withdraw``) or a
test (``withdraw``'s guard, ``balance``'s return).  So a swap
``op1·op2`` vs ``op2·op1`` holds at a state iff it holds on each account's
projection, other accounts are untouched by both orders, and only the
amounts on account ``a`` bound the balances of ``a`` that can tell the
orders apart.  Per mentioned account, the relevant balances are every
partial sum of the amounts and observed balances *of the ops mentioning
that account*, offset by ±1 and by each other partial sum (boundary
cases), clipped at 0.  :meth:`BankSpec.mover_states` takes the product
of those per-account lists: a same-account pair gets the full
two-amount list on one account; a distinct-account pair gets at most
5 × 5 states (one amount per account).

State representation
--------------------
A state is the tuple ``((account, balance), ...)`` of non-zero balances,
sorted by :func:`_order` (ints before strs, each by value), so int and
str accounts can share one state while a single-type state keeps the
bytes plain tuple sorting gives it.  :meth:`BankSpec.perform` updates
that tuple by binary search and one splice.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Iterable, List, Tuple

from repro.core.errors import SpecError
from repro.core.ops import Op
from repro.core.spec import StateSpec

State = Tuple[Tuple[Any, int], ...]


def _order(account: Any) -> Tuple[bool, Any]:
    """Sort key of an account: ints before strs, each by value."""
    return (isinstance(account, str), account)


def _freeze(mapping: dict) -> State:
    return tuple(
        sorted(
            ((k, v) for k, v in mapping.items() if v != 0),
            key=lambda kv: _order(kv[0]),
        )
    )


def _find(state: State, account: Any) -> int:
    """Index of ``account`` in ``state``, or where it would be inserted
    (``bisect(key=)`` needs Python 3.10)."""
    # _order inlined: this runs on every perform
    is_str = isinstance(account, str)
    lo, hi = 0, len(state)
    while lo < hi:
        mid = (lo + hi) // 2
        key = state[mid][0]
        if isinstance(key, str) == is_str:
            before = key < account
        else:
            before = is_str  # an int sorts before a str
        if before:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _relevant_balances(amounts: List[int]) -> List[int]:
    """The balances of one account that can tell the two orders of a
    pair apart, from the amounts of the ops on that account — one entry
    per op, not a set: when both ops mention the same amount (e.g.
    withdraw(a, 2) vs balance(a) -> 2) the partial sums must still reach
    2+2=4; deduping once made the oracle miss the state where the swap
    fails."""
    sums = {0}
    for a in amounts:
        sums |= {s + a for s in sums}
    return sorted(
        {max(0, s + d) for s in sums for d in (-1, 0, 1)}
        | {max(0, s1 - s2) for s1 in sums for s2 in sums}
    )


class BankSpec(StateSpec):
    """Bank accounts with non-negative integer balances."""

    def __init__(self, initial: Iterable[Tuple[Any, int]] = ()):
        self.initial = _freeze(dict(initial))

    def initial_state(self) -> State:
        return self.initial

    def perform(self, state, method: str, args: Tuple) -> Tuple[Any, Any]:
        if method == "balance":
            (account,) = args
            i = _find(state, account)
            if i < len(state) and state[i][0] == account:
                return state[i][1], state
            return 0, state
        if method != "deposit" and method != "withdraw":
            raise SpecError(f"BankSpec has no method {method!r}")
        account, amount = args
        if amount <= 0:
            raise SpecError(f"{method} amount must be positive")
        i = _find(state, account)
        found = i < len(state) and state[i][0] == account
        old = state[i][1] if found else 0
        if method == "deposit":
            ret, new = None, old + amount
        elif old >= amount:
            ret, new = True, old - amount
        else:
            return False, state
        if found:
            # keep the stored key object, as a dict update would
            account = state[i][0]
        entry = ((account, new),) if new != 0 else ()
        return ret, state[:i] + entry + state[i + 1 if found else i:]

    def mover_states(self, op1: Op, op2: Op) -> List[State]:
        amounts: dict = {}
        for op in (op1, op2):
            mentioned = amounts.setdefault(op.args[0], [])
            if op.method in ("deposit", "withdraw"):
                mentioned.append(op.args[1])
            elif op.method == "balance":
                mentioned.append(op.ret)
        accounts = sorted(amounts, key=_order)
        return [
            tuple((a, v) for a, v in zip(accounts, balances) if v != 0)
            for balances in product(
                *(_relevant_balances(amounts[a]) for a in accounts)
            )
        ]

    # -- driver metadata ---------------------------------------------------------

    def footprint(self, method: str, args) -> frozenset:
        return frozenset({("account", args[0])})

    def is_mutator(self, method: str) -> bool:
        return method in ("deposit", "withdraw")

    def call_commutes(self, method: str, args, op) -> bool:
        """Deposits to the same account always commute (they are
        translations); everything else needs disjoint accounts."""
        if self.footprint(method, args).isdisjoint(self.op_footprint(op)):
            return True
        return method == "deposit" and op.method == "deposit"

    def probe_ops(self) -> Iterable[Op]:
        from repro.core.ops import make_op

        return (
            make_op("deposit", ("p", 1), None),
            make_op("withdraw", ("p", 1), True),
            make_op("withdraw", ("p", 1), False),
            make_op("balance", ("p",), 0),
        )
