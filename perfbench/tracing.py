"""Outside-in tracing: timing wrappers installed around public functions
of the program's modules, from the benchmark's own files.

Nothing in ``src/`` is edited.  :func:`install` replaces each target
attribute (a class method or a module function, rebound in every
``repro`` module that imported it by name) with a timing wrapper that
feeds a :class:`Recorder`: spans kept in memory, with their parent, self
time and an optional count measured at the same boundary (log entries
scanned, states enumerated), written out once, when the traced process
ends.

Coroutine targets (the gateway's frame reader/writer) are timed per
resume step, so a span covers the CPU the coroutine used and never the
time it sat waiting on the socket.  The event loop's ``select`` is
recorded as ``loop.idle``; busy time is the window minus idle time.
"""

from __future__ import annotations

import functools
import importlib
import json
import selectors
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: a recorded span: ``(name, start, end, parent, value, self_s, rolled)``;
#: ``parent`` is the index of the enclosing recorded span (``-1`` at top
#: level) and ``rolled`` sums the unrecorded calls beneath it as
#: ``{name: [calls, total_s, self_s, value_sum, value_count]}`` (or None)
Span = Tuple[str, float, float, int, Any, float, Optional[Dict[str, list]]]

# frame slots (one list per active call)
_NAME, _START, _CHILD, _INDEX, _ROLE, _MISSED, _ROLLED = range(7)


def _rolled_row(owner: list, label: str) -> list:
    """The ``[calls, total_s, self_s, value_sum, value_count]`` row that
    sums ``label`` calls into the recorded frame ``owner``."""
    if owner[_ROLLED] is None:
        owner[_ROLLED] = {}
    row = owner[_ROLLED].get(label)
    if row is None:
        row = owner[_ROLLED][label] = [0, 0.0, 0.0, 0, 0]
    return row


class Recorder:
    """Span sink shared by every wrapper in one process.

    Targets marked ``record`` (and any call with no recorded ancestor)
    become spans of their own, with timestamps.  The many small calls
    beneath them (rule applications, spec oracles) are summed into their
    nearest recorded ancestor instead, which keeps a long traced run's
    memory and output bounded while self time stays exact: every call's
    duration is charged to its direct caller's child time."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[list] = []
        #: the recorded frames among ``_stack``, innermost last
        self._owners: List[list] = []

    def _open(self, label: str, record: bool, role: Optional[str]) -> list:
        index = None
        if record or not self._owners:
            index = len(self.spans)
            self.spans.append(None)
        frame = [label, 0.0, 0.0, index, role, False, None]
        self._stack.append(frame)
        if index is not None:
            self._owners.append(frame)
        return frame

    def _close(self, frame: list, end: float, value: Any) -> None:
        stack, owners = self._stack, self._owners
        stack.pop()
        label, start, child, index, role, missed, rolled = frame
        if index is not None:
            owners.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[_CHILD] += duration
            if role == "oracle" and parent[_ROLE] == "lookup":
                parent[_MISSED] = True
        if role == "lookup":
            if parent is not None and parent[_ROLE] == "lookup":
                # a pid lookup re-entering the op lookup is one lookup
                parent[_MISSED] = parent[_MISSED] or missed
                return
            value = int(missed)
        if index is not None:
            owner = owners[-1][_INDEX] if owners else -1
            self.spans[index] = (label, start, end, owner, value, duration - child, rolled)
            return
        row = _rolled_row(owners[-1], label)
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        if value is not None:
            row[3] = add_values(row[3], value) if row[4] else value
            row[4] += 1

    def wrap(self, fn: Callable, target: "Target") -> Callable:
        name, name_of, measure = target.span, target.name_of, target.measure
        record, role = target.record, target.role
        if target.count_only:
            return self._counter(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name if name_of is None else name_of(args), record, role)
            value = None
            frame[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, result)
                return result
            finally:
                self._close(frame, perf_counter(), value)

        return wrapper

    def _counter(self, fn: Callable, name: str) -> Callable:
        owners = self._owners

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if owners:
                _rolled_row(owners[-1], name)[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap_coroutine(self, fn: Callable, target: "Target") -> Callable:
        """Each resume step of the coroutine becomes one recorded span."""
        name = target.span

        @types.coroutine
        def drive(coro):
            send_value, error = None, None
            while True:
                frame = self._open(name, True, None)
                frame[_START] = perf_counter()
                try:
                    if error is None:
                        yielded = coro.send(send_value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    self._close(frame, perf_counter(), None)
                    return stop.value
                except BaseException:
                    self._close(frame, perf_counter(), None)
                    raise
                self._close(frame, perf_counter(), None)
                try:
                    send_value, error = (yield yielded), None
                except BaseException as exc:  # delivered into the coroutine
                    send_value, error = None, exc

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            return await drive(fn(*args, **kwargs))

        return wrapper

    def time_idle(self) -> None:
        """Record the event loop's waits in ``select`` as ``loop.idle``."""
        selector_cls = type(selectors.DefaultSelector())
        original = selector_cls.select
        spans = self.spans

        def select(selector, timeout=None):
            start = perf_counter()
            try:
                return original(selector, timeout)
            finally:
                end = perf_counter()
                spans.append(("loop.idle", start, end, -1, None, end - start, None))

        selector_cls.select = select

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        names: Dict[str, int] = {}
        rows = []
        for span in self.spans:
            if span is None:  # still open when the process ended
                continue
            label, *rest = span
            rows.append([names.setdefault(label, len(names)), *rest])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": list(names), "spans": rows, "extra": extra}, handle)


def add_values(a: Any, b: Any) -> Any:
    """Sum two measured values: numbers, or lists of numbers elementwise."""
    if isinstance(b, list):
        return [x + y for x, y in zip(a, b)]
    return a + b


def load_spans(path: str) -> Tuple[List[Span], Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    names = doc["names"]
    spans = [(names[code], *rest) for code, *rest in doc["spans"]]
    return spans, doc["extra"]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``qualname`` inside ``module`` (``Class.method``
    or a module-level function), recorded as ``span``."""

    module: str
    qualname: str
    span: str
    #: span name computed from the call's arguments (overrides ``span``)
    name_of: Optional[Callable[[tuple], str]] = None
    #: count taken from ``(args, result)`` after a successful call
    measure: Optional[Callable[[tuple, Any], Any]] = None
    coroutine: bool = False
    #: a span of its own (else summed into the nearest recorded caller)
    record: bool = False
    #: count calls into the nearest recorded caller without timing them
    #: (for calls too small and too many to time without distorting)
    count_only: bool = False
    #: ``"lookup"`` for the mover memo, ``"oracle"`` for what it caches:
    #: a lookup with an oracle call beneath it is a miss
    role: Optional[str] = None


def install(recorder: Recorder, targets: Sequence[Target]) -> None:
    for target in targets:
        module = importlib.import_module(target.module)
        owner: Any = module
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrap = recorder.wrap_coroutine if target.coroutine else recorder.wrap
        wrapped = wrap(original, target)
        setattr(owner, attr, wrapped)
        if owner is module:
            # ``from module import fn`` copies: rebind those too.
            for name, other in list(sys.modules.items()):
                if name.startswith("repro") and other is not None:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)


# -- the targets ---------------------------------------------------------------

_UNDO = {"unapp": "undo", "unpush": "undo", "unpull": "undo"}


def _rule_span(args: tuple) -> str:
    rule = args[1]
    return "machine." + _UNDO.get(rule, rule)


def _sync_span(args: tuple) -> str:
    # ``sync`` with nothing buffered returns at once; keep it apart so the
    # fsync percentiles describe real group commits.
    return "durable.sync" if args[0].unsynced_records else "durable.sync.empty"


def _wave_value(args: tuple, outcomes) -> list:
    """``[transactions in the wave, transactions requeued]``."""
    return [len(args[1]), sum(1 for o in outcomes if o.retry)]


def _state_count(args: tuple, states) -> Optional[int]:
    # Only sized results: consuming a generator here would change the
    # oracle's short-circuit behaviour.
    return len(states) if isinstance(states, (list, tuple)) else None


def _spec_targets() -> List[Target]:
    """Leaf spec oracles: the memo wrapper, the oracle, its state sets and
    ``perform`` of every component the serve product and the scopes use."""
    targets = [
        Target("repro.core.spec", "MemoizedMovers.left_mover", "spec.memo.lookup", role="lookup"),
        Target("repro.core.spec", "MemoizedMovers.left_mover_pid", "spec.memo.lookup",
               role="lookup"),
        Target("repro.core.spec", "MemoizedMovers.commutes", "spec.memo.lookup", role="lookup"),
        Target("repro.core.spec", "MemoizedMovers.commutes_pid", "spec.memo.lookup",
               role="lookup"),
        Target("repro.core.spec", "StateSpec.left_mover", "spec.left_mover", role="oracle"),
        Target("repro.core.spec", "StateSpec.commutes", "spec.commutes", role="oracle"),
        Target("repro.specs.product", "ProductSpec.left_mover", "spec.product.mover",
               role="oracle"),
        Target("repro.specs.product", "ProductSpec.commutes", "spec.product.mover",
               role="oracle"),
    ]
    for module, cls in (
        ("repro.specs.kvmap", "KVMapSpec"),
        ("repro.specs.bank", "BankSpec"),
        ("repro.specs.counter", "CounterSpec"),
        ("repro.specs.queuespec", "QueueSpec"),
        ("repro.specs.memory", "MemorySpec"),
    ):
        targets.append(Target(module, f"{cls}.mover_states", "spec.mover_states",
                              measure=_state_count))
        targets.append(Target(module, f"{cls}.perform", "spec.perform", count_only=True))
    return targets


def serve_targets() -> List[Target]:
    """Targets for the ``repro serve`` daemon process."""
    importlib.import_module("repro.serve.daemon")
    importlib.import_module("repro.durable.recovery")
    return [
        Target("repro.serve.framing", "read_frame", "gateway.frame", coroutine=True),
        Target("repro.serve.framing", "write_frame", "gateway.frame", coroutine=True),
        Target("repro.serve.shard", "handle_shard_request", "shard.request", record=True),
        Target("repro.serve.shard", "ShardState.execute_wave", "shard.wave",
               measure=_wave_value, record=True),
        Target("repro.serve.shard", "ShardState.prepare", "shard.2pc.prepare", record=True),
        Target("repro.serve.shard", "ShardState.commit_prepared", "shard.2pc.commit",
               record=True),
        Target("repro.serve.shard", "ShardState.abort_prepared", "shard.2pc.abort",
               record=True),
        Target("repro.serve.shard", "ShardState.maybe_checkpoint", "shard.checkpoint",
               record=True),
        Target("repro.tm.base", "Runtime.apply", "machine.rule", name_of=_rule_span),
        Target("repro.tm.base", "Runtime.relevant_committed", "tm.relevant",
               measure=lambda args, ops: [len(args[0].machine.global_log), len(ops)]),
        Target("repro.faults.conformance", "conformance_failures", "conformance.check",
               record=True),
        Target("repro.durable.store", "SegmentStore.sync", "durable.sync",
               name_of=_sync_span, record=True),
        Target("repro.durable.store", "SegmentStore.append", "durable.append"),
        Target("repro.durable.store", "SegmentStore.write_snapshot", "durable.snapshot",
               record=True),
    ] + _spec_targets()


def modelcheck_targets() -> List[Target]:
    """Targets for a model-checking process."""
    return [
        Target("repro.core.machine", "Machine.successor_keys", "mc.successor_keys"),
        Target("repro.checking.reduction", "Reducer.canonical", "mc.canonical"),
        Target("repro.checking.reduction", "Reducer.ample_tid", "mc.ample"),
    ] + _spec_targets()


# -- analysis ------------------------------------------------------------------


@dataclass
class Layer:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    #: sum of the measured values (elementwise for list values)
    value_sum: Any = 0
    value_count: int = 0
    #: durations of the recorded spans (rolled-up calls have none)
    durations: List[float] = field(default_factory=list)
    #: measured values of the recorded spans
    values: List[Any] = field(default_factory=list)


def summarize(spans: Sequence[Span], start: float, end: float) -> Dict[str, Layer]:
    """Per name: calls, total and self seconds, and measured values, over
    the recorded spans that lie wholly inside ``[start, end]`` and the
    calls rolled up into them."""
    layers: Dict[str, Layer] = {}
    for label, s, e, _parent, value, self_s, rolled in spans:
        if s < start or e > end:
            continue
        layer = layers.setdefault(label, Layer())
        layer.calls += 1
        layer.total += e - s
        layer.self_time += self_s
        layer.durations.append(e - s)
        if value is not None:
            layer.values.append(value)
            layer.value_sum = add_values(layer.value_sum, value) if layer.value_count else value
            layer.value_count += 1
        for name, (calls, total, self_total, value_sum, value_count) in (rolled or {}).items():
            layer = layers.setdefault(name, Layer())
            layer.calls += calls
            layer.total += total
            layer.self_time += self_total
            if value_count:
                layer.value_sum = (add_values(layer.value_sum, value_sum)
                                   if layer.value_count else value_sum)
                layer.value_count += value_count
    return layers


def top_level_time(spans: Sequence[Span], start: float, end: float,
                   exclude: Sequence[str] = ("loop.idle",)) -> float:
    """Seconds of ``[start, end]`` covered by top-level spans other than
    ``exclude`` (top-level spans never overlap: one thread runs them)."""
    covered = 0.0
    for label, s, e, parent, *_rest in spans:
        if parent < 0 and label not in exclude:
            covered += max(0.0, min(e, end) - max(s, start))
    return covered


def attribution(layers: Dict[str, Layer], busy_s: float) -> str:
    """Self time per layer as a share of ``busy_s``, largest first."""
    rows = sorted(((layer.self_time, name, layer) for name, layer in layers.items()
                   if name != "loop.idle" and layer.total > 0), reverse=True)
    lines = [f"{'layer':<24} {'calls':>9} {'total ms':>10} {'self ms':>10} {'self share':>10}"]
    for self_s, name, layer in rows:
        lines.append(f"{name:<24} {layer.calls:>9} {layer.total * 1e3:>10.1f} "
                     f"{self_s * 1e3:>10.1f} {self_s / busy_s:>10.1%}")
    return "\n".join(lines)
