"""The fuzzer's coverage map.

Coverage here is *semantic*, not line-based: a point of coverage is one
``(strategy, rule, criterion-outcome)`` triple — "TL2 had PUSH refused
under criterion (iii)" is a different point from "TL2 had PUSH succeed" —
plus the structured abort kinds (``(strategy, "abort", kind)``) and fired
fault kinds (``(strategy, "fault", kind)``).  The raw signal is the
tracer's existing event stream: the machine's traced rule application
(:meth:`~repro.core.machine.Machine.apply`) already emits a
``criterion``-category ``{RULE}.check`` instant for every rule
application, pass or violation, and the stepper emits ``tx.abort``
instants carrying the structured :class:`~repro.core.errors.AbortKind`.
The fuzzer adds **no** instrumentation of its own — it reads the map the
observability layer has provided since PR 1.

A mutated corpus entry is admitted only if running it lights a triple the
corpus has never lit (see :mod:`repro.fuzz.engine`); the committed
expectation file ``tests/corpus/expected_coverage.json`` ratchets the
triples the seed corpus must keep exercising.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.obs.tracer import CAT_CRITERION, CAT_TX, TraceEvent

#: one coverage point: (strategy, rule-or-"abort"-or-"fault", outcome)
CoverageKey = Tuple[str, str, str]

#: joins the triple into the flat form used in JSON files and messages
SEPARATOR = "|"


def key_to_str(key: CoverageKey) -> str:
    return SEPARATOR.join(key)


def key_from_str(text: str) -> CoverageKey:
    strategy, rule, outcome = text.split(SEPARATOR, 2)
    return (strategy, rule, outcome)


def coverage_from_events(
    strategy: str,
    events: Sequence[TraceEvent],
    injected: Dict[str, int] = None,
) -> Set[CoverageKey]:
    """Extract the coverage points one traced run produced.

    * ``criterion`` events named ``{RULE}.check`` become
      ``(strategy, RULE, "ok")`` or ``(strategy, RULE,
      "violated({numeral})")``;
    * ``tx.abort`` instants become ``(strategy, "abort", kind)``;
    * ``injected`` (a :class:`~repro.faults.plan.FaultInjector`'s stats
      counter) contributes ``(strategy, "fault", kind)`` per fired kind.
    """
    keys: Set[CoverageKey] = set()
    for event in events:
        if event.cat == CAT_CRITERION and event.name.endswith(".check"):
            rule = event.name[: -len(".check")]
            if event.args.get("ok"):
                keys.add((strategy, rule, "ok"))
            else:
                numeral = event.args.get("criterion", "?")
                keys.add((strategy, rule, f"violated({numeral})"))
        elif event.cat == CAT_TX and event.name == "tx.abort":
            kind = event.args.get("kind")
            if kind is not None:
                keys.add((strategy, "abort", str(kind)))
    for stat, count in (injected or {}).items():
        prefix = "fault.injected."
        if stat.startswith(prefix) and count > 0:
            keys.add((strategy, "fault", stat[len(prefix):]))
    return keys


class CoverageMap:
    """The accumulated coverage of a fuzzing session.

    A plain set of :data:`CoverageKey` triples with merge bookkeeping:
    :meth:`add` returns the *new* keys, which is the corpus-admission
    signal the engine keys on.
    """

    def __init__(self, keys: Iterable[CoverageKey] = ()) -> None:
        self._keys: Set[CoverageKey] = set(keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: CoverageKey) -> bool:
        return key in self._keys

    @property
    def keys(self) -> Set[CoverageKey]:
        return set(self._keys)

    def add(self, keys: Iterable[CoverageKey]) -> Set[CoverageKey]:
        """Merge ``keys``; return the subset that was genuinely new."""
        fresh = set(keys) - self._keys
        self._keys |= fresh
        return fresh

    def missing(self, expected: Iterable[CoverageKey]) -> List[CoverageKey]:
        """Expected points never exercised, sorted for stable reporting."""
        return sorted(set(expected) - self._keys)

    def by_strategy(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for strategy, _, _ in self._keys:
            out[strategy] = out.get(strategy, 0) + 1
        return out

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "points": len(self._keys),
            "by_strategy": dict(sorted(self.by_strategy().items())),
            "keys": sorted(key_to_str(k) for k in self._keys),
        }

    @staticmethod
    def from_dict(data: Dict) -> "CoverageMap":
        return CoverageMap(key_from_str(text) for text in data.get("keys", ()))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @staticmethod
    def read(path: str) -> "CoverageMap":
        with open(path, "r", encoding="utf-8") as handle:
            return CoverageMap.from_dict(json.load(handle))

    # -- obs-layer export ----------------------------------------------------

    def to_events(self) -> List[TraceEvent]:
        """The map as ``fuzz.coverage.*`` counter events, so the standard
        exporters (:func:`repro.obs.write_jsonl`,
        :func:`repro.obs.summary_table`) can render a coverage summary
        with no new export path."""
        from repro.obs.tracer import PH_COUNTER

        per_strategy: Dict[str, Dict[str, float]] = {}
        for strategy, rule, outcome in sorted(self._keys):
            per_strategy.setdefault(strategy, {})[f"{rule}:{outcome}"] = 1.0
        return [
            TraceEvent(
                name=f"fuzz.coverage.{strategy}",
                cat="fuzz",
                ph=PH_COUNTER,
                ts=0.0,
                args=values,
            )
            for strategy, values in sorted(per_strategy.items())
        ]
