"""Determinism-hazard rules, scoped to the engine packages
(``simulation``, ``core``, ``scenarios``, ``nn``).

Anything that can change a trajectory between two runs of the same seed
— wall clocks, OS entropy, memory addresses, unordered iteration — is
banned where engine state is computed. Reporting/CLI layers are out of
scope (printing a timestamp is harmless; feeding one into a gossip
schedule is not).

The wall-clock rule additionally covers the ``serve`` package: the
daemon sits directly above the engine and promises byte-identical
artifacts, so every real-clock read there must be an explicitly
suppressed, justified call site (queueing timestamps and scrape-time
rates — never anything a cell's trajectory derives from).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import ImportMap
from ..finding import Finding
from ..rule import FileContext, Rule, register

#: packages whose files these rules apply to (by directory name, so
#: fixture trees scope exactly like src/repro)
ENGINE_PACKAGES = frozenset({"simulation", "core", "scenarios", "nn"})

#: the wall-clock rule alone also patrols the serving daemon, which
#: must account for every real-time read it performs
WALLCLOCK_PACKAGES = ENGINE_PACKAGES | {"serve"}

_WALLCLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
})


@register
class WallClock(Rule):
    rule_id = "det-wallclock"
    title = "no wall-clock/OS-entropy calls in engine or serve packages"
    rationale = (
        "time.time/datetime.now/os.urandom values differ across runs, "
        "so any state derived from them breaks oracle≡product and "
        "kill+resume bit-identity; simulated time is the only clock"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_packages(WALLCLOCK_PACKAGES):
            return
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve_call(node.func)
            if name in _WALLCLOCK:
                yield ctx.finding(
                    node, self,
                    f"{name}() is nondeterministic across runs; engine "
                    f"code must derive state from simulated time only",
                )


@register
class IdKeyedOrdering(Rule):
    rule_id = "det-id-order"
    title = "no id()-keyed ordering in engine packages"
    rationale = (
        "id() is a memory address: sorting or keying by it imports "
        "allocator layout into trajectories, which differs run to run"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_packages(ENGINE_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg == "key"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id == "id"
                    ):
                        yield ctx.finding(
                            node, self,
                            "ordering by key=id sorts by memory address; "
                            "key on a stable field (node id, name) instead",
                        )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Store
            ):
                sl = node.slice
                if (
                    isinstance(sl, ast.Call)
                    and isinstance(sl.func, ast.Name)
                    and sl.func.id == "id"
                ):
                    yield ctx.finding(
                        node, self,
                        "dict keyed by id(...) stores memory addresses; "
                        "key on a stable identifier instead",
                    )


@register
class SetIteration(Rule):
    rule_id = "det-set-iter"
    title = "no direct iteration over set constructions in engine packages"
    rationale = (
        "set iteration order is an implementation detail; feeding it "
        "into state updates makes trajectories hash-seed dependent — "
        "iterate sorted(...) or keep a list"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_packages(ENGINE_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            it = node.iter
            is_set = isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset")
            )
            if is_set:
                yield ctx.finding(
                    node, self,
                    "iterating an unordered set: wrap in sorted(...) so "
                    "the visit order is deterministic",
                )
