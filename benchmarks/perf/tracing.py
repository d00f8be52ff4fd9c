"""Span recording around the program's public callables.

The benchmark measures every layer from outside: :func:`install` wraps
the callables named in :data:`TARGETS` (module functions are replaced
in every loaded ``repro`` module that holds a reference, methods on
their class), and each call becomes a span — name, start, end, the span
that caused it, pid, and counts taken at the same boundary. Spans stay
in memory; processes other than the one that installed the recorder
(pool workers, which inherit the wrappers through ``fork``, and the
traced serve daemon) append theirs to a per-pid file in the spool
directory whenever a process-root span closes.

Two kinds of target:

* *span* targets get a full record and a stack entry, so their children
  subtract from their self time;
* *leaf* targets are hot and call nothing that is wrapped (131k
  ``sample_batch`` calls per fleet cell): they are tallied as seconds +
  calls into the enclosing span and still count as its child time. A
  leaf call outside every span is not counted.

Every target lists candidate dotted names, resolved lazily; when none
resolves (a refactor moved or deleted it) the target's metrics read
``null`` with one warning, never a failed run. Only public names may
appear here — ``test_perf_smoke.py`` checks.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

__all__ = ["TARGETS", "Recorder", "Target", "load_spool", "summarize"]

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes

# stack-entry slots
_ID, _T0, _CHILD, _TALLY, _PID = range(5)


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``metric`` is the layer-qualified prefix its ``_s``/``_calls``/
    ``_self_s`` metrics are published under; several targets may share
    one (both checkpoint writers feed ``simulation.checkpoint.save``).
    ``attrs(args, kwargs, result)`` returns counts taken at the call
    boundary, keyed by full metric name (numbers are summed), plus an
    optional ``"cell"`` string.
    """

    metric: str
    candidates: tuple[str, ...]
    leaf: bool = False
    attrs: Callable[[tuple, dict, object], dict] | None = None


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _train_rows_attrs(args, kwargs, result):
    return {"nn.train_rows_rows": len(_arg(args, kwargs, 2, "ids"))}


def _checkpoint_save_attrs(args, kwargs, result):
    path = _arg(args, kwargs, 4, "path")
    return {"simulation.checkpoint.save_bytes": _file_bytes(path)}


def _plan_window_attrs(args, kwargs, result):
    start = _arg(args, kwargs, 2, "start_event")
    end = _arg(args, kwargs, 3, "end_event")
    rows = sum(len(b.train_ids) for b in result.batches)
    return {
        "simulation.event_batch.events": end - start,
        "simulation.event_batch.batches": len(result.batches),
        "simulation.event_batch.batch_rows": rows,
    }


def _artifact_write_attrs(args, kwargs, result):
    return {"experiments.artifacts.write_bytes": _file_bytes(result)}


def _publish_attrs(args, kwargs, result):
    import numpy as np

    size = sum(
        int(np.prod(shape)) * np.dtype(dtype).itemsize
        for _, shape, dtype, _ in result.arrays
    )
    return {"experiments.pool.publish_bytes": size}


def _next_result_attrs(args, kwargs, result):
    return {"experiments.pool.empty_polls": int(result is None)}


def _run_cell_attrs(args, kwargs, result):
    return {"cell": _arg(args, kwargs, 1, "cell").cell_id}


TARGETS: tuple[Target, ...] = (
    # core: the control — deciding who trains should cost nothing
    Target("core.train_mask", ("repro.core.skiptrain.SkipTrain.train_mask",), leaf=True),
    Target("core.train_mask", ("repro.core.dpsgd.DPSGD.train_mask",), leaf=True),
    # data / nn: the two largest shares of a paper-scale round
    Target(
        "data.sample_batch",
        ("repro.simulation.node.Node.sample_batch",
         "repro.data.dataset.DataLoader.sample"),
        leaf=True,
    ),
    Target(
        "nn.train_rows",
        ("repro.nn.batched.BatchedTrainer.train_rows",),
        attrs=_train_rows_attrs,
    ),
    # simulation
    Target("simulation.metrics.evaluate_state",
           ("repro.simulation.metrics.evaluate_state",)),
    Target("simulation.engine.run",
           ("repro.simulation.engine.SimulationEngine.run",)),
    Target("simulation.state_store.assign",
           ("repro.simulation.state_store.MemoryStateStore.assign",), leaf=True),
    Target("simulation.state_store.assign",
           ("repro.simulation.state_store.MmapStateStore.assign",), leaf=True),
    Target("simulation.builder.build_nodes",
           ("repro.simulation.builder.build_nodes",)),
    Target(
        "simulation.checkpoint.save",
        ("repro.simulation.checkpoint.save_run_checkpoint",),
        attrs=_checkpoint_save_attrs,
    ),
    Target(
        "simulation.checkpoint.save",
        ("repro.simulation.checkpoint.save_async_run_checkpoint",),
        attrs=_checkpoint_save_attrs,
    ),
    Target("simulation.checkpoint.load",
           ("repro.simulation.checkpoint.load_run_checkpoint",)),
    Target("simulation.checkpoint.load",
           ("repro.simulation.checkpoint.load_async_run_checkpoint",)),
    Target("simulation.async_engine.run",
           ("repro.simulation.async_engine.AsyncGossipEngine.run",)),
    Target(
        "simulation.event_batch.plan",
        ("repro.simulation.event_batch.plan_window",),
        attrs=_plan_window_attrs,
    ),
    # energy / topology / scenarios
    Target("energy.record_round",
           ("repro.energy.accounting.EnergyMeter.record_round",), leaf=True),
    Target("energy.build_trace", ("repro.energy.traces.build_trace",)),
    Target("topology.regular_neighbors",
           ("repro.topology.sparse.regular_neighbors",)),
    Target("topology.mixing_weights",
           ("repro.topology.mixing.metropolis_hastings_weights",)),
    Target("scenarios.compile_run", ("repro.scenarios.compile.compile_run",)),
    # experiments
    Target("experiments.runner.prepare_data",
           ("repro.experiments.runner.prepare_data",)),
    Target("experiments.runner.prepared_from_data",
           ("repro.experiments.runner.prepared_from_data",)),
    Target("experiments.runner.build_run", ("repro.experiments.runner.build_run",)),
    Target("experiments.runner.build_run",
           ("repro.experiments.runner.build_async_run",)),
    Target(
        "experiments.sweep.run_cell",
        ("repro.experiments.sweep.run_cell",),
        attrs=_run_cell_attrs,
    ),
    Target("experiments.sweep.run_sweep", ("repro.experiments.sweep.run_sweep",)),
    Target("experiments.artifacts.build_plan",
           ("repro.experiments.artifacts.build_plan",)),
    Target("experiments.artifacts.build_plan",
           ("repro.scenarios.compile.build_scenario_plan",)),
    Target(
        "experiments.artifacts.write",
        ("repro.experiments.artifacts.write_cell_artifact",),
        attrs=_artifact_write_attrs,
    ),
    Target(
        "experiments.artifacts.write",
        ("repro.experiments.artifacts.write_async_cell_artifact",),
        attrs=_artifact_write_attrs,
    ),
    Target("experiments.artifacts.aggregate",
           ("repro.experiments.artifacts.aggregate_results",)),
    Target("experiments.pool.spawn",
           ("repro.experiments.pool.PersistentPool.__enter__",)),
    Target(
        "experiments.pool.publish",
        ("repro.experiments.pool.SharedDatasetCache.publish",),
        attrs=_publish_attrs,
    ),
    Target(
        "experiments.pool.wait",
        ("repro.experiments.pool.PersistentPool.next_result",),
        attrs=_next_result_attrs,
    ),
)


def resolve(dotted: str) -> tuple[object, str, object] | None:
    """``(owner, attribute, callable)`` for a dotted public name, or
    ``None`` when the module or any attribute along the way is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj: object = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        owner = obj
        for name in parts[cut:]:
            owner = obj
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return owner, parts[-1], obj
    return None


class Recorder:
    """Owns the spans of one process tree and the patches that feed it.

    ``spool`` is where processes other than the installing one drop
    their spans (see :func:`load_spool`); the installing process keeps
    its own in :attr:`spans` until the caller collects them.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.home_pid = os.getpid()
        self.spans: list[dict] = []
        #: metric prefixes none of whose targets resolved
        self.unresolved: list[str] = []
        self._local = threading.local()
        self._seq = itertools.count()
        self._patches: list[tuple[object, str, object, bool]] = []
        # a forked child starts with a copy of the parent's buffer; what
        # it flushes must be its own spans only
        os.register_at_fork(after_in_child=self._take)

    # -- patching -----------------------------------------------------------

    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        """Wrap every resolvable target. Import everything the workload
        uses first: a module function is replaced only in ``repro``
        modules already loaded."""
        resolved: set[str] = set()
        wanted: list[str] = []
        for target in targets:
            if target.metric not in wanted:
                wanted.append(target.metric)
            for dotted in target.candidates:
                found = resolve(dotted)
                if found is None:
                    continue
                owner, attr, original = found
                wrapper = (self._leaf if target.leaf else self._span)(
                    target, original
                )
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    for module in list(sys.modules.values()):
                        name = getattr(module, "__name__", "")
                        if name != "repro" and not name.startswith("repro."):
                            continue
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, wrapper)
                resolved.add(target.metric)
                break
        self.unresolved = [m for m in wanted if m not in resolved]
        for metric in self.unresolved:
            warnings.warn(
                f"perf tracing: no candidate for {metric!r} resolves; its "
                f"metrics will read null",
                stacklevel=2,
            )

    def uninstall(self) -> None:
        """Put every original back (reverse order, so a name patched
        twice ends on its first original)."""
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else None
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had))

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _span(self, target: Target, fn: Callable) -> Callable:
        name, attrs_of = target.metric, target.attrs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            pid = os.getpid()
            entry = [f"{pid}.{next(self._seq)}", _clock(), 0.0, {}, pid]
            stack.append(entry)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = _clock()
                stack.pop()
                parent = stack[-1] if stack else None
                local_parent = parent is not None and parent[_PID] == pid
                if local_parent:
                    parent[_CHILD] += t1 - entry[_T0]
                record = {
                    "id": entry[_ID],
                    "parent": parent[_ID] if parent is not None else None,
                    "name": name,
                    "pid": pid,
                    "t0": entry[_T0],
                    "t1": t1,
                    "self_s": t1 - entry[_T0] - entry[_CHILD],
                    "ok": ok,
                }
                if entry[_TALLY]:
                    record["tally"] = entry[_TALLY]
                if ok and attrs_of is not None:
                    record["attrs"] = attrs_of(args, kwargs, result)
                self.spans.append(record)
                if pid != self.home_pid and not local_parent:
                    self.flush()

        return wrapper

    def _leaf(self, target: Target, fn: Callable) -> Callable:
        name, local = target.metric, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack = getattr(local, "stack", None)
                if stack:
                    top = stack[-1]
                    top[_CHILD] += dt
                    slot = top[_TALLY].get(name)
                    if slot is None:
                        top[_TALLY][name] = [dt, 1]
                    else:
                        slot[0] += dt
                        slot[1] += 1

        return wrapper

    # -- hand-off -----------------------------------------------------------

    def _take(self) -> list[dict]:
        # one attribute swap: a span appended by another thread lands in
        # either the old list (not yet read) or the new one, never nowhere
        spans, self.spans = self.spans, []
        return spans

    def flush(self) -> None:
        """Append this process's buffered spans to its spool file."""
        spans = self._take()
        if not spans:
            return
        self.spool.mkdir(parents=True, exist_ok=True)
        with open(self.spool / f"spans-{os.getpid()}.jsonl", "a") as fh:
            for record in spans:
                fh.write(json.dumps(record) + "\n")

    def collect(self) -> list[dict]:
        """This process's spans plus everything in the spool, by start
        time; empties both."""
        spans = self._take()
        spans.extend(load_spool(self.spool))
        spans.sort(key=lambda s: s["t0"])
        return spans


def load_spool(spool: Path) -> list[dict]:
    """Read and remove every per-pid span file under ``spool``."""
    spans: list[dict] = []
    for path in sorted(Path(spool).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
        path.unlink()
    return spans


def summarize(
    spans: Iterable[dict],
    setup: tuple[float, float],
    laps: list[tuple[float, float]],
) -> dict[str, float]:
    """Fold spans into per-layer metric values for *one cold run of the
    workload*: everything that started inside the ``setup`` window plus,
    per metric, the best (smallest) total any single timed lap gave it —
    the same one-sided-noise reasoning as the ideal lap; counts repeat
    exactly, so for them any lap is the best.

    For each metric prefix ``P`` this yields ``P_s`` (inclusive time),
    ``P_calls``, ``P_self_s`` (span targets only) and every count its
    ``attrs`` reported; leaf tallies are attributed to the window of
    the span they were tallied into.
    """
    windows = [setup, *laps]
    totals: list[dict[str, float]] = [{} for _ in windows]

    def add(bucket: dict[str, float], key: str, value: float) -> None:
        bucket[key] = bucket.get(key, 0.0) + value

    for span in spans:
        for (t0, t1), bucket in zip(windows, totals):
            if t0 <= span["t0"] < t1:
                break
        else:
            continue
        name = span["name"]
        add(bucket, f"{name}_s", span["t1"] - span["t0"])
        add(bucket, f"{name}_self_s", span["self_s"])
        add(bucket, f"{name}_calls", 1)
        for leaf, (seconds, calls) in span.get("tally", {}).items():
            add(bucket, f"{leaf}_s", seconds)
            add(bucket, f"{leaf}_calls", calls)
        for key, value in span.get("attrs", {}).items():
            if isinstance(value, (int, float)):
                add(bucket, key, value)

    result, per_lap = totals[0], totals[1:]
    for key in {key for bucket in per_lap for key in bucket}:
        result[key] = result.get(key, 0.0) + min(b.get(key, 0.0) for b in per_lap)
    return result
