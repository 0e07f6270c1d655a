"""The traced run: spans around each layer's public entry points.

Tracing lives entirely in the benchmark.  :meth:`LayerTracer.install`
replaces a fixed set of public functions (and every module attribute
that a ``from ... import`` bound to them) with wrappers that record a
span — name, start, end, parent span — per call.  Where a layer is only
reachable inside one of those calls, the wrappers read the
:class:`~repro.pipeline.Trace` stage reports the call already produces
(``build-pre``, ``diff``, ``analyze/absint``, ``run-pre``,
``stop_machine``, ``health``, ``rollback``) instead of adding spans
inside ``src/``.

Spans stay in memory until :meth:`LayerTracer.metrics` folds them into
the per-layer table; :meth:`LayerTracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the ksplice-create stages whose wall time the per-layer table reads
CREATE_STAGES = ("build-pre", "build-post", "diff", "analyze")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "ok")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 thread: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.ok = True

    @property
    def seconds(self) -> float:
        return self.end - self.start


def member_pauses_ms(trace) -> List[float]:
    """Per-member stop_machine windows of every apply in a rollout
    trace: the ``stack-check`` attempts under each member's
    ``stop_machine`` stage (the scheduler is frozen for each)."""
    pauses = []
    for wave in trace.reports:
        if not wave.name.startswith("wave-"):
            continue
        for member in wave.children:
            stop = (member.child("stop_machine")
                    if member.name.startswith("member-") else None)
            if stop is not None:
                pauses.append(sum(c.wall_ms for c in stop.children
                                  if c.name == "stack-check"))
    return pauses


def _reports_since(trace, seen: set) -> List[Tuple[str, Any]]:
    """``(path, report)`` for every stage report added since ``seen``."""
    return [(path, rep) for path, rep in trace.walk()
            if id(rep) not in seen]


class LayerTracer:
    """Records spans and layer counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: time spent in the wrappers themselves, outside the calls
        self.wrapper_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []
        #: stage walls (ms) read from Trace reports, by stage name
        self.stage_ms: Dict[str, List[float]] = {}
        self.evidence = 0
        self.analyses = 0
        self.proven = 0
        self.stack_check_attempts = 0
        self.applies = 0
        self.pauses_ms: List[float] = []
        self.run_ns = 0
        self.run_insns = 0
        self.machine_totals = {"insns": 0, "traced": 0, "compiled": 0,
                               "evicted": 0}
        # per-op state: fleets booted and rollout traces seen this op
        self._fleets: List[Any] = []
        self._traces: Dict[int, Any] = {}
        #: when the op loop started, and the cache counters at that time:
        #: per-op metrics leave set-up out
        self._ops_start = 0.0
        self._cache_before: Dict[str, Tuple[int, ...]] = {}

    # -- spans ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        span = Span(name, time.perf_counter(),
                    stack[-1] if stack else None,
                    threading.current_thread().name)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.ok = False
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def _wrap(self, owner: Any, attr: str, name: str,
              around: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper.

        ``around(call, args, kwargs)`` (optional) runs the call itself so
        it can read what the call produced."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            inside = 0.0

            def call(*call_args, **call_kwargs):
                nonlocal inside
                start = time.perf_counter()
                try:
                    return original(*call_args, **call_kwargs)
                finally:
                    inside += time.perf_counter() - start

            try:
                if around is None:
                    return self.span(name, call, *args, **kwargs)
                return self.span(name, around, call, args, kwargs)
            finally:
                spent = time.perf_counter() - entered - inside
                with self._lock:
                    self.wrapper_s += spent

        self._restore.append((owner, attr, raw))
        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        from repro.controlplane.client import ControlPlaneClient
        from repro.core import apply as core_apply
        from repro.core import create as core_create
        from repro.evaluation import analyze as eval_analyze
        from repro.evaluation import engine
        from repro.fleet import health, orchestrator, remote
        from repro.kernel import machine

        for module in (engine, eval_analyze):
            self._wrap(module, "run_build_for", "kbuild.run_build")
        for module in (core_create, eval_analyze):
            self._wrap(module, "ksplice_create", "core.create",
                       self._around_create)
        core = core_apply.KspliceCore
        self._wrap(core, "apply", "core.apply", self._around_apply)
        self._wrap(core, "undo_latest", "core.undo")
        self._wrap(orchestrator.Fleet, "boot", "fleet.boot",
                   self._around_fleet_boot)
        self._wrap(orchestrator, "boot_kernel", "kernel.boot")
        for module in (health, orchestrator):
            self._wrap(module, "check_machine", "fleet.check_machine")
        self._wrap(machine.Machine, "run", "kernel.run",
                   self._around_machine_run)
        self._wrap(remote, "run_remote_rollout",
                   "distributed.remote_rollout")
        for method in ("create_channel", "register_member", "publish",
                       "rollout", "members"):
            self._wrap(ControlPlaneClient, method,
                       "controlplane." + method)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- readers of what the wrapped calls produce ----------------------

    def _note_stage(self, name: str, wall_ms: float) -> None:
        with self._lock:
            self.stage_ms.setdefault(name, []).append(wall_ms)

    def _around_create(self, call, args, kwargs):
        from repro.core.create import CreateReport
        from repro.pipeline import Trace

        if kwargs.get("trace") is None:
            kwargs["trace"] = Trace(label="ksplice-create")
        if kwargs.get("report") is None:
            kwargs["report"] = CreateReport()
        trace, report = kwargs["trace"], kwargs["report"]
        seen = {id(rep) for _, rep in trace.walk()}
        try:
            return call(*args, **kwargs)
        finally:
            for path, rep in _reports_since(trace, seen):
                leaf = path.rsplit("/", 1)[-1]
                if leaf in CREATE_STAGES:
                    self._note_stage(leaf, rep.wall_ms)
                elif leaf == "absint" and path.endswith("analyze/absint"):
                    self._note_stage("absint", rep.wall_ms)
            if report.analysis is not None:
                with self._lock:
                    self.analyses += 1
                    self.proven += int(report.analysis.is_proven())
                    self.evidence += len(report.analysis.evidence)

    def _around_apply(self, call, args, kwargs):
        from repro.pipeline import Trace

        core = args[0]
        if kwargs.get("trace") is None:
            kwargs["trace"] = Trace(label="apply")
        trace = kwargs["trace"]
        with self._lock:
            self._traces[id(trace)] = trace
        seen = {id(rep) for _, rep in trace.walk()}
        try:
            applied = call(*args, **kwargs)
        except Exception:
            with self._lock:
                self.stack_check_attempts += core.stack_check_retries
            raise
        for path, rep in _reports_since(trace, seen):
            leaf = path.rsplit("/", 1)[-1]
            if leaf in ("run-pre", "stop_machine"):
                self._note_stage(leaf, rep.wall_ms)
        with self._lock:
            self.applies += 1
            self.stack_check_attempts += applied.stack_check_attempts
        return applied

    def _around_fleet_boot(self, call, args, kwargs):
        fleet = call(*args, **kwargs)
        with self._lock:
            self._fleets.append(fleet)
        return fleet

    def _around_machine_run(self, call, args, kwargs):
        start = time.perf_counter_ns()
        executed = call(*args, **kwargs)
        elapsed = time.perf_counter_ns() - start
        with self._lock:
            self.run_ns += elapsed
            self.run_insns += executed
        return executed

    def start_ops(self) -> None:
        """Set-up is done: per-op metrics count from here on."""
        from repro.compiler.cache import snapshot_stats

        self._ops_start = time.perf_counter()
        self._cache_before = snapshot_stats()

    def end_op(self) -> None:
        """Fold the finished op's machines and rollout traces in."""
        with self._lock:
            fleets, self._fleets = self._fleets, []
            traces, self._traces = list(self._traces.values()), {}
        for fleet in fleets:
            for member in fleet.members:
                stats = member.machine.trace_stats()
                total = stats["traced_insns"] + stats["interpreted_insns"]
                self.machine_totals["insns"] += total
                self.machine_totals["traced"] += stats["traced_insns"]
                self.machine_totals["compiled"] += stats["traces_compiled"]
                self.machine_totals["evicted"] += stats["traces_evicted"]
        for trace in traces:
            self.pauses_ms.extend(member_pauses_ms(trace))
            for report in trace.reports:
                if not report.name.startswith("wave-"):
                    continue
                for child in report.children:
                    if child.name in ("health", "rollback"):
                        self._note_stage(child.name, child.wall_ms)

    # -- the per-layer table ----------------------------------------------

    def _span_seconds(self, name: str, setup: bool = False) -> List[float]:
        """Durations of ``name`` spans in the op loop (or in set-up)."""
        return [s.seconds for s in self.spans if s.name == name
                and (s.start < self._ops_start) == setup]

    def metrics(self, ops: int, op_seconds: float) -> Dict[str, float]:
        """Per-layer metrics for a pass of ``ops`` ops whose op times
        sum to ``op_seconds``.  ``*_s`` layer times are seconds per op;
        ``*_ms`` are medians per call or per event."""
        per_op = 1.0 / ops if ops else 0.0

        def total(name: str) -> float:
            return sum(self._span_seconds(name)) * per_op

        def staged(name: str) -> float:
            return sum(self.stage_ms.get(name, [])) / 1000.0 * per_op

        def median_ms(name: str, setup: bool = False) -> float:
            return _median(self._span_seconds(name, setup)) * 1000.0

        from repro.compiler.cache import stats_delta

        stats = stats_delta(self._cache_before)
        hits = sum(stats[n].hits for n in ("parse", "compile"))
        lookups = sum(stats[n].lookups for n in ("parse", "compile"))
        analyze, absint = staged("analyze"), staged("absint")
        health = sum(self.stage_ms.get("health", [])) / 1000.0
        insns = self.machine_totals["insns"]
        return {
            "kbuild.run_build_s": total("kbuild.run_build"),
            "kbuild.build_pre_s": staged("build-pre"),
            "kbuild.build_post_s": staged("build-post"),
            "kbuild.post_over_pre": _ratio(staged("build-post"),
                                           staged("build-pre")),
            "compiler.cache_lookups": lookups,
            "compiler.cache_hit_rate": _ratio(hits, lookups),
            "core.create_s": total("core.create"),
            "core.create_ms": median_ms("core.create"),
            "core.objdiff_s": staged("diff"),
            "analysis.analyze_s": analyze,
            "analysis.absint_s": absint,
            "analysis.heuristic_s": analyze - absint,
            "analysis.evidence": self.evidence,
            "analysis.proven_ratio": _ratio(self.proven, self.analyses),
            "core.apply_s": total("core.apply"),
            "core.runpre_s": staged("run-pre"),
            "core.stop_machine_ms": _median(
                self.stage_ms.get("stop_machine", [])),
            "core.stack_check_attempts": self.stack_check_attempts,
            "core.applies_per_attempt": _ratio(
                self.applies, self.stack_check_attempts),
            "core.undo_s": total("core.undo"),
            "fleet.rollback_ms": _median(self.stage_ms.get("rollback", [])),
            "kernel.boot_s": total("kernel.boot"),
            "fleet.boot_s": total("fleet.boot"),
            "kernel.insns": insns,
            "kernel.ns_per_insn": _ratio(self.run_ns, self.run_insns),
            "kernel.trace_hit_rate": _ratio(self.machine_totals["traced"],
                                            insns),
            "kernel.traces_compiled": self.machine_totals["compiled"],
            "kernel.traces_evicted": self.machine_totals["evicted"],
            "fleet.health_s": health * per_op,
            "fleet.health_share": _ratio(health, op_seconds),
            "fleet.check_machine_s": total("fleet.check_machine"),
            "controlplane.register_ms": median_ms(
                "controlplane.register_member", setup=True),
            "controlplane.publish_call_ms": median_ms(
                "controlplane.publish"),
            "controlplane.poll_ms": median_ms("controlplane.rollout"),
            "distributed.remote_rollout_s": total(
                "distributed.remote_rollout"),
        }

    def dump(self, path: str) -> None:
        """Write every span (name, start, end, parent, thread) as JSON."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": index.get(id(s.parent)), "thread": s.thread,
                 "ok": s.ok} for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
