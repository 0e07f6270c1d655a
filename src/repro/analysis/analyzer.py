"""The combined analyzer: one report from four analyses plus proofs.

``analyze_update`` is what the ``analyze`` stage of ksplice-create
calls, after differencing and before the pack is returned.  It is a
pure function of the pack, the per-unit diffs and objects, and
(optionally) the run kernel's build; it never mutates its inputs and
raises nothing — rejection is a verdict, not an exception, so the
caller decides whether a ``reject`` stops the pipeline.

The four heuristic analyses (data layout, init-only writers,
quiescence, lint) produce the findings; the abstract-interpretation
engine (:mod:`repro.analysis.absint`) then re-derives the machine
facts behind them — ABI summaries, hunk equivalence, pointer-escape
and sleep-path witnesses, data-image diffs — attaching
:class:`~repro.analysis.model.Evidence` records and, where the proof
contradicts the heuristic (a resized symbol nothing points into),
downgrading the finding.  ``absint=False`` skips the proof engine
(used for benchmarking the heuristic baseline).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.absint.engine import run_absint
from repro.analysis.callgraph import code_index, format_node
from repro.analysis.datalayout import (
    analyze_data_layout,
    analyze_init_only_writers,
)
from repro.analysis.lint import lint_pack
from repro.analysis.model import AnalysisReport, Finding
from repro.analysis.quiescence import analyze_quiescence
from repro.arch.info import DEFAULT_ARCH
from repro.kbuild import BuildResult
from repro.objfile import ObjectFile
from repro.pipeline import Trace

if TYPE_CHECKING:
    from repro.core.objdiff import UnitDiff
    from repro.core.update import UpdatePack

#: mirrors ``KspliceCore``'s default bounded stack-check retries
DEFAULT_STACK_CHECK_RETRIES = 5


def analyze_update(pack: "UpdatePack",
                   unit_diffs: Dict[str, "UnitDiff"],
                   pre_objects: Dict[str, ObjectFile],
                   post_objects: Dict[str, ObjectFile],
                   run_build: Optional[BuildResult] = None,
                   stack_check_retries: int = DEFAULT_STACK_CHECK_RETRIES,
                   jump_size: int = DEFAULT_ARCH.jump_size,
                   absint: bool = True,
                   trace: Optional[Trace] = None,
                   ) -> AnalysisReport:
    """Classify one update before any machine is touched."""
    report = AnalysisReport(
        hooks_present=any(diff.has_hooks for diff in unit_diffs.values()),
        run_build_analyzed=run_build is not None,
    )
    for unit in sorted(unit_diffs):
        diff = unit_diffs[unit]
        if diff.changed_functions:
            report.patched_functions[unit] = sorted(diff.changed_functions)
        if diff.new_functions:
            report.new_functions[unit] = sorted(diff.new_functions)

    graph = code_index(run_build).graph if run_build is not None else None
    if graph is not None:
        patched_nodes: List[Tuple[str, str]] = []
        for unit, fns in sorted(report.patched_functions.items()):
            for fn in fns:
                key = format_node((unit, fn))
                node = graph.node_for(unit, fn)
                if node is None:
                    report.references[key] = []
                    continue
                patched_nodes.append(node)
                report.references[key] = graph.references_of(node)
                hosts = graph.inline_hosts.get(node, set())
                if hosts:
                    report.inlined_copies[key] = sorted(
                        format_node(host) for host in hosts)
        report.caller_closure = sorted(
            format_node(node)
            for node in graph.caller_closure(patched_nodes))

    findings: List[Finding] = []
    findings.extend(analyze_data_layout(unit_diffs, pre_objects,
                                        post_objects))
    if graph is not None:
        findings.extend(analyze_init_only_writers(graph, unit_diffs,
                                                  pre_objects,
                                                  post_objects))
    findings.extend(analyze_quiescence(graph, unit_diffs, pre_objects,
                                       stack_check_retries))
    findings.extend(lint_pack(pack, run_build=run_build,
                              jump_size=jump_size))

    if absint:
        stage = trace.stage("absint") if trace is not None \
            else nullcontext()
        with stage as rep:
            findings, evidence = run_absint(
                unit_diffs, pre_objects, post_objects, run_build,
                graph, findings)
            report.evidence = evidence
            if rep is not None:
                rep.counters["evidence"] = len(evidence)
                rep.counters["proof_sites"] = sum(
                    len(ev.sites) for ev in evidence)

    report.extend(findings)
    return report
