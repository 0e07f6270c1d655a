"""Quiescence-risk analysis: predicting stack-check exhaustion.

The apply machinery captures every thread inside ``stop_machine`` and
refuses to patch while any captured stack holds an address inside a
replaced function, retrying a bounded number of times (§3.2).  A thread
parked on a sleep instruction (``sched``/``hlt``) does not drain
between retries — so if a patched function can *be* the sleeper, or can
sit below one on a call chain, every retry is predicted to see the same
stack and the update aborts with retry exhaustion before any code is
patched.

The walk uses direct-call edges only (see
:mod:`repro.analysis.callgraph`): a function's return address lands on
a stack exactly when it appears in an active call chain.  Data
references (function pointers in tables) make a function *reachable*
but do not pin its address ranges onto a sleeping stack by themselves.
Without the run kernel's build the analysis degrades to scanning the
patched functions' own pre text for sleep instructions.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.analysis.callgraph import SLEEP_MNEMONICS, CallGraph
from repro.analysis.codefacts import SLEEPS_CACHE, bytes_digest, memoized
from repro.analysis.model import VERDICT_QUIESCE_RISK, Finding
from repro.arch.disassembler import iter_instructions
from repro.errors import DisassemblyError
from repro.objfile import ObjectFile

if TYPE_CHECKING:
    from repro.core.objdiff import UnitDiff


def text_sleeps(section_data: bytes) -> bool:
    """Does this (function-sections) text contain a sleep instruction?"""
    return memoized(SLEEPS_CACHE, (bytes_digest(section_data),),
                    partial(_scan_sleeps, section_data))


def _scan_sleeps(section_data: bytes) -> bool:
    try:
        return any(instr.mnemonic in SLEEP_MNEMONICS
                   for instr in iter_instructions(section_data))
    except DisassemblyError:
        return False


def analyze_quiescence(graph: Optional[CallGraph],
                       unit_diffs: Dict[str, "UnitDiff"],
                       pre_objects: Dict[str, ObjectFile],
                       stack_check_retries: int = 5) -> List[Finding]:
    """One finding per patched function that can sleep or reach sleep."""
    findings: List[Finding] = []
    for unit in sorted(unit_diffs):
        diff = unit_diffs[unit]
        for fn in sorted(diff.changed_functions):
            finding = _check_function(graph, pre_objects.get(unit), unit,
                                      fn, stack_check_retries)
            if finding is not None:
                findings.append(finding)
    return findings


def _check_function(graph: Optional[CallGraph],
                    pre: Optional[ObjectFile], unit: str, fn: str,
                    retries: int) -> Optional[Finding]:
    node = graph.node_for(unit, fn) if graph is not None else None
    if node is not None and graph is not None:
        path = graph.sleep_path(node)
        if path is None:
            return None
        if len(path) == 1:
            detail = ("patched function executes a sleep instruction; a "
                      "parked thread's program counter can sit inside it "
                      "indefinitely, so all %d stack-check attempts are "
                      "predicted to fail" % retries)
        else:
            chain = " -> ".join(name for _unit, name in path)
            detail = ("patched function can sleep through %s; its return "
                      "address stays on the sleeping thread's stack "
                      "across all %d stop_machine retries"
                      % (chain, retries))
        return Finding(analysis="quiescence", verdict=VERDICT_QUIESCE_RISK,
                       unit=unit, symbol=fn, detail=detail)
    # degraded mode: no run-kernel graph — scan the pre text itself
    if pre is None:
        return None
    section = pre.sections.get(".text.%s" % fn)
    if section is None or not text_sleeps(section.data):
        return None
    return Finding(analysis="quiescence", verdict=VERDICT_QUIESCE_RISK,
                   unit=unit, symbol=fn,
                   detail="patched function executes a sleep instruction; "
                          "a parked thread's program counter can sit inside "
                          "it indefinitely, so all %d stack-check attempts "
                          "are predicted to fail" % retries)
