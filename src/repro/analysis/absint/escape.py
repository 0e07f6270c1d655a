"""Pointer-escape analysis for data-layout diffs.

``needs-shadow`` in the heuristic analyzer means "a data section's
layout differs".  This pass turns that into evidence: for every
resized or changed persistent data symbol it collects

* **escape witnesses** — instructions in the replacement code where a
  pointer into the symbol leaves the local frame (stored to memory,
  live on the stack at a call, returned in ``r0``), from the abstract
  interpreter's dataflow;
* **reference witnesses** — every run-kernel instruction whose
  relocation targets the symbol, and every data-section relocation
  embedding its address (a function-pointer-table-style anchor).

A resized symbol with *no* witnesses anywhere cannot have a live
pointer into it, so the ``needs-shadow`` finding is downgraded to an
informational ``safe`` note — the concrete payoff of running the
interpreter.  When witnesses exist they ride on the evidence record,
upgrading the verdict from "layout differs" to "layout differs *and
here is who holds pointers into it*".

Shadow-API adoption gets its own ``shadow-api`` evidence: the exact
call sites of ``ksplice_shadow_*`` the replacement introduces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.absint.abi import function_summary
from repro.analysis.datalayout import SHADOW_API
from repro.analysis.model import (
    EVIDENCE_ESCAPE,
    EVIDENCE_SHADOW_API,
    VERDICT_NEEDS_SHADOW,
    VERDICT_SAFE,
    Evidence,
    Finding,
)
from repro.kbuild import BuildResult
from repro.objfile import ObjectFile, SectionKind


def _post_function_names(post_obj: ObjectFile) -> List[str]:
    return sorted(
        section.name[len(".text."):]
        for section in post_obj.text_sections()
        if section.name.startswith(".text."))


def _run_kernel_references(build: Optional[BuildResult],
                           symbol: str) -> Tuple[List[str], int]:
    """``unit:section+0xNN`` relocation sites targeting ``symbol``."""
    sites: List[str] = []
    data_anchors = 0
    if build is None:
        return sites, data_anchors
    for unit in sorted(build.objects):
        obj = build.objects[unit]
        for section_name in sorted(obj.sections):
            section = obj.sections[section_name]
            for reloc in section.sorted_relocations():
                if reloc.symbol != symbol:
                    continue
                what = "references" if section.kind is SectionKind.TEXT \
                    else "embeds the address of"
                if section.kind is not SectionKind.TEXT:
                    data_anchors += 1
                sites.append("%s:%s+0x%x: %s %s"
                             % (unit, section_name, reloc.offset,
                                what, symbol))
    return sites, data_anchors


def analyze_escapes(unit: str,
                    layout_symbols: Set[str],
                    post_obj: Optional[ObjectFile],
                    run_build: Optional[BuildResult],
                    ) -> Tuple[List[Evidence], Dict[str, bool]]:
    """Escape evidence per layout-changed symbol.

    Returns the evidence records plus ``symbol -> anything escapes``
    so the caller can downgrade witness-free ``needs-shadow``
    findings.
    """
    evidence: List[Evidence] = []
    escapes_seen: Dict[str, bool] = {}
    if not layout_symbols:
        return evidence, escapes_seen

    summaries = []
    if post_obj is not None:
        for fn in _post_function_names(post_obj):
            summary = function_summary(post_obj, fn)
            if summary is not None:
                summaries.append((fn, summary))

    for symbol in sorted(layout_symbols):
        sites: List[str] = []
        escape_count = 0
        access_count = 0
        for fn, summary in summaries:
            for event in summary.escapes:
                if event.symbol == symbol:
                    escape_count += 1
                    sites.append("%s:%s+0x%x: %s — %s"
                                 % (unit, fn, event.offset,
                                    event.mnemonic, event.reason))
            for ret in summary.rets:
                if ret.returns_pointer_to == symbol:
                    escape_count += 1
                    sites.append("%s:%s+0x%x: ret — returns a "
                                 "pointer into %s"
                                 % (unit, fn, ret.offset, symbol))
            for event in summary.accesses:
                if event.symbol == symbol:
                    access_count += 1
                    sites.append("%s:%s+0x%x: %s %s %s"
                                 % (unit, fn, event.offset,
                                    event.mnemonic,
                                    "writes" if event.is_write
                                    else "reads", symbol))
        run_sites, data_anchors = _run_kernel_references(run_build,
                                                         symbol)
        sites.extend(run_sites)
        escaped = bool(escape_count or data_anchors or run_sites)
        escapes_seen[symbol] = escaped
        if escaped:
            detail = ("%d escape witness(es), %d direct access(es), "
                      "%d run-kernel reference(s) hold or can form "
                      "live pointers into the resized layout of %s"
                      % (escape_count, access_count, len(run_sites),
                         symbol))
        else:
            detail = ("no instruction in the replacement or the run "
                      "kernel creates, stores, or passes a pointer "
                      "into %s; nothing escapes, so plain code "
                      "replacement is layout-safe" % symbol)
        evidence.append(Evidence(
            kind=EVIDENCE_ESCAPE, unit=unit, symbol=symbol,
            detail=detail, sites=sites,
            facts={"escapes": escape_count,
                   "direct_accesses": access_count,
                   "run_kernel_references": len(run_sites),
                   "data_anchors": data_anchors,
                   "anything_escapes": escaped}))
    return evidence, escapes_seen


def shadow_api_evidence(unit: str,
                        pre_obj: Optional[ObjectFile],
                        post_obj: Optional[ObjectFile],
                        ) -> List[Evidence]:
    """Call sites of newly-adopted ``ksplice_shadow_*`` symbols."""
    if post_obj is None:
        return []
    pre_refs: Set[str] = set(pre_obj.referenced_symbol_names()) \
        if pre_obj is not None else set()
    adopted = sorted((set(post_obj.referenced_symbol_names())
                      - pre_refs) & set(SHADOW_API))
    if not adopted:
        return []
    evidence: List[Evidence] = []
    for api in adopted:
        sites: List[str] = []
        for section in post_obj.text_sections():
            fn = section.name[len(".text."):] \
                if section.name.startswith(".text.") else section.name
            for reloc in section.sorted_relocations():
                if reloc.symbol == api:
                    sites.append("%s:%s+0x%x: call %s"
                                 % (unit, fn, reloc.offset, api))
        evidence.append(Evidence(
            kind=EVIDENCE_SHADOW_API, unit=unit, symbol=api,
            detail="replacement code calls %s at %d site(s): it "
                   "depends on per-object shadow state the running "
                   "kernel does not carry" % (api, len(sites)),
            sites=sites, facts={"call_sites": len(sites)}))
    return evidence


def downgrade_unwitnessed_shadow(
        findings: List[Finding],
        escapes_seen: Dict[Tuple[str, str], bool]) -> List[Finding]:
    """Replace witness-free resized-layout ``needs-shadow`` findings
    with informational ``safe`` notes.

    ``escapes_seen`` is keyed ``(unit, symbol)``; findings for symbols
    it does not cover (shadow-API adoption, unanalyzed units) pass
    through untouched — absence of analysis is not absence of
    escapes.
    """
    out: List[Finding] = []
    for finding in findings:
        key = (finding.unit, finding.symbol)
        if finding.verdict == VERDICT_NEEDS_SHADOW \
                and finding.analysis == "data-layout" \
                and "resized" in finding.detail \
                and escapes_seen.get(key) is False:
            out.append(Finding(
                analysis="absint-escape", verdict=VERDICT_SAFE,
                unit=finding.unit, symbol=finding.symbol,
                detail="layout of %s resized, but the escape analysis "
                       "found no live pointer into it anywhere in the "
                       "replacement or the run kernel — downgraded "
                       "from needs-shadow" % finding.symbol))
        else:
            out.append(finding)
    return out
