"""Tests for the evaluation harness: per-CVE pipelines and the §6.3
aggregate statistics.

The full 64-CVE sweep lives in the benchmarks; here a representative
subset runs with all criteria enabled, plus the aggregate math is
checked on a stress-free full pass.
"""

import pytest

from repro.evaluation import corpus_by_id, evaluate_corpus, evaluate_cve
from repro.evaluation.harness import (
    EvaluationReport,
    evaluate_original_patch_only,
)
from repro.evaluation.kernels import kernel_for_version
from repro.evaluation.stress import run_stress_battery
from repro.kernel import boot_kernel

REPRESENTATIVES = [
    "CVE-2006-2451",   # exploit, prctl
    "CVE-2007-4573",   # exploit, assembly entry path
    "CVE-2005-4639",   # ambiguous 'debug'
    "CVE-2005-1263",   # inlined guard (declared inline)
    "CVE-2006-4997",   # inlined guard (no keyword)
    "CVE-2005-3055",   # signature change
    "CVE-2005-3847",   # static local
    "CVE-2007-3851",   # Table 1, 1 line of new code
    "CVE-2005-2709",   # Table 1, shadow structures
    "CVE-2008-1367",   # 72-line hardening sweep
]


@pytest.mark.parametrize("cve_id", REPRESENTATIVES)
def test_representative_cves_fully_succeed(cve_id):
    result = evaluate_cve(corpus_by_id(cve_id))
    assert result.applied_cleanly, result.apply_error
    assert result.stress_ok, result.stress_failures
    assert result.success


def test_exploit_cve_records_flip():
    result = evaluate_cve(corpus_by_id("CVE-2006-2451"))
    assert result.exploit_worked_before is True
    assert result.exploit_blocked_after is True


def test_asm_cve_marks_is_asm_and_replaces_entry():
    result = evaluate_cve(corpus_by_id("CVE-2007-4573"))
    assert result.is_asm
    assert result.replaced_functions == ["syscall_entry"]
    assert result.success


def test_inlined_measurement_matches_annotation():
    inlined = evaluate_cve(corpus_by_id("CVE-2005-1263"),
                           run_stress=False)
    assert inlined.inlined_in_run
    not_inlined = evaluate_cve(corpus_by_id("CVE-2006-2451"),
                               run_stress=False)
    assert not not_inlined.inlined_in_run


def test_ambiguity_measurement_matches_annotation():
    ambiguous = evaluate_cve(corpus_by_id("CVE-2005-4639"),
                             run_stress=False)
    assert ambiguous.ambiguous_symbol


def test_helper_larger_than_primary_across_cves():
    result = evaluate_cve(corpus_by_id("CVE-2006-3626"), run_stress=False)
    assert result.helper_bytes > result.primary_bytes > 0


def test_table1_original_patch_insufficient_augmented_sufficient():
    """The reason Table 1 exists: without the custom code the update
    applies but the live data stays wrong."""
    spec = corpus_by_id("CVE-2007-3851")
    assert evaluate_original_patch_only(spec) is False
    result = evaluate_cve(spec)
    assert result.success  # with the hook, fully corrected


def test_table1_shadow_cve_original_patch_insufficient():
    spec = corpus_by_id("CVE-2005-2709")
    assert evaluate_original_patch_only(spec) is False


def test_non_table1_returns_none_for_original_only_check():
    assert evaluate_original_patch_only(
        corpus_by_id("CVE-2006-2451")) is None


def test_stress_battery_passes_on_pristine_kernel():
    kernel = kernel_for_version("2.6.16-deb3")
    machine = boot_kernel(kernel.tree)
    report = run_stress_battery(machine)
    assert report.passed, report.failures
    assert report.programs_run == 6
    assert report.oops_count == 0


def test_stress_battery_catches_broken_kernel():
    """Sabotage the file layer; the battery must notice."""
    kernel = kernel_for_version("2.6.16-deb3")
    broken = kernel.tree.with_file(
        "fs/file.c",
        kernel.tree.read("fs/file.c").replace(
            "    int value = ramdisk[file_pos[fd]];",
            "    int value = ramdisk[file_pos[fd]] + 1;"))
    machine = boot_kernel(broken)
    report = run_stress_battery(machine)
    assert not report.passed
    assert any("file-roundtrip" in f for f in report.failures)


@pytest.fixture(scope="module")
def full_report() -> EvaluationReport:
    """One stress-free pass over the whole corpus (fast: ~10 s)."""
    return evaluate_corpus(run_stress=False)


def test_all_64_patches_apply(full_report):
    assert full_report.total() == 64
    failures = [r.cve_id for r in full_report.results if not r.success]
    assert failures == []


def test_56_of_64_need_no_new_code(full_report):
    assert full_report.no_new_code_count() == 56
    assert len(full_report.new_code_results()) == 8


def test_mean_new_code_lines_about_17(full_report):
    assert 16 <= full_report.mean_new_code_lines() <= 18


def test_figure3_aggregates(full_report):
    assert full_report.patches_at_most(5) == 35
    assert full_report.patches_at_most(15) == 53
    histogram = full_report.patch_length_histogram()
    assert sum(histogram.values()) == 64
    assert histogram["inf"] == 0


def test_sec63_inlining_statistics_measured(full_report):
    assert full_report.inlined_count() == 20
    assert full_report.declared_inline_count() == 4


def test_sec63_ambiguity_statistics_measured(full_report):
    assert full_report.ambiguous_count() == 5


def test_sec63_exploit_list(full_report):
    flipped = [r.cve_id for r in full_report.exploit_results()
               if r.exploit_worked_before and r.exploit_blocked_after]
    for cve_id in ("CVE-2006-2451", "CVE-2006-3626", "CVE-2007-4573",
                   "CVE-2008-0600"):
        assert cve_id in flipped


def test_table1_rows_match_paper(full_report):
    rows = full_report.table1_rows()
    assert len(rows) == 8
    by_id = {cve: (patch, reason, lines)
             for cve, patch, reason, lines in rows}
    assert by_id["CVE-2008-0007"] == ("2f98735", "changes data init", 34)
    assert by_id["CVE-2005-2709"] == ("330d57f", "adds field to struct",
                                      48)


def test_stop_machine_windows_short(full_report):
    stops = [r.stop_ms for r in full_report.results if r.applied_cleanly]
    assert stops
    # Sub-second in wall-clock terms for every update (the paper: 0.7ms).
    assert max(stops) < 1000
