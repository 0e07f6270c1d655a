"""§6.3 headline results.

The paper: "We have used Ksplice to correct all 64 of the significant
32-bit x86 kernel vulnerabilities during the time interval.  56 of the
64 patches can be applied by Ksplice without writing any new code."

Success here means all three §6.2 criteria held: (a) the update applied
cleanly (run-pre consistent, all symbols resolved, stack check passed),
(b) the kernel kept passing the correctness-checking stress battery,
(c) where an exploit or semantics probe exists, it flipped.
"""


def test_all_64_patches_hot_apply(corpus_report, benchmark):
    successes = benchmark(corpus_report.successes)

    failed = [r.cve_id for r in corpus_report.results if not r.success]
    print("\n§6.3 headline: %d/%d updates succeeded on all criteria"
          % (len(successes), corpus_report.total()))
    if failed:
        print("failures: %s" % failed)
    assert corpus_report.total() == 64
    assert len(successes) == 64


def test_56_of_64_need_no_new_code(corpus_report, benchmark):
    count = benchmark(corpus_report.no_new_code_count)
    print("\npatches applied without writing any new code: %d/64 "
          "(paper: 56; i.e. %.0f%% of vulnerabilities corrected "
          "with zero programmer code)" % (count, 100 * count / 64))
    assert count == 56


def test_clean_apply_criteria_recorded(corpus_report, benchmark):
    def collect():
        return [(r.applied_cleanly, r.stress_ok)
                for r in corpus_report.results]

    criteria = benchmark(collect)
    assert all(applied for applied, _ in criteria)
    assert all(stress for _, stress in criteria)


def test_kernels_keep_running_after_every_update(corpus_report, benchmark):
    failures = benchmark(
        lambda: [f for r in corpus_report.results
                 for f in r.stress_failures])
    assert failures == []


def test_every_update_is_reversible(benchmark):
    """§5: "reversing an update removes the jump instructions so that
    the original function text is once again executed" — verified for
    all 56 no-new-code updates (Table-1 entries intentionally leave
    migrated data behind, so their probes cannot revert)."""
    from repro.evaluation import evaluate_corpus

    report = benchmark.pedantic(
        lambda: evaluate_corpus(run_stress=False, verify_undo=True),
        rounds=1, iterations=1)
    checked = [r for r in report.results if r.undo_ok is not None]
    not_reverted = [r.cve_id for r in checked if not r.undo_ok]
    print("\nundo verified on %d/64 updates (8 Table-1 entries skipped: "
          "their migration hooks intentionally persist); failures: %s"
          % (len(checked), not_reverted or "none"))
    assert len(checked) == 56
    assert not_reverted == []
