"""The evaluation substrate (§6).

The paper evaluates Ksplice against all 64 significant x86-32 Linux
kernel security vulnerabilities from May 2005 to May 2008.  We cannot
ship Linux, so this package provides the closest synthetic equivalent:

* a **base kernel** ("minilinux") with an assembly syscall entry path,
  credential handling, a file layer, and a scheduler — all MiniC/k86,
  all actually executing on the simulated machine;
* a **64-CVE corpus** indexed by the paper's real CVE ids, constructed
  to the paper's published aggregate statistics (Figure 3 patch-length
  distribution, the 8 Table-1 data-semantics patches with their exact
  new-code line counts, 20/64 touching inlined functions, 4/64 declared
  inline, 5/64 with ambiguous symbol names, 4 with working exploits);
* 14 **kernel versions** (6 "Debian", 8 "vanilla") across which the
  CVEs are distributed, as in §6.2;
* a POSIX-stress-style **workload battery** used as the paper's second
  success criterion;
* a **harness** that pushes every CVE through the full
  ksplice-create/ksplice-apply pipeline and records the evaluation's
  success criteria.
"""

from repro.evaluation.specs import (
    CveCategory,
    CveSpec,
    ExploitSpec,
    Table1Info,
)
from repro.evaluation.corpus import (
    CORPUS,
    CorpusProvider,
    SEED_PROVIDER,
    SeedCorpus,
    corpus_by_id,
    load_corpus_provider,
)
from repro.evaluation.kernels import (
    DEBIAN_VERSIONS,
    VANILLA_VERSIONS,
    GeneratedKernel,
    kernel_for_version,
)
from repro.evaluation.harness import (
    CveResult,
    EvaluationReport,
    evaluate_cve,
)
from repro.evaluation.engine import (
    EngineStats,
    StageTiming,
    cache_stats,
    clear_caches,
    evaluate_corpus,
    normalize_result,
    run_build_for,
)
from repro.evaluation.stress import run_stress_battery

__all__ = [
    "CORPUS",
    "CorpusProvider",
    "SEED_PROVIDER",
    "SeedCorpus",
    "CveCategory",
    "CveResult",
    "CveSpec",
    "DEBIAN_VERSIONS",
    "EngineStats",
    "EvaluationReport",
    "ExploitSpec",
    "GeneratedKernel",
    "StageTiming",
    "Table1Info",
    "VANILLA_VERSIONS",
    "cache_stats",
    "clear_caches",
    "corpus_by_id",
    "evaluate_corpus",
    "evaluate_cve",
    "kernel_for_version",
    "load_corpus_provider",
    "normalize_result",
    "run_build_for",
    "run_stress_battery",
]
