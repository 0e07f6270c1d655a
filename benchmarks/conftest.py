"""Shared fixtures for the benchmark suite.

The full corpus evaluation (all 64 CVEs through create+apply with the
stress battery and exploits) runs once per session and is shared by
every table/figure benchmark.
"""

import pytest

from repro.evaluation import EvaluationReport, evaluate_corpus


@pytest.fixture(scope="session")
def corpus_report() -> EvaluationReport:
    """One full §6 evaluation pass (all three success criteria)."""
    return evaluate_corpus(run_stress=True)
