"""``benchmarks/perfjson.record``: merge one bench's section into the
shared results file without ever dropping the others."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import perfjson  # noqa: E402


def test_record_merges_sections(tmp_path):
    path = str(tmp_path / "BENCH.json")
    perfjson.record("one", {"x": 1}, path=path)
    perfjson.record("two", {"y": 2}, path=path)
    with open(path) as handle:
        results = json.load(handle)
    assert results["one"]["x"] == 1 and results["two"]["y"] == 2


@pytest.mark.parametrize("content", ['{"other": {"kept": 1}',
                                     "[1, 2, 3]\n", "\xff\xfe garbage"])
def test_corrupt_results_file_is_left_untouched(tmp_path, content):
    path = tmp_path / "BENCH.json"
    path.write_bytes(content.encode("latin-1"))
    with pytest.raises(perfjson.CorruptResultsError):
        perfjson.record("mine", {"x": 1}, path=str(path))
    assert path.read_bytes() == content.encode("latin-1")
    assert sorted(os.listdir(str(tmp_path))) == ["BENCH.json"]
