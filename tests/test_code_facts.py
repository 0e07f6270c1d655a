"""Code facts computed once: the k86 decode table, the run build's code
index and the analyzer's per-section memos.

The decode sweep checks the table against a fresh
``isa.decode_instruction`` over every text section of the seed
corpus's run builds and of a 32-scenario factory corpus, cold and
warm, and that malformed bytes fail with the same message either way.
The lifetime checks pin down when each memo is built, shared and
dropped, and that no consumer can corrupt a memoized value.
"""

import pickle

import pytest

from repro.analysis import callgraph, codefacts
from repro.analysis.absint import function_summary
from repro.analysis.absint.equiv import _normalized_stream
from repro.arch import isa
from repro.arch.disassembler import (
    DECODE_TABLE,
    clear_decode_table,
    disassemble_one,
    iter_instructions,
)
from repro.compiler import CompilerOptions, compile_source
from repro.errors import DisassemblyError
from repro.evaluation import cache_stats, clear_caches
from repro.evaluation.analyze import analyze_corpus_cve
from repro.evaluation.corpus import CORPUS
from repro.evaluation.engine import run_build_for
from repro.evaluation.kernels import kernel_for_version
from repro.scenarios import GeneratedCorpus

MEMO_NAMES = ("absint-summary", "equiv-stream", "lint-decodes",
              "text-sleeps")


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _corpus_text_sections():
    versions = sorted({spec.kernel_version for spec in CORPUS})
    generated = GeneratedCorpus.generate(11, 32, "default")
    versions += generated.kernel_versions()
    sections = []
    for version in versions:
        build = run_build_for(kernel_for_version(version))
        for unit in sorted(build.objects):
            sections.extend(section.data for section
                            in build.objects[unit].text_sections())
    return sections


def _sweep(sections):
    """Decode every section instruction by instruction; returns the
    number of instructions checked."""
    checked = 0
    for data in sections:
        offset = 0
        while offset < len(data):
            fresh = isa.decode_instruction(data, offset)
            decoded = disassemble_one(data, offset)
            assert decoded.instruction == fresh
            assert decoded.raw == data[offset:offset + fresh.length]
            offset += fresh.length
            checked += 1
    return checked


def test_decode_table_matches_fresh_decode_cold_and_warm():
    sections = _corpus_text_sections()
    clear_decode_table()
    cold = _sweep(sections)
    assert cold > 10000
    distinct = len(DECODE_TABLE)
    assert 0 < distinct < cold
    warm = _sweep(sections)
    assert warm == cold
    assert len(DECODE_TABLE) == distinct


HOSTILE = (
    # invalid opcode
    (b"\xff", 0),
    (b"\x01\x01\xee\x01", 2),
    # truncated: movi needs six bytes
    (b"\x10\x00\x01", 0),
    (b"\x01\x10\x00\x01\x00", 1),
    # bad register: movr r9, r2
    (b"\x11\x09\x02", 0),
    (b"\x01\x11\x01\x0a", 1),
)

#: valid encodings sharing a prefix with the hostile ones above
WARMUP = (b"\x10\x00\x01\x00\x00\x00", b"\x11\x01\x02", b"\x01")


@pytest.mark.parametrize("code,offset", HOSTILE)
def test_hostile_bytes_fail_the_same_warm_and_cold(code, offset):
    with pytest.raises(DisassemblyError) as reference:
        isa.decode_instruction(code, offset)
    clear_decode_table()
    with pytest.raises(DisassemblyError) as cold:
        disassemble_one(code, offset)
    for good in WARMUP:
        disassemble_one(good)
    size = len(DECODE_TABLE)
    with pytest.raises(DisassemblyError) as warm:
        disassemble_one(code, offset)
    with pytest.raises(DisassemblyError) as streamed:
        list(iter_instructions(code, offset))
    assert str(cold.value) == str(reference.value)
    assert str(warm.value) == str(reference.value)
    assert str(streamed.value) == str(reference.value)
    assert len(DECODE_TABLE) == size  # failures are never tabled


def test_two_analyses_share_one_code_index(monkeypatch):
    built = []
    real = callgraph.build_code_index

    def counting(build):
        built.append(build)
        return real(build)

    monkeypatch.setattr(callgraph, "build_code_index", counting)
    spec = sorted(CORPUS, key=lambda s: s.cve_id)[0]
    first = analyze_corpus_cve(spec, use_cache=False)
    second = analyze_corpus_cve(spec, use_cache=False)
    assert len(built) == 1
    assert first.to_json_dict() == second.to_json_dict()
    build = run_build_for(kernel_for_version(spec.kernel_version))
    assert build.code_index is not None
    # derived state never crosses a pickle
    assert pickle.loads(pickle.dumps(build)).code_index is None


def test_clear_caches_drops_every_memo():
    spec = sorted(CORPUS, key=lambda s: s.cve_id)[0]
    analyze_corpus_cve(spec, use_cache=False)
    build = run_build_for(kernel_for_version(spec.kernel_version))
    assert build.code_index is not None
    caches = {cache.name: cache for cache in (
        codefacts.SUMMARY_CACHE, codefacts.STREAM_CACHE,
        codefacts.DECODES_CACHE, codefacts.SLEEPS_CACHE)}
    assert set(caches) == set(MEMO_NAMES)
    assert set(MEMO_NAMES) <= set(cache_stats())
    assert len(caches["absint-summary"]) > 0
    assert len(caches["equiv-stream"]) > 0
    assert len(DECODE_TABLE) > 0

    clear_caches()
    assert all(len(cache) == 0 for cache in caches.values())
    assert len(DECODE_TABLE) == 0
    fresh = run_build_for(kernel_for_version(spec.kernel_version))
    assert fresh is not build and fresh.code_index is None


FS_OPTIONS = CompilerOptions(opt_level=0, function_sections=True,
                             data_sections=True)
SOURCE = """
int depot;

int stash(int a, int b) {
    depot = a + b;
    __sched();
    return a;
}
"""


def test_memoized_summary_and_stream_resist_consumers():
    obj = compile_source(SOURCE, "u.c", FS_OPTIONS).objfile
    first = function_summary(obj, "stash")
    assert first is not None and first.rets and first.sleep_sites
    expected = (set(first.arg_slots_read), list(first.rets),
                list(first.accesses), list(first.sleep_sites))
    first.arg_slots_read.add(99)
    first.rets.clear()
    first.accesses.clear()
    first.sleep_sites.append(1234)
    again = function_summary(obj, "stash")
    assert (again.arg_slots_read, again.rets, again.accesses,
            again.sleep_sites) == expected
    assert codefacts.SUMMARY_CACHE.stats.hits == 1

    stream = _normalized_stream(obj.sections[".text.stash"])
    assert isinstance(stream, tuple) and stream
    assert _normalized_stream(obj.sections[".text.stash"]) == stream
    assert codefacts.STREAM_CACHE.stats.hits == 1
