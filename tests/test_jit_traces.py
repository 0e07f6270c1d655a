"""Tracing-JIT lifecycle vs live patching.

The JIT may only ever be an invisible accelerator: traces compiled
from hot k86 regions must produce bit-identical architectural results,
and any write that lands on decoded code — a Ksplice apply or undo at
stop_machine, or plain self-modifying stores — must evict every
overlapping trace before the new bytes can matter.
"""

import sys
import threading
from collections import OrderedDict

import pytest

import repro.kernel.cpu as cpu
from repro.core import KspliceCore, ksplice_create
from repro.evaluation import corpus_by_id
from repro.evaluation.engine import run_build_for
from repro.evaluation.kernels import kernel_for_version
from repro.evaluation.stress import STRESS_OK, load_sustained_workload
from repro.kernel import boot_kernel, jit, set_jit_enabled

CVE = "CVE-2006-2451"

_HOT_LOOP = """
int main(void) {
    int acc = 7;
    for (int round = 0; round < 300; round++) {
        for (int i = 1; i < 20; i++) {
            acc = (acc * 31 + i) & 65535;
            acc = acc ^ (acc >> 3);
        }
    }
    return acc;
}
"""

_PRCTL_HAMMER = """
int main(void) {
    int denials = 0;
    for (int i = 0; i < 80; i++) {
        if (__syscall(%d, 4, 2, 0) != 0) { denials++; }
    }
    return denials;
}
"""


def _boot(kernel):
    return boot_kernel(kernel.tree, quantum=50)


def _hammer_source(kernel):
    return _PRCTL_HAMMER % kernel.syscall_numbers["sys_prctl"]


def test_hot_loop_traces_and_stays_architecturally_identical():
    kernel = kernel_for_version("2.6.16-deb3")

    prev = set_jit_enabled(False)
    try:
        machine = _boot(kernel)
        interp_exit = machine.run_user_program(_HOT_LOOP, name="i")
        interp_insns = machine.scheduler.total_instructions
    finally:
        set_jit_enabled(prev)

    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        jit_exit = machine.run_user_program(_HOT_LOOP, name="j")
        jit_insns = machine.scheduler.total_instructions
        stats = machine.trace_stats()
    finally:
        set_jit_enabled(prev)

    assert jit_exit == interp_exit
    assert jit_insns == interp_insns
    assert stats["traces_compiled"] > 0
    assert stats["trace_hits"] > 0
    # perf smoke (deterministic counters, not wall clock): the hot
    # loop must spend the bulk of its instructions inside traces
    assert stats["traced_insns"] > stats["interpreted_insns"]


def test_apply_at_stop_machine_evicts_overlapping_traces():
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        core = KspliceCore(machine)

        # Heat the syscall path until the prctl handler is traced.
        denials = machine.run_user_program(_hammer_source(kernel),
                                           name="warm")
        assert denials == 0  # unpatched kernel accepts dumpable=2
        before = machine.trace_stats()
        assert before["traces_compiled"] > 0

        pack = ksplice_create(kernel.tree, kernel.patch_for(spec.cve_id))
        core.apply(pack)
        after = machine.trace_stats()
        assert after["traces_evicted"] > before["traces_evicted"], (
            "patching sys_prctl must evict the traces that inlined it")

        # The patched path is what actually runs now.
        denials = machine.run_user_program(_hammer_source(kernel),
                                           name="patched")
        assert denials == 80
        # Undo the warm-up's lingering dumpable=2 (set while the
        # kernel was still unpatched), then prove the exploit is dead.
        assert machine.call_function("sys_prctl", [4, 0, 0]) == 0
        assert machine.run_user_program(
            kernel.exploit_source(spec), name="x") == 1000
    finally:
        set_jit_enabled(prev)


def test_undo_at_stop_machine_evicts_reheated_traces():
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        core = KspliceCore(machine)
        pack = ksplice_create(kernel.tree, kernel.patch_for(spec.cve_id))
        core.apply(pack)

        # Re-heat on the patched code, then undo: the traces compiled
        # from the *patched* bytes must die with the undo.
        assert machine.run_user_program(_hammer_source(kernel),
                                        name="hot") == 80
        before = machine.trace_stats()["traces_evicted"]
        core.undo(pack.update_id)
        assert machine.trace_stats()["traces_evicted"] > before

        # And the pre-patch semantics are back.
        assert machine.run_user_program(_hammer_source(kernel),
                                        name="old") == 0
    finally:
        set_jit_enabled(prev)


def test_plain_code_store_evicts_traces():
    """A store into decoded kernel text — no stop_machine involved —
    must still evict overlapping traces, even when it writes back the
    very same bytes."""
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        assert machine.run_user_program(_hammer_source(kernel),
                                        name="warm") == 0
        before = machine.trace_stats()["traces_evicted"]
        addr = machine.symbol("sys_prctl")
        machine.memory.write_u32(addr, machine.memory.read_u32(addr))
        assert machine.trace_stats()["traces_evicted"] > before
        # Still correct afterwards (traces recompile on demand).
        assert machine.run_user_program(_hammer_source(kernel),
                                        name="again") == 0
    finally:
        set_jit_enabled(prev)


def test_health_report_carries_trace_counters():
    kernel = kernel_for_version("2.6.16-deb3")
    prev = set_jit_enabled(True)
    try:
        machine = _boot(kernel)
        machine.run_user_program(_HOT_LOOP, name="hot")
        stats = machine.trace_stats()
        health = machine.health().to_json_dict()
    finally:
        set_jit_enabled(prev)
    assert health["traced_insns"] == stats["traced_insns"]
    assert health["trace_hits"] == stats["trace_hits"]
    assert health["traces_evicted"] == stats["traces_evicted"]
    assert health["traces_compiled"] == stats["traces_compiled"]


def test_op_cache_lru_stays_bounded_and_correct():
    """Regression: the process-global decoded-op cache must stay under
    its cap via LRU eviction, and eviction must never affect results
    (evicted entries are simply re-decoded)."""
    saved_cache = cpu._OP_CACHE
    saved_max = cpu._OP_CACHE_MAX
    kernel = kernel_for_version("2.6.16-deb3")
    try:
        cpu._OP_CACHE = OrderedDict()
        cpu._OP_CACHE_MAX = 64  # far below a kernel's working set
        machine = _boot(kernel)
        exit_value = machine.run_user_program(_HOT_LOOP, name="tiny")
        assert len(cpu._OP_CACHE) <= 64
    finally:
        cpu._OP_CACHE = saved_cache
        cpu._OP_CACHE_MAX = saved_max

    machine = _boot(kernel)
    assert machine.run_user_program(_HOT_LOOP, name="ref") == exit_value


class _CountingRecorder(jit.TraceRecorder):
    """TraceRecorder that logs every head it is armed at, and every
    recording a thread switch completed."""

    __slots__ = ()
    armed: list = []
    switch_commits: list = []

    def __init__(self, entry):
        _CountingRecorder.armed.append(entry)
        super().__init__(entry)

    def record(self, memory, ip, nip):
        switched = ip != self.expected
        status = super().record(memory, ip, nip)
        if switched:
            _CountingRecorder.switch_commits.append((self.entry, status))
        return status


@pytest.fixture
def recorders(monkeypatch):
    """Count recordings with the JIT on; start from an empty shared
    trace table so every trace in the test is recorded or installed
    in the test."""
    monkeypatch.setattr(cpu, "TraceRecorder", _CountingRecorder)
    monkeypatch.setattr(_CountingRecorder, "armed", [])
    monkeypatch.setattr(_CountingRecorder, "switch_commits", [])
    jit.TRACE_TABLE.clear()
    prev = set_jit_enabled(True)
    try:
        yield _CountingRecorder
    finally:
        set_jit_enabled(prev)
        jit.TRACE_TABLE.clear()


def _memory_digest(machine):
    # trailing zeros stripped: the JIT fully materializes reserved
    # areas it touches, lazy zero-fill reaches the same bytes
    return tuple((segment.name, bytes(segment.data).rstrip(b"\0"))
                 for segment in machine.memory._segments)


def test_rewriting_a_blacklisted_head_lets_it_record_again(recorders):
    kernel = kernel_for_version("2.6.16-deb3")
    reference = _boot(kernel)
    reference.run_user_program(_HOT_LOOP, name="hot")
    head = recorders.armed[0]

    jit.TRACE_TABLE.clear()
    machine = _boot(kernel)
    machine.load_user_program(_HOT_LOOP, name="hot")
    cpu._cache_for(machine.memory).counters[head] = -(1 << 30)
    recorders.armed.clear()
    machine.run(max_instructions=20_000)
    assert head not in recorders.armed

    # same bytes back: the write alone must lift the back-off
    machine.memory.write_bytes(head, machine.memory.read_bytes(head, 1))
    machine.run(max_instructions=20_000)
    assert head in recorders.armed


def test_thread_switch_commits_recordings_and_never_rearms(recorders):
    """Three stress threads at the default 50-instruction quantum: most
    recordings outlive their thread's quantum.  Each is committed at
    the switch instead of aborted, so no head is ever armed twice, and
    the run stays architecturally identical to the interpreter."""
    kernel = kernel_for_version("2.6.16-deb3")
    runs = {}
    for enabled in (False, True):
        prev = set_jit_enabled(enabled)
        try:
            machine = _boot(kernel)
            threads = load_sustained_workload(machine, threads=3,
                                              rounds=40)
            machine.run(max_instructions=2_000_000)
        finally:
            set_jit_enabled(prev)
        runs[enabled] = (
            [t.exit_value for t in threads],
            machine.scheduler.total_instructions,
            _memory_digest(machine),
            machine.trace_stats(),
            cpu._cache_for(machine.memory).traces)

    interp, traced = runs[False], runs[True]
    assert interp[0] == [STRESS_OK] * 3
    assert traced[:3] == interp[:3]

    stats, traces = traced[3], traced[4]
    assert stats["traces_evicted"] == 0
    assert len(recorders.armed) == len(set(recorders.armed)), (
        "a head was armed again after its recording ended")
    assert stats["traces_compiled"] == len(recorders.armed)
    assert recorders.switch_commits, "no recording met a thread switch"
    for entry, status in recorders.switch_commits:
        assert status == "ok"
        assert entry in traces


def test_fresh_machine_installs_shared_trace_and_apply_evicts_only_its_own(
        recorders):
    spec = corpus_by_id(CVE)
    kernel = kernel_for_version(spec.kernel_version)
    build = run_build_for(kernel)
    pack = ksplice_create(kernel.tree, kernel.patch_for(spec.cve_id))
    hammer = _hammer_source(kernel)

    def boot():
        return boot_kernel(kernel.tree, build=build, quantum=50)

    # Interpreter reference for B's whole life: warm, apply, rerun.
    prev = set_jit_enabled(False)
    try:
        ref = boot()
        ref_warm = ref.run_user_program(hammer, name="warm")
        KspliceCore(ref).apply(pack)
        ref_patched = ref.run_user_program(hammer, name="patched")
        ref_insns = ref.scheduler.total_instructions
    finally:
        set_jit_enabled(prev)

    a = boot()
    assert a.run_user_program(hammer, name="warm") == ref_warm
    assert recorders.armed, "A must record its hot paths"
    a_traces = dict(cpu._cache_for(a.memory).traces)
    assert a_traces

    recorders.armed.clear()
    b = boot()
    assert b.run_user_program(hammer, name="warm") == ref_warm
    assert recorders.armed == [], "B must install, not record"
    b_stats = b.trace_stats()
    assert b_stats["traces_compiled"] > 0
    assert b_stats["trace_hits"] > 0

    KspliceCore(b).apply(pack)
    assert b.trace_stats()["traces_evicted"] > 0
    assert cpu._cache_for(a.memory).traces == a_traces
    assert all(trace.valid for trace in a_traces.values())

    assert b.run_user_program(hammer, name="patched") == ref_patched
    assert b.scheduler.total_instructions == ref_insns
    # A still runs the unpatched kernel through its own traces
    assert a.run_user_program(hammer, name="again") == ref_warm

    # C's sys_prctl bytes differ (patched before it ever ran), so
    # A's variants over them must not install there.
    c = boot()
    KspliceCore(c).apply(pack)
    differing = 0
    for entry in a_traces:
        variant = jit.TRACE_TABLE.match(entry, a.memory)
        if c.memory.read_bytes(variant.lo,
                               variant.hi - variant.lo) != variant.raw:
            differing += 1
            assert jit.TRACE_TABLE.match(entry, c.memory) is not variant
    assert differing, "no variant of A's covers the patched bytes"
    assert c.run_user_program(hammer, name="patched") == ref_patched


def test_trace_table_stays_consistent_under_concurrent_adds(monkeypatch):
    """Control-plane rollouts run machines on several threads, so the
    shared table's capped add must not lose or double-drop variants."""
    monkeypatch.setattr(jit, "_CODE_CACHE_MAX", 16)
    table = jit._TraceTable()
    workers, per_worker = 8, 1000

    def add_many(base):
        for i in range(per_worker):
            entry = base + (i % 5)
            table.add(jit.SharedTrace(entry, entry, entry + 1, b"\0",
                                      (entry, i), None))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=add_many, args=(k * 16,))
                   for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    held = sum(len(variants) for variants in table.by_entry.values())
    assert table.size == held == 16
    assert all(table.by_entry.values())
