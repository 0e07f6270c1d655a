"""The three workloads: inputs from a seed, one op at a time, checked.

Each workload is a closed loop with one caller: the next op starts only
after the previous one finished.  A run does a fixed number of ops, so
two runs of one seed do the same work however fast the host is.  ``op(i)`` runs op ``i`` and returns an
:class:`OpResult` checked against an answer the code under test did
not compute:

``proof-sweep``
    scenario ``i`` of a factory corpus: ``kernel_for_version`` ->
    ``run_build_for`` -> ``ksplice_create`` with the absint proof.
    Checked against the factory's stamped ``Expected.verdict`` and
    ``is_proven()``.  No machine boots.
``fleet-rollout``
    CVE ``i`` of a seeded permutation of the 64-CVE seed corpus, rolled
    out by ``rollout_corpus_cve`` to a 4-member fleet in four canary
    waves of one member each under the ``stress`` workload.  Every
    third rollout injects an oops into a later wave (waves 1, 2 and 3
    in turn).  Unfaulted: ``complete`` with every member updated and
    the survivors healthy.  Faulted: ``halted`` at the faulted wave,
    that wave's members all rolled back, earlier waves still patched,
    survivors healthy.  The running kernels are built during set-up.
``publish``
    the operator's path: an in-process control-plane daemon on
    loopback and one ``repro worker`` subprocess.  There is one channel
    per kernel version (14), with 4 members each; the members of every
    other channel, in version order, live on the worker.  Op ``i``
    publishes CVE ``i`` of a seeded permutation of the seed corpus to
    its version's channel over HTTP.  It then polls
    ``GET /rollouts/<id>`` until the rollout is terminal and the
    registry shows its outcome.  Checked: every eligible member's
    ``applied_sequence`` equals the entry's sequence.  The daemon
    restarts once, mid-stream, over the same data directory.  The
    daemon's kernels are built during set-up; the worker builds each
    of its kernels on its first rollout of that version.

The three seed-corpus CVEs with a stateful health probe halt every
multi-wave rollout with no fault injected.  Those ops count as failed
and carry the known-defect label; any other failure is unexpected.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from layers import member_pauses_ms

#: seed-corpus CVEs whose health probe (``sys_*_tick``) returns 65, 130,
#: 195 on repeated calls: the second health gate of any multi-wave
#: rollout sees the wrong value and goes red with no fault injected.
STATEFUL_PROBE_CVES = frozenset(
    {"CVE-2005-3847", "CVE-2006-6106", "CVE-2007-5904"})
STATEFUL_PROBE_DEFECT = ("known defect: stateful health probe "
                         "(sys_*_tick returns 65, 130, 195 on repeated "
                         "calls)")

#: fleet-rollout plan: 4 members, canary 1, growth 1.  The waves are
#: written out by hand so the expected outcome does not come from the
#: code under test.
FLEET_SIZE = 4
FLEET_WAVES = ([0], [1], [2], [3])
#: faulted rollouts inject the oops into the first member of these
#: waves in turn: every run has the same mix of early and late halts
FAULT_WAVES = (1, 2, 3)

#: publish: registered members per channel (canary 1, growth 2 -> waves
#: of 1, 2 and 1 members)
MEMBERS_PER_CHANNEL = 4
POLL_INTERVAL_S = 0.02
OP_TIMEOUT_S = 120.0


@dataclass
class OpResult:
    """One op's outcome; ``seconds`` is filled in by the loop."""

    name: str
    ok: bool = True
    #: a failure explained by a documented known defect
    known_defect: bool = False
    cause: str = ""
    seconds: float = 0.0
    first_wave_s: Optional[float] = None
    waves: int = 0
    #: per-member stop_machine windows read from the rollout's trace
    #: (fleet-rollout only; the daemon does not expose its traces)
    pauses_ms: List[float] = field(default_factory=list)

    def fail(self, cause: str, known_defect: bool = False) -> "OpResult":
        self.ok = False
        self.known_defect = known_defect
        self.cause = cause
        return self


class Workload:
    """Base: subclasses set ``max_ops`` in ``setup`` and run ``op``."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.max_ops = 0
        #: set-up timings and end-of-run sizes for the per-layer table
        self.layer_extras: Dict[str, float] = {}
        #: correctness problems found outside any single op
        self.problems: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def midpoint(self) -> None:
        """Called once, between ops, when half the run is done."""

    def teardown(self) -> None:
        """Stop everything ``setup`` started."""

    def run_op(self, index: int) -> OpResult:
        """``op`` with unexpected exceptions recorded as failures."""
        try:
            return self.op(index)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            return OpResult(name="%s#%d" % (self.name, index)).fail(
                "%s: %s" % (type(exc).__name__, exc))


def _timed(extras: Dict[str, float], key: str, fn: Callable[[], Any]):
    start = time.perf_counter()
    try:
        return fn()
    finally:
        extras[key] = extras.get(key, 0.0) + time.perf_counter() - start


# -- proof-sweep --------------------------------------------------------------


class ProofSweep(Workload):
    name = "proof-sweep"
    #: scenarios generated; more than a run of any length uses
    corpus_size = 1024

    def setup(self) -> None:
        from repro.scenarios import GeneratedCorpus

        self.corpus = _timed(
            self.layer_extras, "scenarios.generate_s",
            lambda: GeneratedCorpus.generate(self.seed, self.corpus_size,
                                             "default"))
        self.max_ops = len(self.corpus.scenarios)

    def op(self, index: int) -> OpResult:
        from repro.core import create
        from repro.evaluation import engine, kernels
        from repro.pipeline import Trace

        scenario = self.corpus.scenarios[index]
        spec, expected = scenario.spec, scenario.expected
        result = OpResult(name="%s %s" % (spec.cve_id, scenario.shape))
        kernel = _timed(self.layer_extras, "evaluation.kernel_gen_s",
                        lambda: kernels.kernel_for_version(
                            spec.kernel_version))
        build = engine.run_build_for(kernel)
        patch = kernel.patch_for(spec.cve_id,
                                 augmented=spec.table1 is not None)
        report = create.CreateReport()
        create.ksplice_create(kernel.tree, patch,
                              description=spec.description,
                              allow_data_changes=True, report=report,
                              run_build=build, trace=Trace(label=spec.cve_id),
                              absint=True)
        analysis = report.analysis
        if analysis is None:
            return result.fail("create returned no analysis")
        if analysis.verdict != expected.verdict:
            return result.fail("verdict %s, factory stamped %s"
                               % (analysis.verdict, expected.verdict))
        if not analysis.is_proven():
            return result.fail("verdict %s is not proven"
                               % analysis.verdict)
        return result


# -- fleet-rollout ------------------------------------------------------------


class FleetRollout(Workload):
    name = "fleet-rollout"

    def setup(self) -> None:
        from repro.evaluation import kernels
        from repro.evaluation.corpus import CORPUS

        self.order = [spec.cve_id for spec in CORPUS]
        random.Random(self.seed).shuffle(self.order)
        _prebuild(self.layer_extras,
                  sorted({spec.kernel_version for spec in CORPUS}))
        # a run of 64 ops or more includes the corpus's heaviest
        # rollout, which sets the peak RSS; past 64 it goes round again
        self.max_ops = 3 * len(self.order)

    def plan_for(self, index: int):
        from repro.fleet import InjectedFault, RolloutPlan

        faults = []
        if index % 3 == 2:
            wave = FAULT_WAVES[index // 3 % len(FAULT_WAVES)]
            faults = [InjectedFault("oops", member=FLEET_WAVES[wave][0],
                                    wave=wave)]
        return RolloutPlan(cve_id=self.order[index % len(self.order)],
                           fleet_size=FLEET_SIZE, canary=1, growth=1,
                           workload="stress", faults=faults)

    def op(self, index: int) -> OpResult:
        from repro.fleet import orchestrator
        from repro.pipeline import Trace

        plan = self.plan_for(index)
        fault_wave = plan.faults[0].wave if plan.faults else None
        result = OpResult(name="%s%s" % (
            plan.cve_id,
            "" if fault_wave is None else " oops@wave%d" % fault_wave))
        start = time.perf_counter()

        def on_wave(wave) -> None:
            if result.first_wave_s is None:
                result.first_wave_s = time.perf_counter() - start

        trace = Trace(label=plan.rollout_id())
        report = orchestrator.rollout_corpus_cve(plan, trace=trace,
                                                 on_wave=on_wave)
        result.waves = len(report.waves)
        result.pauses_ms = member_pauses_ms(trace)
        problem = check_rollout(report, fault_wave)
        if problem:
            # the defect turns the second health gate red, before or at
            # the faulted wave
            red = report.red_wave()
            stateful = (plan.cve_id in STATEFUL_PROBE_CVES
                        and red is not None
                        and (fault_wave is None or red.index <= fault_wave))
            return result.fail(
                "%s (%s)" % (STATEFUL_PROBE_DEFECT, problem) if stateful
                else problem, known_defect=stateful)
        return result


def _prebuild(extras: Dict[str, float], versions: List[str]) -> None:
    """Generate and build the running kernels before the clock starts:
    a fleet runs them already, so their builds are set-up, not ops."""
    from repro.evaluation import engine, kernels

    for version in versions:
        kernel = _timed(extras, "evaluation.kernel_gen_s",
                        lambda: kernels.kernel_for_version(version))
        _timed(extras, "kbuild.prebuild_s",
               lambda: engine.run_build_for(kernel))


def check_rollout(report, fault_wave: Optional[int]) -> str:
    """"" when the rollout matches its plan's expected outcome."""
    if not report.survivors_healthy:
        return "surviving members unhealthy"
    if fault_wave is None:
        if report.outcome != "complete":
            return "unfaulted rollout ended %s" % report.outcome
        if sorted(report.updated_members) != list(range(FLEET_SIZE)):
            return "updated %s, expected all %d members" % (
                report.updated_members, FLEET_SIZE)
        return ""
    red = report.red_wave()
    if report.outcome != "halted" or red is None:
        return "oops in wave %d, rollout ended %s" % (fault_wave,
                                                      report.outcome)
    if red.index != fault_wave:
        return "wave %d went red, oops was in wave %d" % (red.index,
                                                          fault_wave)
    applied = sorted(r.member for r in red.member_reports if r.applied)
    expected = sorted(FLEET_WAVES[fault_wave])
    if applied != expected or sorted(red.rolled_back) != expected:
        return "red wave applied %s, rolled back %s, expected %s" % (
            applied, sorted(red.rolled_back), expected)
    earlier = sorted(m for wave in FLEET_WAVES[:fault_wave] for m in wave)
    if sorted(report.updated_members) != earlier:
        return "updated %s after halt, expected %s" % (
            report.updated_members, earlier)
    return ""


# -- publish ------------------------------------------------------------------


class Publish(Workload):
    name = "publish"

    def setup(self) -> None:
        from repro.evaluation.corpus import CORPUS

        self.data_dir = tempfile.mkdtemp(prefix="publish-",
                                         dir=self.workdir)
        self.worker = None
        self.server = None
        self.worker_address = _timed(
            self.layer_extras, "distributed.worker_spawn_s",
            self._spawn_worker)
        self._start_daemon()
        # one channel per kernel version; every other one, in version
        # order, has its members on the worker
        versions = sorted({spec.kernel_version for spec in CORPUS})
        self.channels = {version: "ch%02d" % index
                         for index, version in enumerate(versions)}
        self.remote = set(versions[1::2])
        _prebuild(self.layer_extras,
                  [v for v in versions if v not in self.remote])
        for version, name in self.channels.items():
            self.client.create_channel(name)
            worker = self.worker_address if version in self.remote else ""
            for member in range(MEMBERS_PER_CHANNEL):
                self.client.register_member(
                    "%s-m%d" % (name, member), version, channel=name,
                    worker=worker)
        self.members = len(self.channels) * MEMBERS_PER_CHANNEL
        # Each CVE is published to its kernel version's channel, in a
        # seeded order.  A run of 64 ops or more includes the corpus's
        # heaviest rollout; past 64 it republishes, and the publish gate
        # finds its analysis cached.
        self.order = [(spec.cve_id, spec.kernel_version) for spec in CORPUS]
        random.Random(self.seed).shuffle(self.order)
        self.max_ops = 3 * len(self.order)

    def _spawn_worker(self) -> str:
        self.worker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        line = self.worker.stdout.readline()
        # "worker listening on HOST:PORT (pid ...)"
        words = line.split()
        if len(words) < 4 or words[:3] != ["worker", "listening", "on"]:
            raise RuntimeError("repro worker did not start: %r" % line)
        return words[3]

    def _start_daemon(self) -> None:
        from repro.controlplane import ControlPlaneClient, ControlPlaneServer

        self.server = ControlPlaneServer(("127.0.0.1", 0),
                                         data_dir=self.data_dir)
        self.server_thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="controlplane", daemon=True)
        self.server_thread.start()
        self.client = ControlPlaneClient(self.server.url)

    def _stop_daemon(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self.server_thread.join(timeout=10)
        self.server = None

    def midpoint(self) -> None:
        """Restart the daemon over the same data directory; the registry
        must come back whole."""
        start = time.perf_counter()
        self._stop_daemon()
        self._start_daemon()
        members = self.client.members()
        self.layer_extras["controlplane.recover_s"] = \
            time.perf_counter() - start
        if len(members) != self.members:
            self.problems.append(
                "daemon restart recovered %d of %d members"
                % (len(members), self.members))

    def op(self, index: int) -> OpResult:
        cve_id, version = self.order[index % len(self.order)]
        name = self.channels[version]
        result = OpResult(name="%s %s%s" % (
            name, cve_id, " (worker)" if version in self.remote else ""))
        start = time.perf_counter()
        deadline = start + OP_TIMEOUT_S
        record = self.client.publish(name, cve_id)
        rollout_id = record["rollout_id"]
        while record["status"] == "running":
            if time.perf_counter() > deadline:
                return result.fail("rollout %s still running after %.0f s"
                                   % (rollout_id, OP_TIMEOUT_S))
            time.sleep(POLL_INTERVAL_S)
            record = self.client.rollout(rollout_id)
            if record["waves"] and result.first_wave_s is None:
                result.first_wave_s = time.perf_counter() - start
        result.waves = len(record["waves"])
        eligible = set(record["member_ids"])
        # the registry absorbs the outcome just after the record turns
        # terminal; the op ends when every eligible member shows it
        while True:
            members = [m for m in self.client.members()
                       if m["member_id"] in eligible]
            if all(m["health_history"] and
                   m["health_history"][-1]["rollout_id"] == rollout_id
                   for m in members):
                break
            if time.perf_counter() > deadline:
                return result.fail("registry never absorbed %s"
                                   % rollout_id)
            time.sleep(POLL_INTERVAL_S)
        behind = sorted(m["member_id"] for m in members
                        if m["applied_sequence"] != record["sequence"])
        if record["status"] != "complete" or behind:
            problem = "rollout %s ended %s; members not at #%d: %s" % (
                rollout_id, record["status"], record["sequence"],
                ", ".join(behind) or "-")
            stateful = (cve_id in STATEFUL_PROBE_CVES
                        and record["status"] == "halted")
            return result.fail(
                "%s (%s)" % (STATEFUL_PROBE_DEFECT, problem) if stateful
                else problem, known_defect=stateful)
        return result

    def teardown(self) -> None:
        try:
            self._stop_daemon()
        finally:
            if self.worker is not None:
                self.worker.terminate()
                try:
                    self.worker.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.worker.kill()
                    self.worker.wait(timeout=10)
                self.worker.stdout.close()
                self.layer_extras["distributed.worker_peak_rss_mb"] = \
                    resource.getrusage(
                        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            if os.path.isdir(self.data_dir):
                self.layer_extras["controlplane.store_bytes"] = sum(
                    os.path.getsize(os.path.join(root, name))
                    for root, _, names in os.walk(self.data_dir)
                    for name in names)
                shutil.rmtree(self.data_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ProofSweep, FleetRollout, Publish)}
