"""The scenario composition engine.

Every scenario is generated by a pure function of ``(seed, mix,
index)``: a per-scenario :class:`random.Random` is derived from a
SHA-256 of those parameters (never from Python's salted ``hash``), a
*shape* is drawn from the mix's weight table, and the shape layers
archetype dimensions — multi-function diffs, prototype ripples,
data-layout changes needing shadow structs, syscall-table
interposition, inlined/ambiguous-symbol code, multi-unit edits — onto
the base fragment generators from :mod:`repro.evaluation.archetypes`.

Each emitted :class:`CveSpec` is stamped with an :class:`Expected`
ground truth — the analyzer verdict class, needs-shadow/needs-hooks
flags, probe pre/post values, and exploitability — that the oracle in
:mod:`repro.scenarios.model` checks against the actual pipeline
outcome.  The same ``(seed, size, mix)`` therefore reproduces the
identical corpus byte-for-byte in any process or worker.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.model import (
    VERDICT_NEEDS_HOOKS,
    VERDICT_NEEDS_SHADOW,
    VERDICT_SAFE,
)
from repro.errors import ReproError
from repro.evaluation import archetypes
from repro.evaluation.archetypes import Fragments, ProbeSpec
from repro.evaluation.corpus import _assemble_hook, _table1_data_init
from repro.evaluation.kernels import GENERATED_VERSION_PREFIX
from repro.evaluation.specs import CveCategory, CveSpec, Table1Info

#: Bumped whenever generation changes shape/content; manifests record it
#: and refuse to validate across versions (factory drift detection).
FACTORY_VERSION = "1"

#: Scenarios per generated kernel version.  Grouping amortizes the
#: build: one kernel hosts GROUP_SIZE scenarios, exactly the way the
#: seed corpus distributes 64 CVEs over 14 versions.
GROUP_SIZE = 8

_SUBSYSTEMS = ("drivers", "net", "fs", "kernel", "sound", "mm",
               "crypto", "block")


def seed_hex(seed: int) -> str:
    """Canonical 8-hex-digit form of a corpus seed (32-bit)."""
    return "%08x" % (seed & 0xFFFFFFFF)


def generated_version(seed: int, size: int, mix: str, group: int) -> str:
    """The ``gen@<seed>:<size>:<mix>#<group>`` kernel-version string —
    self-describing, so any process can rebuild the kernel from it."""
    return "%s%s:%d:%s#%04d" % (GENERATED_VERSION_PREFIX,
                                seed_hex(seed), size, mix, group)


def parse_generated_version(version: str) -> Tuple[int, int, str, int]:
    """Inverse of :func:`generated_version` → (seed, size, mix, group)."""
    if not version.startswith(GENERATED_VERSION_PREFIX):
        raise ReproError("not a generated kernel version: %r" % version)
    body = version[len(GENERATED_VERSION_PREFIX):]
    try:
        params, group_text = body.rsplit("#", 1)
        seed_text, size_text, mix = params.split(":", 2)
        return (int(seed_text, 16), int(size_text), mix, int(group_text))
    except ValueError:
        raise ReproError("malformed generated kernel version: %r"
                         % version)


@dataclass(frozen=True)
class Expected:
    """Machine-checkable ground truth stamped on a generated scenario."""

    verdict: str
    #: the patch needs programmer-written custom code (Table-1 class)
    needs_custom: bool
    exploitable: bool
    probe_function: str
    probe_pre: int
    probe_post: int
    expect_inlined: bool
    declared_inline: bool
    ambiguous_symbol: bool
    signature_change: bool
    static_local: bool
    multi_unit: bool
    #: every generated scenario's patch must hot-apply cleanly
    applies_cleanly: bool = True

    def to_json(self) -> Dict[str, object]:
        return dict(sorted(asdict(self).items()))


@dataclass
class GeneratedScenario:
    """One factory-produced corpus entry."""

    index: int
    shape: str
    dimensions: Tuple[str, ...]
    spec: CveSpec
    expected: Expected


# ---------------------------------------------------------------------------
# Shape generators.  Each returns (spec-kwargs, dimensions, expected);
# the composition engine fills in ids and version addressing.


@dataclass
class _Draft:
    """What a shape hands back to the composition engine."""

    fragments: Fragments
    dimensions: Tuple[str, ...]
    category: CveCategory
    description: str
    verdict: str = VERDICT_SAFE
    custom_code: str = ""
    init_functions: Tuple[str, ...] = ()
    table1: object = None
    health: object = None
    extra_units: Dict[str, Tuple[str, str]] = None  # type: ignore[assignment]
    expect_inlined: bool = False
    declared_inline: bool = False
    ambiguous_symbol: bool = False
    signature_change: bool = False
    static_local: bool = False
    multi_unit: bool = False


_ID = CveCategory.INFORMATION_DISCLOSURE
_PE = CveCategory.PRIVILEGE_ESCALATION

#: the base archetypes a *plain* (single-dimension) scenario draws from
_BASE_KINDS = ("bounds", "priv", "signed", "staticlocal", "sweep", "leak")


def _base_fragments(kind: str, stem: str,
                    rng: random.Random) -> Tuple[Fragments, CveCategory,
                                                 str, bool]:
    """One base archetype instance → (fragments, category, description,
    static_local)."""
    if kind == "bounds":
        frags = archetypes.missing_bounds_read(
            stem, table_len=rng.randrange(3, 7),
            secret=rng.randrange(5000, 9000),
            extra_checks=rng.randrange(0, 3))
        return frags, _ID, "table read without an upper bound", False
    if kind == "priv":
        frags = archetypes.missing_priv_check(
            stem, cap_bits=rng.choice((0x4, 0x8, 0x10, 0x20)))
        return frags, _PE, "capability grant without identity check", False
    if kind == "signed":
        frags = archetypes.signedness_write(
            stem, leak_value=rng.randrange(4000, 9000))
        return frags, _PE, "signedness bug clobbers the ACL word", False
    if kind == "staticlocal":
        frags = archetypes.static_local_counter(
            stem, threshold=rng.randrange(16, 97))
        return frags, _PE, "unvalidated tick on a static-local total", True
    if kind == "sweep":
        frags = archetypes.hardening_sweep(
            stem, added_lines=rng.randrange(3, 19))
        return frags, _PE, "systematic validation sweep", False
    if kind == "leak":
        frags = archetypes.uninitialized_leak(
            stem, words=rng.randrange(4, 9))
        return frags, _ID, "partially initialized reply buffer", False
    raise AssertionError(kind)


def _shape_plain(stem: str, rng: random.Random) -> _Draft:
    kind = rng.choice(_BASE_KINDS)
    frags, category, desc, static_local = _base_fragments(kind, stem, rng)
    return _Draft(fragments=frags, dimensions=("plain", kind),
                  category=category, description=desc,
                  static_local=static_local)


def _shape_multifn(stem: str, rng: random.Random) -> _Draft:
    """Two independent fixes landing in one unit: a multi-function diff."""
    kind_a = rng.choice(("bounds", "leak", "sweep"))
    kind_b = rng.choice(("priv", "signed"))
    frags_a, _cat_a, desc_a, _ = _base_fragments(kind_a, stem + "a", rng)
    frags_b, cat_b, desc_b, _ = _base_fragments(kind_b, stem + "b", rng)
    combined = Fragments(
        vulnerable=frags_a.vulnerable + "\n" + frags_b.vulnerable,
        fixed=frags_a.fixed + "\n" + frags_b.fixed,
        syscalls=list(frags_a.syscalls) + list(frags_b.syscalls),
        exploit=frags_b.exploit,
        probe=frags_a.probe)
    return _Draft(fragments=combined, dimensions=("multifn", kind_a, kind_b),
                  category=cat_b,
                  description="multi-function fix: %s + %s"
                              % (desc_a, desc_b))


def _shape_ripple(stem: str, rng: random.Random) -> _Draft:
    frags = archetypes.signature_change(stem)
    return _Draft(fragments=frags, dimensions=("ripple",), category=_PE,
                  description="prototype change rippling through callers",
                  signature_change=True)


def _shape_inline(stem: str, rng: random.Random) -> _Draft:
    declared = rng.random() < 0.3
    frags = archetypes.inline_guard(
        stem, declared_inline=declared,
        limit=rng.randrange(500, 2000),
        extra_hardening=rng.randrange(0, 3))
    return _Draft(fragments=frags,
                  dimensions=("inline",) + (("declared",) if declared
                                            else ()),
                  category=_PE,
                  description="patch lands in a compiler-inlined helper",
                  expect_inlined=True, declared_inline=declared)


def _shape_ambiguous(stem: str, rng: random.Random) -> _Draft:
    shared = rng.choice(("debug", "state"))
    frags = archetypes.ambiguous_static(stem, shared=shared,
                                        scale=rng.randrange(2, 6))
    return _Draft(fragments=frags, dimensions=("ambiguous", shared),
                  category=_ID,
                  description="patched code references the ambiguous "
                              "static %r" % shared,
                  ambiguous_symbol=True)


def _shape_interpose(stem: str, rng: random.Random) -> _Draft:
    """Syscall-table interposition: the fix demotes the handler to a
    static implementation and interposes a validating wrapper under the
    original table entry."""
    factor = rng.randrange(2, 6)
    vulnerable = """\
int %(stem)s_hits;

int sys_%(stem)s_op(int req, int b, int c) {
    %(stem)s_hits += 1;
    return req * %(factor)d + b;
}
""" % {"stem": stem, "factor": factor}
    fixed = """\
int %(stem)s_hits;

static int sys_%(stem)s_op_real(int req, int b, int c) {
    %(stem)s_hits += 1;
    return req * %(factor)d + b;
}

int sys_%(stem)s_op(int req, int b, int c) {
    if (req < 0) { return -22; }
    return sys_%(stem)s_op_real(req, b, c);
}
""" % {"stem": stem, "factor": factor}
    probe = ProbeSpec(function="sys_%s_op" % stem, args=(-3, 1, 0),
                      pre=(-3 * factor + 1) & 0xFFFFFFFF,
                      post=(-22) & 0xFFFFFFFF)
    frags = Fragments(vulnerable=vulnerable, fixed=fixed,
                      syscalls=["sys_%s_op" % stem], probe=probe)
    return _Draft(fragments=frags, dimensions=("interpose",), category=_PE,
                  description="syscall-table interposition via a "
                              "validating wrapper")


def _shape_multiunit(stem: str, rng: random.Random) -> _Draft:
    """One logical fix spanning two compilation units."""
    kind_a = rng.choice(("bounds", "priv", "signed"))
    kind_b = rng.choice(("leak", "sweep"))
    frags_a, cat_a, desc_a, _ = _base_fragments(kind_a, stem + "a", rng)
    frags_b, _cat_b, desc_b, _ = _base_fragments(kind_b, stem + "b", rng)
    extra_unit = "%s/%s_extra.c" % (rng.choice(_SUBSYSTEMS), stem)
    combined = Fragments(
        vulnerable=frags_a.vulnerable, fixed=frags_a.fixed,
        syscalls=list(frags_a.syscalls) + list(frags_b.syscalls),
        exploit=frags_a.exploit,
        probe=frags_a.probe)
    return _Draft(fragments=combined,
                  dimensions=("multiunit", kind_a, kind_b),
                  category=cat_a,
                  description="multi-unit fix: %s; %s in a second unit"
                              % (desc_a, desc_b),
                  extra_units={extra_unit: (frags_b.vulnerable,
                                            frags_b.fixed)},
                  multi_unit=True)


def _shape_datainit(stem: str, rng: random.Random) -> _Draft:
    """A 'changes data init' patch: needs-hooks ground truth."""
    slots = rng.randrange(4, 9)
    bad = rng.randrange(2, 10)
    good = rng.randrange(10, 20)
    hook_lines = rng.randrange(6, 25)
    donor = _table1_data_init(
        "GEN-DONOR", "0000000", "2.6.8-deb1", "x/donor.c", stem,
        "generated data-init scenario", slots=slots, bad_value=bad,
        good_value=good, hook_lines=hook_lines,
        patch_pad=rng.randrange(0, 7))
    frags = Fragments(vulnerable=donor.vulnerable_fragment,
                      fixed=donor.fixed_fragment,
                      syscalls=list(donor.syscalls),
                      probe=donor.probe)
    return _Draft(fragments=frags, dimensions=("datainit",), category=_PE,
                  description="persistent table initialized too "
                              "permissive; hook fixes live state",
                  verdict=VERDICT_NEEDS_HOOKS,
                  custom_code=donor.custom_code,
                  init_functions=tuple(donor.init_functions),
                  table1=donor.table1)


def _shape_shadow(stem: str, rng: random.Random) -> _Draft:
    """An 'adds field to struct' patch using shadow data structures:
    needs-shadow ground truth (the CVE-2005-2709 DynAMOS pattern)."""
    entries = rng.randrange(4, 8)
    key = rng.randrange(200, 400)
    hook_lines = rng.randrange(12, 49)
    ids = ", ".join(str(10 + i) for i in range(entries))
    vals = ", ".join(str(i + 1) for i in range(entries))
    names = {"stem": stem, "n": entries, "ids": ids, "vals": vals,
             "key": key, "rkey": key + 1}
    vulnerable = """\
int %(stem)s_id[%(n)d] = { %(ids)s };
int %(stem)s_val[%(n)d] = { %(vals)s };
int %(stem)s_registered = %(n)d;

int sys_%(stem)s_read(int idx, int b, int c) {
    if (idx < 0 || idx >= %(stem)s_registered) { return -22; }
    return %(stem)s_val[idx];
}

int sys_%(stem)s_unreg(int idx, int b, int c) {
    if (idx < 0 || idx >= %(stem)s_registered) { return -22; }
    %(stem)s_val[idx] = 0;
    return 0;
}
""" % names
    fixed = """\
int ksplice_shadow_get(int obj, int key);
int ksplice_shadow_set(int obj, int key, int val);

int %(stem)s_id[%(n)d] = { %(ids)s };
int %(stem)s_val[%(n)d] = { %(vals)s };
int %(stem)s_registered = %(n)d;

int sys_%(stem)s_read(int idx, int b, int c) {
    if (idx < 0 || idx >= %(stem)s_registered) { return -22; }
    if (ksplice_shadow_get(idx, %(key)d) < 1) { return -2; }
    ksplice_shadow_set(idx, %(rkey)d,
                       ksplice_shadow_get(idx, %(rkey)d) + 1);
    return %(stem)s_val[idx];
}

int sys_%(stem)s_unreg(int idx, int b, int c) {
    if (idx < 0 || idx >= %(stem)s_registered) { return -22; }
    ksplice_shadow_set(idx, %(key)d, 0);
    %(stem)s_val[idx] = 0;
    return 0;
}
""" % names
    core = [
        "    int attached = 0;",
        "    for (int i = 0; i < %(stem)s_registered; i++) {" % names,
        "        int live = %(stem)s_val[i] != 0;" % names,
        "        if (ksplice_shadow_set(i, %(key)d, live) < 0) "
        "{ return -1; }" % names,
        "        if (ksplice_shadow_set(i, %(rkey)d, 0) < 0) "
        "{ return -1; }" % names,
        "        attached++;",
        "    }",
    ]
    custom = _assemble_hook(
        "ksplice_%s_migrate" % stem, core, hook_lines,
        "    attached = attached + 0; /* migrate entry %d */",
        ["    if (attached != %s_registered) { return -1; }" % stem,
         "    return 0;"])
    probe = ProbeSpec(function="sys_%s_read" % stem, args=(1, 0, 0),
                      pre=0, post=(-2) & 0xFFFFFFFF,
                      setup=(("sys_%s_unreg" % stem, (1, 0, 0)),))
    health = ProbeSpec(function="sys_%s_read" % stem, args=(0, 0, 0),
                       pre=1, post=1)
    frags = Fragments(vulnerable=vulnerable, fixed=fixed,
                      syscalls=["sys_%s_read" % stem,
                                "sys_%s_unreg" % stem],
                      probe=probe)
    return _Draft(fragments=frags, dimensions=("shadow",), category=_PE,
                  description="fix adds a per-entry field; shadow "
                              "structures + migration hook",
                  verdict=VERDICT_NEEDS_SHADOW,
                  custom_code=custom,
                  table1=Table1Info(reason="adds field to struct",
                                    new_code_lines=hook_lines),
                  health=health)


_SHAPES: Dict[str, Callable[[str, random.Random], _Draft]] = {
    "plain": _shape_plain,
    "multifn": _shape_multifn,
    "ripple": _shape_ripple,
    "inline": _shape_inline,
    "ambiguous": _shape_ambiguous,
    "interpose": _shape_interpose,
    "multiunit": _shape_multiunit,
    "datainit": _shape_datainit,
    "shadow": _shape_shadow,
}

#: Named dimension mixes: shape → weight.  Mix names are part of the
#: corpus address, so they must not contain ``:`` or ``#``.
MIXES: Dict[str, Tuple[Tuple[str, int], ...]] = {
    # the full spread, roughly matching the seed corpus's proportions
    "default": (
        ("plain", 30), ("multifn", 12), ("ripple", 10), ("inline", 12),
        ("ambiguous", 8), ("interpose", 10), ("multiunit", 8),
        ("datainit", 6), ("shadow", 4),
    ),
    # code-only patches: every scenario is expected ``safe``
    "code-only": (
        ("plain", 40), ("multifn", 15), ("ripple", 15), ("inline", 15),
        ("ambiguous", 8), ("interpose", 7),
    ),
    # stress the data-semantics analyzers and custom-code paths
    "data-heavy": (
        ("datainit", 30), ("shadow", 20), ("plain", 25),
        ("multifn", 15), ("ripple", 10),
    ),
}


def _weighted_choice(rng: random.Random,
                     weights: Sequence[Tuple[str, int]]) -> str:
    total = sum(w for _name, w in weights)
    pick = rng.randrange(total)
    for name, weight in weights:
        if pick < weight:
            return name
        pick -= weight
    raise AssertionError("unreachable")


def scenario_rng(seed: int, mix: str, index: int) -> random.Random:
    """The per-scenario RNG: SHA-256-derived, so identical across
    processes regardless of hash randomization."""
    key = "%s:%d:%s" % (seed_hex(seed), index, mix)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def generate_scenario(seed: int, size: int, mix: str,
                      index: int) -> GeneratedScenario:
    """Generate scenario ``index`` of corpus ``(seed, size, mix)``.

    Pure: depends only on its arguments, never on sibling scenarios,
    which is what lets a distributed worker rebuild exactly one
    kernel-version group from the version string.
    """
    if mix not in MIXES:
        raise ReproError("unknown dimension mix %r (known: %s)"
                         % (mix, ", ".join(sorted(MIXES))))
    if not 0 <= index < size:
        raise ReproError("scenario index %d outside corpus size %d"
                         % (index, size))
    rng = scenario_rng(seed, mix, index)
    shape = _weighted_choice(rng, MIXES[mix])
    stem = "g%06d" % index
    unit = "%s/%s_%s.c" % (rng.choice(_SUBSYSTEMS), stem, shape)
    draft = _SHAPES[shape](stem, rng)
    frags = draft.fragments

    key = "%s:%d:%s" % (seed_hex(seed), index, mix)
    patch_id = hashlib.sha256(("patch:" + key).encode()).hexdigest()[:7]
    spec = CveSpec(
        cve_id="GEN-%s-%06d" % (seed_hex(seed), index),
        patch_id=patch_id,
        category=draft.category,
        kernel_version=generated_version(seed, size, mix,
                                         index // GROUP_SIZE),
        unit=unit,
        description="[%s] %s" % (shape, draft.description),
        vulnerable_fragment=frags.vulnerable,
        fixed_fragment=frags.fixed,
        custom_code=draft.custom_code,
        syscalls=list(frags.syscalls),
        init_functions=list(draft.init_functions),
        exploit=frags.exploit,
        probe=frags.probe,
        health=draft.health,
        table1=draft.table1,
        expect_inlined=draft.expect_inlined,
        declared_inline=draft.declared_inline,
        ambiguous_symbol=draft.ambiguous_symbol,
        signature_change=draft.signature_change,
        static_local=draft.static_local,
        extra_units=dict(draft.extra_units or {}),
    )
    probe = frags.probe
    expected = Expected(
        verdict=draft.verdict,
        needs_custom=draft.table1 is not None,
        exploitable=frags.exploit is not None,
        probe_function=probe.function,
        probe_pre=probe.pre,
        probe_post=probe.post,
        expect_inlined=draft.expect_inlined,
        declared_inline=draft.declared_inline,
        ambiguous_symbol=draft.ambiguous_symbol,
        signature_change=draft.signature_change,
        static_local=draft.static_local,
        multi_unit=draft.multi_unit,
    )
    return GeneratedScenario(index=index, shape=shape,
                             dimensions=draft.dimensions, spec=spec,
                             expected=expected)


def generate_scenarios(seed: int, size: int,
                       mix: str = "default") -> List[GeneratedScenario]:
    """The whole corpus, in index order."""
    return [generate_scenario(seed, size, mix, index)
            for index in range(size)]
