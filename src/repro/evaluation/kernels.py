"""Kernel version generation (§6.2).

The paper tests its 64 patches across six Debian kernels and eight
"vanilla" kernels.  We mirror that: fourteen versions, each containing
the base kernel, three collision-host units (the source of duplicate
local symbol names), and the vulnerable fragments of the CVEs assigned
to that version, wired into the syscall table.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.evaluation.base_kernel import (
    BASE_UNITS,
    SYS_C,
    build_syscall_table,
    entry_source,
)
from repro.evaluation.corpus import CORPUS
from repro.evaluation.specs import CveSpec
from repro.kbuild import SourceTree
from repro.patch import make_patch

DEBIAN_VERSIONS = (
    "2.6.8-deb1", "2.6.12-deb2", "2.6.16-deb3", "2.6.18-deb4",
    "2.6.21-deb5", "2.6.24-deb6",
)
VANILLA_VERSIONS = (
    "2.6.9", "2.6.11", "2.6.15", "2.6.17", "2.6.20", "2.6.22",
    "2.6.23", "2.6.25",
)
ALL_VERSIONS = DEBIAN_VERSIONS + VANILLA_VERSIONS

#: Kernel versions produced by the scenario factory carry this prefix;
#: :func:`kernel_for_version` resolves them through
#: :mod:`repro.scenarios` so every consumer (harness, process pools,
#: distributed workers) can rebuild a generated kernel from the version
#: string alone.
GENERATED_VERSION_PREFIX = "gen@"

#: Units present in every version purely to make some local symbol names
#: ambiguous, the way dst.c/dst_ca.c share ``debug`` in real Linux.
COLLISION_HOSTS: Dict[str, str] = {
    "drivers/dst.c": """\
static int debug;
static int state;

int dst_probe(void) {
    debug = 1;
    state = state + debug;
    return state;
}
""",
    "net/netfilter_dbg.c": """\
static int debug;
static int state;

int nf_trace(int verdict) {
    debug = verdict;
    if (verdict < 0) { state = state + 1; }
    return debug + state;
}
""",
    "fs/binfmt_misc.c": """\
static int notesize(int sz) {
    return sz + 8;
}

int misc_register_fmt(int sz) {
    return notesize(sz) * 2;
}
""",
}


def _ballast(unit_path: str) -> str:
    """Unpatched supporting code for a CVE unit.

    Real compilation units contain far more than the patched function;
    the helper module ships the *whole* unit (§5.1), so ballast is what
    makes helpers realistically larger than primaries.  Content is
    deterministic per unit path, with loops (alignment padding), static
    helpers, and intra-unit calls (relocations) so run-pre matching gets
    exercised on every function."""
    stem = re.sub(r"\W+", "_",
                  unit_path.rsplit("/", 1)[-1].rsplit(".", 1)[0])
    seed = zlib.crc32(unit_path.encode("utf-8"))
    chunks: List[str] = []
    for index in range(5):
        salt = (seed >> (index * 5)) % 29 + 3
        chunks.append("""
static int %(stem)s_aux%(i)d(int v) {
    int acc = %(salt)d;
    for (int k = 0; k < (v & 15); k++) {
        acc = acc * 33 + k;
        acc = acc ^ (acc >> 4);
    }
    if (acc < 0) { acc = -acc; }
    return acc;
}

int %(stem)s_stat%(i)d;

int %(stem)s_account%(i)d(int v) {
    if (v < 0) { return -22; }
    %(stem)s_stat%(i)d += %(stem)s_aux%(i)d(v) & 255;
    while (%(stem)s_stat%(i)d > 100000) {
        %(stem)s_stat%(i)d -= 100000;
    }
    return %(stem)s_stat%(i)d;
}
""" % {"stem": stem, "i": index, "salt": salt})
    return "\n/* --- supporting code --- */\n" + "".join(chunks)


@dataclass
class GeneratedKernel:
    """One kernel version: tree, syscall map, included CVEs."""

    version: str
    tree: SourceTree
    syscall_numbers: Dict[str, int]
    cves: List[CveSpec] = field(default_factory=list)

    def cve(self, cve_id: str) -> CveSpec:
        for spec in self.cves:
            if spec.cve_id == cve_id:
                return spec
        raise ReproError("%s is not present in kernel %s"
                         % (cve_id, self.version))

    def fixed_tree(self, cve_id: str, augmented: bool = True) -> SourceTree:
        """Tree with one CVE fixed.

        ``augmented`` includes the programmer's custom hook code (the
        Table 1 assistance); the non-augmented tree is the original
        security patch alone.
        """
        spec = self.cve(cve_id)
        unit_text = self.tree.read(spec.unit)
        if spec.vulnerable_fragment not in unit_text:
            raise ReproError("vulnerable fragment of %s not found in %s"
                             % (cve_id, spec.unit))
        fixed_text = unit_text.replace(spec.vulnerable_fragment,
                                       spec.fixed_fragment)
        if augmented and spec.custom_code:
            fixed_text = fixed_text.rstrip("\n") + "\n\n" + spec.custom_code
        files = dict(self.tree.files)
        files[spec.unit] = fixed_text
        for extra_unit, (vuln, fixed) in sorted(spec.extra_units.items()):
            extra_text = self.tree.read(extra_unit)
            if vuln not in extra_text:
                raise ReproError(
                    "vulnerable fragment of %s not found in extra unit %s"
                    % (cve_id, extra_unit))
            files[extra_unit] = extra_text.replace(vuln, fixed)
        return SourceTree(version=self.tree.version + "+" + cve_id,
                          files=files)

    def patch_for(self, cve_id: str, augmented: bool = True) -> str:
        """The unified diff fixing one CVE."""
        fixed = self.fixed_tree(cve_id, augmented=augmented)
        return make_patch(self.tree.files, fixed.files)

    def exploit_source(self, spec: CveSpec) -> str:
        """Exploit program text with syscall numbers substituted."""
        if spec.exploit is None:
            raise ReproError("%s has no exploit" % spec.cve_id)

        def substitute(match: "re.Match[str]") -> str:
            name = match.group(1)
            if name not in self.syscall_numbers:
                raise ReproError("exploit for %s references unknown "
                                 "syscall %r" % (spec.cve_id, name))
            return str(self.syscall_numbers[name])

        return re.sub(r"\{(\w+)\}", substitute, spec.exploit.source)


def _sys_c_with_inits(init_functions: List[str]) -> str:
    """kernel/sys.c with kernel_init extended to call CVE init code."""
    if not init_functions:
        return SYS_C
    prototypes = "".join("int %s(void);\n" % fn for fn in init_functions)
    calls = "".join("    %s();\n" % fn for fn in init_functions)
    return SYS_C.replace(
        "int kernel_init(void) {\n    boot_complete = 1;\n",
        prototypes + "\nint kernel_init(void) {\n    boot_complete = 1;\n"
        + calls)


def build_kernel(version: str,
                 cves: Optional[List[CveSpec]] = None) -> GeneratedKernel:
    """Assemble one kernel version's vulnerable source tree."""
    if cves is None:
        cves = [spec for spec in CORPUS if spec.kernel_version == version]
    cves = sorted(cves, key=lambda s: s.cve_id)

    files: Dict[str, str] = {}
    files.update(COLLISION_HOSTS)

    init_functions: List[str] = []
    cve_syscalls: List[str] = []
    asm_cve: Optional[CveSpec] = None
    for spec in cves:
        init_functions.extend(spec.init_functions)
        cve_syscalls.extend(spec.syscalls)
        if spec.is_asm:
            asm_cve = spec
            continue
        if spec.unit in files or spec.unit in BASE_UNITS:
            raise ReproError(
                "unit %s of %s collides with another unit in %s"
                % (spec.unit, spec.cve_id, version))
        files[spec.unit] = spec.vulnerable_fragment + _ballast(spec.unit)
        for extra_unit, (vuln, _fixed) in sorted(spec.extra_units.items()):
            if extra_unit in files or extra_unit in BASE_UNITS:
                raise ReproError(
                    "extra unit %s of %s collides with another unit in %s"
                    % (extra_unit, spec.cve_id, version))
            files[extra_unit] = vuln + _ballast(extra_unit)

    for path, source in BASE_UNITS.items():
        files[path] = source
    files["kernel/sys.c"] = _sys_c_with_inits(init_functions)

    table, numbers = build_syscall_table(cve_syscalls)
    files["arch/entry.s"] = entry_source(
        table,
        negative_check=asm_cve is None,
        compat_helper="commit_kernel_cred" if asm_cve is not None else "")

    if asm_cve is not None:
        # Sanity: the asm CVE's fragments must anchor in the generated
        # entry source.
        if asm_cve.vulnerable_fragment not in files["arch/entry.s"]:
            raise ReproError("asm fragment of %s does not anchor in the "
                             "generated entry.s" % asm_cve.cve_id)

    tree = SourceTree(version=version, files=files)
    return GeneratedKernel(version=version, tree=tree,
                           syscall_numbers=numbers, cves=cves)


@lru_cache(maxsize=None)
def kernel_for_version(version: str) -> GeneratedKernel:
    """Cached kernel generation (trees are immutable).

    Versions with the ``gen@`` prefix are regenerated on demand from
    the ``(seed, size, mix, group)`` parameters encoded in the version
    string itself, so worker processes that only receive a
    :class:`CveSpec` resolve generated kernels transparently.
    """
    if version.startswith(GENERATED_VERSION_PREFIX):
        from repro.scenarios.model import generated_kernel_for_version
        return generated_kernel_for_version(version)
    if version not in ALL_VERSIONS:
        raise ReproError("unknown kernel version %r" % version)
    return build_kernel(version)
