"""Unified diff representation, generation, and parsing."""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import PatchError

_HUNK_RE = re.compile(
    r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")

DEV_NULL = "/dev/null"


@dataclass
class Hunk:
    """One @@ hunk: line ranges plus tagged lines (' ', '-', '+')."""

    old_start: int
    old_count: int
    new_start: int
    new_count: int
    lines: List[str] = field(default_factory=list)  # tag + content, no \n

    def old_lines(self) -> List[str]:
        return [line[1:] for line in self.lines if line[:1] in (" ", "-")]

    def new_lines(self) -> List[str]:
        return [line[1:] for line in self.lines if line[:1] in (" ", "+")]

    def added(self) -> int:
        return sum(1 for line in self.lines if line.startswith("+"))

    def removed(self) -> int:
        return sum(1 for line in self.lines if line.startswith("-"))

    def header(self) -> str:
        return "@@ -%d,%d +%d,%d @@" % (self.old_start, self.old_count,
                                        self.new_start, self.new_count)


@dataclass
class FilePatch:
    """All hunks for one file.  ``old_path``/``new_path`` are tree-relative;
    DEV_NULL marks creation/deletion."""

    old_path: str
    new_path: str
    hunks: List[Hunk] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.new_path if self.old_path == DEV_NULL else self.old_path

    @property
    def creates_file(self) -> bool:
        return self.old_path == DEV_NULL

    @property
    def deletes_file(self) -> bool:
        return self.new_path == DEV_NULL

    def added(self) -> int:
        return sum(h.added() for h in self.hunks)

    def removed(self) -> int:
        return sum(h.removed() for h in self.hunks)


@dataclass
class Patch:
    """A parsed multi-file unified diff."""

    files: List[FilePatch] = field(default_factory=list)

    def changed_paths(self) -> List[str]:
        return [fp.path for fp in self.files]

    def added(self) -> int:
        return sum(fp.added() for fp in self.files)

    def removed(self) -> int:
        return sum(fp.removed() for fp in self.files)


def count_patch_lines(patch: "Patch | str") -> int:
    """The Figure 3 metric: total changed lines (added + removed)."""
    if isinstance(patch, str):
        patch = parse_patch(patch)
    return patch.added() + patch.removed()


# ---------------------------------------------------------------------------
# Generation


def _splitlines(text: str) -> List[str]:
    return text.split("\n")


def make_patch(old_files: Dict[str, str], new_files: Dict[str, str],
               context: int = 3) -> str:
    """Produce a unified diff transforming ``old_files`` into ``new_files``.

    Paths present in only one mapping become file creations/deletions.
    Returns the diff text ("" when the trees are identical).
    """
    chunks: List[str] = []
    for path in sorted(set(old_files) | set(new_files)):
        old_text = old_files.get(path)
        new_text = new_files.get(path)
        if old_text == new_text:
            continue
        old_label = path if old_text is not None else DEV_NULL
        new_label = path if new_text is not None else DEV_NULL
        # A missing file has zero lines; an empty file has one empty line.
        diff = difflib.unified_diff(
            [] if old_text is None else _splitlines(old_text),
            [] if new_text is None else _splitlines(new_text),
            fromfile=old_label, tofile=new_label,
            n=context, lineterm="")
        lines = list(diff)
        if lines:
            chunks.append("\n".join(lines))
    return "\n".join(chunks) + ("\n" if chunks else "")


# ---------------------------------------------------------------------------
# Parsing


def parse_patch(text: str) -> Patch:
    """Parse a unified diff, tolerating git-style noise lines between files."""
    patch = Patch()
    current: Optional[FilePatch] = None
    hunk: Optional[Hunk] = None
    remaining_old = remaining_new = 0
    pending_from: Optional[str] = None

    for raw in text.splitlines():
        if raw.startswith("--- "):
            pending_from = raw[4:].split("\t")[0].strip()
            hunk = None
            continue
        if raw.startswith("+++ "):
            if pending_from is None:
                raise PatchError("+++ without preceding ---")
            new_path = raw[4:].split("\t")[0].strip()
            current = FilePatch(old_path=_strip_prefix(pending_from),
                                new_path=_strip_prefix(new_path))
            patch.files.append(current)
            pending_from = None
            hunk = None
            continue
        match = _HUNK_RE.match(raw)
        if match:
            if current is None:
                raise PatchError("hunk before any file header")
            hunk = Hunk(
                old_start=int(match.group(1)),
                old_count=int(match.group(2) or "1"),
                new_start=int(match.group(3)),
                new_count=int(match.group(4) or "1"),
            )
            remaining_old = hunk.old_count
            remaining_new = hunk.new_count
            current.hunks.append(hunk)
            continue
        if hunk is not None and (remaining_old > 0 or remaining_new > 0):
            tag = raw[:1]
            if tag == " " or raw == "":
                hunk.lines.append(" " + raw[1:])
                remaining_old -= 1
                remaining_new -= 1
            elif tag == "-":
                hunk.lines.append(raw)
                remaining_old -= 1
            elif tag == "+":
                hunk.lines.append(raw)
                remaining_new -= 1
            elif tag == "\\":
                continue  # "\ No newline at end of file"
            else:
                raise PatchError("bad hunk line %r" % raw)
            continue
        # Noise between files (git headers, index lines, mode lines): skip.
    _validate(patch)
    return patch


def _strip_prefix(path: str) -> str:
    if path == DEV_NULL:
        return path
    for prefix in ("a/", "b/"):
        if path.startswith(prefix):
            return path[len(prefix):]
    return path


def _validate(patch: Patch) -> None:
    for fp in patch.files:
        for hunk in fp.hunks:
            old = len(hunk.old_lines())
            new = len(hunk.new_lines())
            if old != hunk.old_count or new != hunk.new_count:
                raise PatchError(
                    "hunk %s of %s has %d/%d lines, header claims %d/%d"
                    % (hunk.header(), fp.path, old, new,
                       hunk.old_count, hunk.new_count))
