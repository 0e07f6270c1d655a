"""The linked kernel image."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import LinkError
from repro.linker.kallsyms import KallsymsTable


@dataclass(frozen=True)
class PlacedSection:
    """Where one input section landed in the image."""

    unit: str
    name: str
    address: int
    size: int

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, address: int) -> bool:
        return self.address <= address < self.end


@dataclass
class KernelImage:
    """A fully linked, fully relocated kernel.

    ``data`` is the byte image starting at ``base``.  ``placements`` maps
    ``(unit, section_name)`` to the placed section, which is how run-pre
    matching locates the run code for a pre section's optimization unit.
    """

    version: str
    base: int
    data: bytearray
    kallsyms: KallsymsTable
    placements: Dict[Tuple[str, str], PlacedSection] = field(
        default_factory=dict)

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def read_bytes(self, address: int, count: int) -> bytes:
        if not (self.contains(address)
                and address + count <= self.end):
            raise LinkError("read outside kernel image: 0x%08x+%d"
                            % (address, count))
        offset = address - self.base
        return bytes(self.data[offset:offset + count])

    def read_u32(self, address: int) -> int:
        return int.from_bytes(self.read_bytes(address, 4), "little")

    def placement(self, unit: str, section_name: str) -> PlacedSection:
        try:
            return self.placements[(unit, section_name)]
        except KeyError:
            raise LinkError("no placed section %s in unit %s"
                            % (section_name, unit)) from None

    def text_range(self) -> Tuple[int, int]:
        """[start, end) covering every text section — "looks like a kernel
        text address" for the conservative stack scan."""
        starts = [p.address for (unit, name), p in self.placements.items()
                  if name == ".text" or name.startswith(".text.")]
        ends = [p.end for (unit, name), p in self.placements.items()
                if name == ".text" or name.startswith(".text.")]
        if not starts:
            return (self.base, self.base)
        return (min(starts), max(ends))
