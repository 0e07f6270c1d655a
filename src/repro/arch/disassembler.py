"""Linear-sweep disassembler for k86.

The run-pre matcher depends on exactly the two architecture facts the paper
names in §4.3: instruction lengths, and which instructions take pc-relative
offsets.  Both come from the instruction table; this module packages them
as a stream decoder.

Every decoder in the process goes through one table: raw encoding ->
frozen :class:`~repro.arch.isa.Instruction`.  An encoding decodes the
same way wherever it sits (rel operands are stored as displacements,
not targets), so an entry never goes stale; a kernel's code is a few
hundred distinct encodings repeated many thousands of times.  Misses,
and every malformed encoding, go through
:func:`repro.arch.isa.decode_instruction`, so errors read exactly the
same warm as cold.  The table is bounded and simply emptied when full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.arch import isa
from repro.arch.isa import Instruction, OperandKind


@dataclass(frozen=True)
class DecodedInstruction:
    """An instruction plus where it was found."""

    offset: int
    instruction: Instruction
    raw: bytes

    @property
    def length(self) -> int:
        return self.instruction.length

    @property
    def mnemonic(self) -> str:
        return self.instruction.mnemonic

    @property
    def canonical(self) -> str:
        return self.instruction.spec.canonical

    @property
    def is_nop(self) -> bool:
        return self.instruction.spec.is_nop

    @property
    def is_pc_relative(self) -> bool:
        return self.instruction.spec.is_pc_relative

    def branch_target_offset(self) -> Optional[int]:
        """Branch target as an offset into the disassembled buffer."""
        if not self.is_pc_relative:
            return None
        return self.offset + self.length + self.instruction.operands[0]


#: raw encoding -> decoded instruction, shared process-wide
DECODE_TABLE: Dict[bytes, Instruction] = {}
#: entries held before the table is emptied (distinct encodings, not
#: instructions decoded: whole corpora stay well below it)
DECODE_TABLE_MAX = 1 << 14


def _lookup(code: bytes, offset: int) -> Tuple[Instruction, bytes]:
    if offset < len(code):
        length = isa.LENGTH_BY_OPCODE.get(code[offset])
        if length is not None:
            raw = bytes(code[offset:offset + length])
            instruction = DECODE_TABLE.get(raw)
            if instruction is not None:
                return instruction, raw
    # a miss, or bytes that do not decode: raises the canonical error
    instruction = isa.decode_instruction(code, offset)
    raw = bytes(code[offset:offset + instruction.length])
    if len(DECODE_TABLE) >= DECODE_TABLE_MAX:
        DECODE_TABLE.clear()
    DECODE_TABLE[raw] = instruction
    return instruction, raw


def clear_decode_table() -> None:
    DECODE_TABLE.clear()


def disassemble_one(code: bytes, offset: int = 0) -> DecodedInstruction:
    """Decode a single instruction at ``offset``."""
    instruction, raw = _lookup(code, offset)
    return DecodedInstruction(offset=offset, instruction=instruction, raw=raw)


def iter_instructions(code: bytes, start: int = 0,
                      end: int = -1) -> Iterator[DecodedInstruction]:
    """Yield instructions from ``start`` until ``end`` (or end of buffer)."""
    limit = len(code) if end < 0 else min(end, len(code))
    offset = start
    while offset < limit:
        decoded = disassemble_one(code, offset)
        yield decoded
        offset += decoded.length


def disassemble(code: bytes) -> List[DecodedInstruction]:
    """Disassemble the whole buffer as a list."""
    return list(iter_instructions(code))


def format_instruction(decoded: DecodedInstruction) -> str:
    """Human-readable rendering, e.g. ``0004: movi r0, 42``."""
    instr = decoded.instruction
    parts: List[str] = []
    operand_iter = iter(instr.operands)
    for kind in instr.spec.operands:
        if kind is OperandKind.PAD:
            continue
        value = next(operand_iter)
        if kind is OperandKind.REG:
            parts.append(isa.REGISTER_NAMES[value])
        elif kind in (OperandKind.REL32, OperandKind.REL8):
            target = decoded.offset + instr.length + value
            parts.append("0x%x" % target)
        elif kind is OperandKind.ABS32:
            parts.append("[0x%08x]" % value)
        else:
            parts.append(str(value))
    text = instr.mnemonic
    if parts:
        text += " " + ", ".join(parts)
    return "%04x: %s" % (decoded.offset, text)
