"""Per-function abstract interpretation of k86 object code.

:func:`summarize_function` decodes one function's text, builds its
control-flow graph (short and long branches resolve to the same
in-buffer targets), and runs a join-based worklist fixpoint over
:class:`~repro.analysis.absint.domain.MachineState`.  The result is a
:class:`FunctionSummary` — the single artifact every client pass
(ABI, pointer escape, sleep reachability) reads:

* every ``ret`` site with its stack depth and the provenance of
  ``fp``/``r0`` at that point (stack-discipline and callee-saved
  proofs);
* every argument slot the function reads through its frame pointer
  (the observable arity);
* every call site with its callee and any tracked data pointers live
  on the stack at the moment of the call (escape witnesses);
* every ``sched``/``hlt`` site (sleep points) and every direct
  load/store touching a data symbol (access witnesses).

The interpreter is sound-for-evidence rather than complete: anything
it cannot model folds to ``UNKNOWN``/unknown-``sp``, which can only
suppress a downgrade-to-safe, never invent one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.absint.domain import (
    CONST,
    DATAPTR,
    ENTRY,
    STACKADDR,
    TOP,
    AbsValue,
    MachineState,
    arg_slot_index,
    const,
    dataptr,
    join_states,
    signed32,
    stackaddr,
)
from repro.arch.disassembler import DecodedInstruction, iter_instructions
from repro.arch.isa import (
    REG_FP,
    REG_SP,
    InstructionSpec,
    OperandKind,
)
from repro.errors import DisassemblyError
from repro.objfile import Section

#: upper bound on fixpoint iterations per instruction (defensive; the
#: lattice has finite height so real code converges far earlier)
MAX_VISITS_PER_INSTRUCTION = 64

#: registers a call may clobber (everything but fp/sp, which the
#: callee's prologue/epilogue discipline preserves)
CALL_CLOBBERED = tuple(r for r in range(8) if r not in (REG_FP, REG_SP))


@dataclass(frozen=True)
class RetSite:
    """One ``ret`` instruction and the state it returns with."""

    offset: int
    #: entry-relative sp at the ret (0 = balanced), None = unknown
    sp: Optional[int]
    #: fp still holds its entry value
    fp_preserved: bool
    #: registers (by index) proven to hold their entry values
    preserved_registers: Tuple[int, ...]
    #: data symbol r0 points into at return, "" otherwise
    returns_pointer_to: str = ""


@dataclass(frozen=True)
class CallSite:
    """One ``call``/``callr`` and what was live when it ran."""

    offset: int
    callee: str
    #: data symbols with a live pointer on the stack at the call
    live_pointer_symbols: Tuple[str, ...] = ()


@dataclass(frozen=True)
class AccessEvent:
    """One instruction touching a data symbol."""

    offset: int
    symbol: str
    mnemonic: str
    is_write: bool


@dataclass(frozen=True)
class EscapeEvent:
    """A pointer into a data symbol leaving the local frame."""

    offset: int
    symbol: str
    mnemonic: str
    reason: str


@dataclass
class FunctionSummary:
    """Everything the client passes need to know about one function."""

    name: str
    size: int = 0
    instruction_count: int = 0
    decode_ok: bool = True
    opaque_reason: str = ""
    #: argument slot indices read through the frame
    arg_slots_read: Set[int] = field(default_factory=set)
    rets: List[RetSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    sleep_sites: List[int] = field(default_factory=list)
    accesses: List[AccessEvent] = field(default_factory=list)
    escapes: List[EscapeEvent] = field(default_factory=list)
    #: deepest entry-relative sp observed (bytes, <= 0)
    max_stack_depth: int = 0

    @property
    def args_read(self) -> int:
        """Observable arity: one past the highest argument slot read."""
        return max(self.arg_slots_read) + 1 if self.arg_slots_read else 0

    @property
    def stack_balanced(self) -> bool:
        """Every return leaves sp exactly where entry found it."""
        return bool(self.rets) and all(r.sp == 0 for r in self.rets)

    @property
    def frame_preserved(self) -> bool:
        return bool(self.rets) and all(r.fp_preserved for r in self.rets)

    def copy(self) -> "FunctionSummary":
        """An independent copy (the events themselves are frozen)."""
        return replace(self, arg_slots_read=set(self.arg_slots_read),
                       rets=list(self.rets), calls=list(self.calls),
                       sleep_sites=list(self.sleep_sites),
                       accesses=list(self.accesses),
                       escapes=list(self.escapes))


def _operand_field_offsets(
        spec: InstructionSpec) -> Dict[int, OperandKind]:
    """Byte offset (from instruction start) of each non-PAD operand."""
    sizes = {OperandKind.REG: 1, OperandKind.IMM32: 4,
             OperandKind.ABS32: 4, OperandKind.REL32: 4,
             OperandKind.REL8: 1, OperandKind.PAD: 1}
    fields: Dict[int, OperandKind] = {}
    offset = 1
    for kind in spec.operands:
        if kind is not OperandKind.PAD:
            fields[offset] = kind
        offset += sizes[kind]
    return fields


def _reloc_symbol_for(instr: DecodedInstruction,
                      relocations: Dict[int, Tuple[str, int]],
                      wanted: OperandKind) -> Optional[Tuple[str, int]]:
    """``(symbol, addend)`` of the relocation on ``instr``'s ``wanted``
    operand field, if any."""
    for field_offset, kind in _operand_field_offsets(
            instr.instruction.spec).items():
        if kind is wanted:
            entry = relocations.get(instr.offset + field_offset)
            if entry is not None:
                return entry
    return None


def _relocation_map(section: Section) -> Dict[int, Tuple[str, int]]:
    return {reloc.offset: (reloc.symbol, reloc.addend)
            for reloc in section.relocations}


def summarize_function(
        name: str,
        code: bytes,
        relocations: Dict[int, Tuple[str, int]],
        start: int = 0,
        end: int = -1,
        resolve_callee: Optional[Callable[[int], str]] = None,
        ) -> FunctionSummary:
    """Fixpoint-interpret ``code[start:end]`` as one function body."""
    limit = len(code) if end < 0 else min(end, len(code))
    summary = FunctionSummary(name=name, size=limit - start)
    try:
        instrs = list(iter_instructions(code, start, limit))
    except DisassemblyError as exc:
        summary.decode_ok = False
        summary.opaque_reason = str(exc)
        return summary
    summary.instruction_count = len(instrs)
    if not instrs:
        return summary
    by_offset = {i.offset: i for i in instrs}

    states: Dict[int, MachineState] = {instrs[0].offset: MachineState()}
    worklist: List[int] = [instrs[0].offset]
    visits: Dict[int, int] = {}
    budget = MAX_VISITS_PER_INSTRUCTION

    while worklist:
        offset = worklist.pop()
        if visits.get(offset, 0) >= budget:
            continue
        visits[offset] = visits.get(offset, 0) + 1
        instr = by_offset.get(offset)
        if instr is None:
            continue
        state = states[offset]
        out, successors = _transfer(instr, state, relocations,
                                    resolve_callee, summary)
        if out.sp is not None and out.sp < summary.max_stack_depth:
            summary.max_stack_depth = out.sp
        for succ in successors:
            if succ not in by_offset:
                continue
            merged = out if succ not in states \
                else join_states(states[succ], out)
            if succ not in states or merged != states[succ]:
                states[succ] = merged
                worklist.append(succ)
    return summary


def _transfer(instr: DecodedInstruction, state: MachineState,
              relocations: Dict[int, Tuple[str, int]],
              resolve_callee: Optional[Callable[[int], str]],
              summary: FunctionSummary,
              ) -> Tuple[MachineState, List[int]]:
    """One instruction's abstract effect; returns (state, successors)."""
    mnem = instr.mnemonic
    ops = instr.instruction.operands
    fall = instr.offset + instr.length
    succs = [fall]

    if mnem == "movi":
        state = state.with_reg(ops[0], const(ops[1]))
    elif mnem == "movr":
        dst, src = ops
        value = state.reg(src)
        if src == REG_SP and state.sp is not None:
            value = stackaddr(state.sp)
        if dst == REG_SP:
            state = state.with_sp(
                value.value if value.kind == STACKADDR else None)
        else:
            state = state.with_reg(dst, value)
    elif mnem == "lea":
        entry = _reloc_symbol_for(instr, relocations, OperandKind.ABS32)
        if entry is not None:
            state = state.with_reg(ops[0], dataptr(entry[0], entry[1]))
        else:
            state = state.with_reg(ops[0], const(ops[1]))
    elif mnem == "load":
        entry = _reloc_symbol_for(instr, relocations, OperandKind.ABS32)
        if entry is not None:
            summary.accesses.append(AccessEvent(
                offset=instr.offset, symbol=entry[0], mnemonic=mnem,
                is_write=False))
        state = state.with_reg(ops[0], TOP)
    elif mnem == "store":
        entry = _reloc_symbol_for(instr, relocations, OperandKind.ABS32)
        if entry is not None:
            summary.accesses.append(AccessEvent(
                offset=instr.offset, symbol=entry[0], mnemonic=mnem,
                is_write=True))
        stored = state.reg(ops[1])
        if stored.kind == DATAPTR:
            summary.escapes.append(EscapeEvent(
                offset=instr.offset, symbol=stored.symbol,
                mnemonic=mnem,
                reason="pointer stored to global memory"))
    elif mnem == "loadr":
        dst, base, imm = ops
        base_value = state.reg(base)
        loaded = TOP
        if base == REG_SP and state.sp is not None:
            base_value = stackaddr(state.sp)
        if base_value.kind == STACKADDR:
            slot = base_value.value + signed32(imm)
            loaded = state.slot(slot)
            arg = arg_slot_index(slot)
            if arg is not None:
                summary.arg_slots_read.add(arg)
                if loaded == TOP:
                    # arguments keep their caller-supplied identity so
                    # pointer arguments stay trackable
                    loaded = AbsValue(kind=ENTRY, value=-(arg + 1))
        elif base_value.kind == DATAPTR:
            summary.accesses.append(AccessEvent(
                offset=instr.offset, symbol=base_value.symbol,
                mnemonic=mnem, is_write=False))
        state = state.with_reg(dst, loaded)
    elif mnem == "storer":
        base, imm, src = ops
        base_value = state.reg(base)
        stored = state.reg(src)
        if base == REG_SP and state.sp is not None:
            base_value = stackaddr(state.sp)
        if base_value.kind == STACKADDR:
            state = state.with_slot(base_value.value + signed32(imm),
                                    stored)
        elif base_value.kind == DATAPTR:
            summary.accesses.append(AccessEvent(
                offset=instr.offset, symbol=base_value.symbol,
                mnemonic=mnem, is_write=True))
            if stored.kind == DATAPTR:
                summary.escapes.append(EscapeEvent(
                    offset=instr.offset, symbol=stored.symbol,
                    mnemonic=mnem,
                    reason="pointer stored through a pointer into %s"
                           % base_value.symbol))
        elif stored.kind == DATAPTR:
            summary.escapes.append(EscapeEvent(
                offset=instr.offset, symbol=stored.symbol,
                mnemonic=mnem,
                reason="pointer stored through an untracked pointer"))
    elif mnem == "addi":
        reg, imm = ops
        delta = signed32(imm)
        if reg == REG_SP:
            state = state.with_sp(
                state.sp + delta if state.sp is not None else None)
        else:
            value = state.reg(reg)
            if value.kind == CONST:
                state = state.with_reg(reg, const(value.value + delta))
            elif value.kind == STACKADDR:
                state = state.with_reg(reg,
                                       stackaddr(value.value + delta))
            elif value.kind == DATAPTR:
                state = state.with_reg(
                    reg, dataptr(value.symbol, value.value + delta))
            else:
                state = state.with_reg(reg, TOP)
    elif mnem in ("add", "sub", "mul", "div", "and", "or", "xor",
                  "shl", "shr", "mod"):
        dst, src = ops
        a, b = state.reg(dst), state.reg(src)
        if mnem in ("add", "sub") and DATAPTR in (a.kind, b.kind):
            ptr = a if a.kind == DATAPTR else b
            # indexing into the symbol: keep provenance, drop the offset
            state = state.with_reg(dst, dataptr(ptr.symbol, 0))
        elif a.kind == CONST and b.kind == CONST and mnem == "add":
            state = state.with_reg(dst, const(a.value + b.value))
        else:
            state = state.with_reg(dst, TOP)
    elif mnem in ("neg", "not"):
        state = state.with_reg(ops[0], TOP)
    elif mnem in ("cmp", "cmpi", "nop", "nop2", "nop3", "nop4",
                  "cli", "sti"):
        pass
    elif mnem == "push":
        if state.sp is not None:
            new_sp = state.sp - 4
            state = state.with_sp(new_sp).with_slot(new_sp,
                                                    state.reg(ops[0]))
    elif mnem == "pop":
        if state.sp is not None:
            state = state.with_reg(ops[0], state.slot(state.sp))
            state = state.with_sp(state.sp + 4)
        else:
            state = state.with_reg(ops[0], TOP)
    elif mnem in ("call", "callr"):
        callee = ""
        if mnem == "call":
            entry = _reloc_symbol_for(instr, relocations,
                                      OperandKind.REL32)
            if entry is not None:
                callee = entry[0]
            elif resolve_callee is not None:
                target = instr.branch_target_offset()
                if target is not None:
                    callee = resolve_callee(target)
        live: List[str] = []
        if state.sp is not None:
            for slot_offset, value in state.stack:
                if state.sp <= slot_offset < 0 \
                        and value.kind == DATAPTR:
                    live.append(value.symbol)
        summary.calls.append(CallSite(
            offset=instr.offset, callee=callee,
            live_pointer_symbols=tuple(sorted(set(live)))))
        for symbol in sorted(set(live)):
            summary.escapes.append(EscapeEvent(
                offset=instr.offset, symbol=symbol, mnemonic=mnem,
                reason="live pointer on the stack at call to %s"
                       % (callee or "(indirect)")))
        for reg in CALL_CLOBBERED:
            state = state.with_reg(reg, TOP)
    elif mnem == "ret":
        fp_value = state.reg(REG_FP)
        preserved = tuple(i for i in range(8)
                          if i != REG_SP
                          and state.reg(i).is_entry(i))
        r0 = state.reg(0)
        summary.rets.append(RetSite(
            offset=instr.offset, sp=state.sp,
            fp_preserved=fp_value.is_entry(REG_FP),
            preserved_registers=preserved,
            returns_pointer_to=(r0.symbol
                                if r0.kind == DATAPTR else "")))
        return state, []
    elif mnem in ("sched", "hlt"):
        summary.sleep_sites.append(instr.offset)
        if mnem == "hlt":
            return state, []
    elif mnem == "syscall":
        state = state.with_reg(0, TOP)
    elif instr.canonical in ("jmp", "jz", "jnz", "jl", "jg", "jle",
                             "jge"):
        target = instr.branch_target_offset()
        if instr.canonical == "jmp":
            succs = [] if target is None else [target]
        elif target is not None:
            succs = [fall, target]
        return state, succs
    return state, succs


def summarize_section_function(
        obj_section: Section, name: str,
        resolve_callee: Optional[Callable[[int], str]] = None,
        start: int = 0, end: int = -1) -> FunctionSummary:
    """Summarize a function stored in ``obj_section`` (the whole
    section for function-sections objects, an extent of it for merged
    run-kernel builds)."""
    return summarize_function(
        name, obj_section.data, _relocation_map(obj_section),
        start=start, end=end, resolve_callee=resolve_callee)
