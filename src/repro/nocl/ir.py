"""Virtual-register assembly: the compiler's intermediate form.

The frontend emits a linear sequence of :class:`VInstr` (machine operations
over virtual registers, with symbolic branch targets) and :class:`VLabel`
markers.  Register allocation rewrites virtual registers to physical ones;
:func:`assemble` then resolves labels to byte offsets, expands the ``LI``
pseudo-instruction, and produces the final :class:`repro.isa.Instr` list.

Virtual register numbering: ids 0..31 denote *physical* (pre-coloured)
registers — the zero register and the ABI registers the runtime
initialises; ids >= 32 are virtual and subject to allocation.
"""

from dataclasses import dataclass
from typing import Optional

from repro.isa.instructions import Instr, Op

#: First virtual (allocatable) register id.
FIRST_VREG = 32


@dataclass
class VInstr:
    """One machine operation over virtual registers."""

    op: Op
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[str] = None   # symbolic branch/jump target
    depth: int = 0                 # convergence nesting level
    comment: str = ""
    line: Optional[int] = None     # DSL source line (profiler attribution)

    def regs_read(self):
        regs = []
        if self.rs1 is not None:
            regs.append(self.rs1)
        if self.rs2 is not None:
            regs.append(self.rs2)
        return regs

    def regs_written(self):
        return [self.rd] if self.rd is not None else []


@dataclass
class VLabel:
    """A branch-target marker in the instruction stream."""

    name: str
    depth: int = 0


#: Pseudo-op: load a 32-bit immediate (expands to LUI and/or ADDI).
LI = "LI"


@dataclass
class VLoadImm:
    """``LI rd, value`` pseudo-instruction (32-bit immediate)."""

    rd: int
    value: int
    depth: int = 0
    comment: str = ""
    line: Optional[int] = None

    def regs_read(self):
        return []

    def regs_written(self):
        return [self.rd]


def clone_items(items):
    """Per-item copies of an item list.  Items hold only scalars, so a
    shallow copy of each is a deep copy of the list."""
    clones = []
    for item in items:
        clone = object.__new__(type(item))
        clone.__dict__.update(item.__dict__)
        clones.append(clone)
    return clones


class AsmError(Exception):
    """Raised on malformed virtual assembly (unknown label, bad range)."""


def _li_length(value):
    """How many real instructions ``LI`` expands to for this value."""
    value &= 0xFFFFFFFF
    if -2048 <= _sext32(value) <= 2047:
        return 1
    return 1 if (value & 0xFFF) == 0 else 2


def _sext32(value):
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


def _expand_li(rd, value, depth, comment, line=None):
    """Expand LI into LUI/ADDI."""
    value &= 0xFFFFFFFF
    signed = _sext32(value)
    if -2048 <= signed <= 2047:
        return [Instr(Op.ADDI, rd=rd, rs1=0, imm=signed, depth=depth,
                      comment=comment, line=line)]
    upper = (value + 0x800) >> 12 & 0xFFFFF
    low = _sext32((value - ((upper << 12) & 0xFFFFFFFF)) & 0xFFFFFFFF)
    out = [Instr(Op.LUI, rd=rd, imm=upper, depth=depth, comment=comment,
                 line=line)]
    if low:
        out.append(Instr(Op.ADDI, rd=rd, rs1=rd, imm=low, depth=depth,
                         line=line))
    return out


def instruction_lengths(items):
    """Final instruction count contributed by each item (labels are 0)."""
    lengths = []
    for item in items:
        if isinstance(item, VLabel):
            lengths.append(0)
        elif isinstance(item, VLoadImm):
            lengths.append(_li_length(item.value))
        else:
            lengths.append(1)
    return lengths


def assemble(items, base_pc=0):
    """Resolve labels and expand pseudos into a final Instr list."""
    lengths = instruction_lengths(items)
    label_pc = {}
    pc = base_pc
    for item, length in zip(items, lengths):
        if isinstance(item, VLabel):
            if item.name in label_pc:
                raise AsmError("duplicate label %r" % item.name)
            label_pc[item.name] = pc
        pc += 4 * length

    out = []
    pc = base_pc
    for item, length in zip(items, lengths):
        if isinstance(item, VLabel):
            continue
        if isinstance(item, VLoadImm):
            out.extend(_expand_li(item.rd, item.value, item.depth,
                                  item.comment, line=item.line))
            pc += 4 * length
            continue
        instr = item
        imm = instr.imm
        if instr.target is not None:
            if instr.target not in label_pc:
                raise AsmError("unknown label %r" % instr.target)
            imm = label_pc[instr.target] - pc
        out.append(Instr(instr.op, rd=instr.rd, rs1=instr.rs1,
                         rs2=instr.rs2, imm=imm, depth=instr.depth,
                         comment=instr.comment, line=instr.line))
        pc += 4 * length
    return out
