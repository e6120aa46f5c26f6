"""Golden-model functional interpreter for the simulated ISA.

An architectural oracle for differential testing: it executes RV32IMA +
Zfinx + the CHERI instruction subset one instruction at a time per
hardware thread over plain architectural state — 32 general-purpose
registers, 32 capability-metadata words, a program counter, a
program-counter capability, and a tagged word-granule memory.  There is
no pipeline, no scheduler, no register-file compression, and no timing.

The semantics here are written against the instruction-set definition
(:mod:`repro.isa.instructions`), the RISC-V unprivileged spec, and the
capability value types in :mod:`repro.cheri` — deliberately **not**
against ``repro.simt.pipeline``.  The lockstep checker
(:mod:`repro.check.lockstep`) then cross-checks the two implementations
per retired instruction; any disagreement is a bug in one of them.

Floating point rounds through IEEE-754 binary32 via host ``struct``
packing — the same arithmetic contract the simulated ALU declares — so
NaN payloads and rounding agree by construction.  fmin/fmax follow the
RISC-V F spec (a NaN operand is ignored; -0.0 < +0.0), conversions
truncate toward zero and saturate.
"""

import functools
import math
import struct

from repro.cheri import concentrate
from repro.cheri.capability import Capability, Perms
from repro.isa.instructions import (
    ACCESS_WIDTH,
    AMO_OPS,
    LOAD_OPS,
    STORE_OPS,
    Op,
)

MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1
_CANONICAL_NAN = 0x7FC00000


class GoldenFault(Exception):
    """The golden model hit an architectural fault.

    ``kind`` is the fault classification, matching the *class name* of
    the exception the pipeline would raise for the same event:
    ``TagViolation``, ``SealViolation``, ``PermissionViolation``,
    ``BoundsViolation``, ``SoftwareTrap`` or ``MemoryError_``.
    """

    def __init__(self, kind, message, thread=None, pc=None):
        super().__init__("%s: %s" % (kind, message))
        self.kind = kind
        self.thread = thread
        self.pc = pc


# ---------------------------------------------------------------------------
# Scalar integer semantics (RV32IM)
# ---------------------------------------------------------------------------

def _sx(value):
    value &= MASK32
    return value - (1 << 32) if value >> 31 else value


def _sll(a, b):
    return (a << (b & 31)) & MASK32


def _srl(a, b):
    return (a & MASK32) >> (b & 31)


def _sra(a, b):
    return (_sx(a) >> (b & 31)) & MASK32


def _div(a, b):
    a, b = _sx(a), _sx(b)
    if b == 0:
        return MASK32
    if a == -(1 << 31) and b == -1:
        return 0x80000000
    quotient = abs(a) // abs(b)
    return (-quotient if (a < 0) != (b < 0) else quotient) & MASK32


def _rem(a, b):
    a, b = _sx(a), _sx(b)
    if b == 0:
        return a & MASK32
    if a == -(1 << 31) and b == -1:
        return 0
    remainder = abs(a) % abs(b)
    return (-remainder if a < 0 else remainder) & MASK32


def _divu(a, b):
    b &= MASK32
    return MASK32 if b == 0 else (a & MASK32) // b


def _remu(a, b):
    b &= MASK32
    return (a & MASK32) if b == 0 else (a & MASK32) % b


_INT2 = {
    Op.ADD: lambda a, b: (a + b) & MASK32,
    Op.SUB: lambda a, b: (a - b) & MASK32,
    Op.SLL: _sll, Op.SRL: _srl, Op.SRA: _sra,
    Op.XOR: lambda a, b: (a ^ b) & MASK32,
    Op.OR: lambda a, b: (a | b) & MASK32,
    Op.AND: lambda a, b: (a & b) & MASK32,
    Op.SLT: lambda a, b: int(_sx(a) < _sx(b)),
    Op.SLTU: lambda a, b: int((a & MASK32) < (b & MASK32)),
    Op.MUL: lambda a, b: (a * b) & MASK32,
    Op.MULH: lambda a, b: ((_sx(a) * _sx(b)) >> 32) & MASK32,
    Op.MULHSU: lambda a, b: ((_sx(a) * (b & MASK32)) >> 32) & MASK32,
    Op.MULHU: lambda a, b: (((a & MASK32) * (b & MASK32)) >> 32) & MASK32,
    Op.DIV: _div, Op.DIVU: _divu, Op.REM: _rem, Op.REMU: _remu,
}

_INT_IMM = {
    Op.ADDI: _INT2[Op.ADD], Op.SLTI: _INT2[Op.SLT],
    Op.SLTIU: _INT2[Op.SLTU], Op.XORI: _INT2[Op.XOR],
    Op.ORI: _INT2[Op.OR], Op.ANDI: _INT2[Op.AND],
    Op.SLLI: _sll, Op.SRLI: _srl, Op.SRAI: _sra,
}

_BRANCH = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: _sx(a) < _sx(b),
    Op.BGE: lambda a, b: _sx(a) >= _sx(b),
    Op.BLTU: lambda a, b: (a & MASK32) < (b & MASK32),
    Op.BGEU: lambda a, b: (a & MASK32) >= (b & MASK32),
}

_AMO = {
    Op.AMOADD_W: lambda old, v: (old + v) & MASK32,
    Op.CAMOADD_W: lambda old, v: (old + v) & MASK32,
    Op.AMOSWAP_W: lambda old, v: v,
    Op.AMOAND_W: lambda old, v: old & v,
    Op.AMOOR_W: lambda old, v: old | v,
    Op.AMOXOR_W: lambda old, v: old ^ v,
    Op.AMOMIN_W: lambda old, v: old if _sx(old) <= _sx(v) else v,
    Op.AMOMAX_W: lambda old, v: old if _sx(old) >= _sx(v) else v,
    Op.AMOMINU_W: min,
    Op.AMOMAXU_W: max,
}

_SIGNED_LOADS = frozenset({Op.LB, Op.LH, Op.CLB, Op.CLH})


# ---------------------------------------------------------------------------
# Scalar floating-point semantics (Zfinx binary32)
# ---------------------------------------------------------------------------

def _unpack(bits):
    return struct.unpack("<f", struct.pack("<I", bits & MASK32))[0]


def _pack(value):
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except (OverflowError, ValueError):
        # binary32 overflow: infinity of the appropriate sign.
        return 0x7F800000 if value > 0 else 0xFF800000


def _nan_bits(bits):
    return (bits & 0x7F800000) == 0x7F800000 and (bits & 0x007FFFFF) != 0


def _pack_arith(value):
    # Arithmetic NaN results are the canonical quiet NaN (RISC-V
    # F/Zfinx); independently re-derived here so the golden model does
    # not share the pipeline's packing helper.
    if value != value:  # NaN
        return _CANONICAL_NAN
    return _pack(value)


def _fdiv(a_bits, b_bits):
    a, b = _unpack(a_bits), _unpack(b_bits)
    if b == 0.0:
        if math.isnan(a):
            return _CANONICAL_NAN
        if a == 0.0:
            return _CANONICAL_NAN
        sign = (a_bits ^ b_bits) & 0x80000000
        return 0xFF800000 if sign else 0x7F800000
    return _pack_arith(a / b)


def _fsqrt(a_bits, _b=0):
    a = _unpack(a_bits)
    if a < 0.0:
        return _CANONICAL_NAN
    return _pack_arith(math.sqrt(a))


def _fmin(a_bits, b_bits):
    a_bits &= MASK32
    b_bits &= MASK32
    a_nan, b_nan = _nan_bits(a_bits), _nan_bits(b_bits)
    if a_nan or b_nan:
        if a_nan and b_nan:
            return _CANONICAL_NAN
        return a_bits if b_nan else b_bits
    if ((a_bits | b_bits) & 0x7FFFFFFF) == 0:
        return a_bits | b_bits  # -0.0 wins for fmin
    return a_bits if _unpack(a_bits) < _unpack(b_bits) else b_bits


def _fmax(a_bits, b_bits):
    a_bits &= MASK32
    b_bits &= MASK32
    a_nan, b_nan = _nan_bits(a_bits), _nan_bits(b_bits)
    if a_nan or b_nan:
        if a_nan and b_nan:
            return _CANONICAL_NAN
        return a_bits if b_nan else b_bits
    if ((a_bits | b_bits) & 0x7FFFFFFF) == 0:
        return a_bits & b_bits  # +0.0 wins for fmax
    return a_bits if _unpack(a_bits) > _unpack(b_bits) else b_bits


def _fcvt_to_int(bits, lo, hi):
    f = _unpack(bits)
    if math.isnan(f):
        return hi & MASK32
    if math.isinf(f):
        return (hi if f > 0 else lo) & MASK32
    t = int(f)  # truncation toward zero (RTZ)
    if t < lo:
        t = lo
    elif t > hi:
        t = hi
    return t & MASK32


_FLOAT2 = {
    Op.FADD_S: lambda a, b: _pack_arith(_unpack(a) + _unpack(b)),
    Op.FSUB_S: lambda a, b: _pack_arith(_unpack(a) - _unpack(b)),
    Op.FMUL_S: lambda a, b: _pack_arith(_unpack(a) * _unpack(b)),
    Op.FDIV_S: _fdiv,
    Op.FMIN_S: _fmin, Op.FMAX_S: _fmax,
    Op.FEQ_S: lambda a, b: int(_unpack(a) == _unpack(b)),
    Op.FLT_S: lambda a, b: int(_unpack(a) < _unpack(b)),
    Op.FLE_S: lambda a, b: int(_unpack(a) <= _unpack(b)),
    Op.FSGNJ_S: lambda a, b: (a & 0x7FFFFFFF) | (b & 0x80000000),
    Op.FSGNJN_S: lambda a, b: (a & 0x7FFFFFFF) | (~b & 0x80000000),
    Op.FSGNJX_S: lambda a, b: (a ^ (b & 0x80000000)) & MASK32,
}

_FLOAT1 = {
    Op.FSQRT_S: _fsqrt,
    Op.FCVT_W_S: lambda a: _fcvt_to_int(a, -(1 << 31), (1 << 31) - 1),
    Op.FCVT_WU_S: lambda a: _fcvt_to_int(a, 0, MASK32),
    Op.FCVT_S_W: lambda a: _pack(float(_sx(a))),
    Op.FCVT_S_WU: lambda a: _pack(float(a & MASK32)),
}


# ---------------------------------------------------------------------------
# CHERI non-memory semantics
# ---------------------------------------------------------------------------

_CGET = {
    Op.CGETTAG: lambda cap: int(cap.tag),
    Op.CGETPERM: lambda cap: int(cap.perms),
    Op.CGETBASE: lambda cap: cap.base,
    # CGetLen saturates an over-large length to the XLEN maximum.
    Op.CGETLEN: lambda cap: min(cap.length, MASK32),
    Op.CGETADDR: lambda cap: cap.addr,
    Op.CGETTYPE: lambda cap: cap.otype,
    Op.CGETSEALED: lambda cap: int(cap.is_sealed),
    Op.CGETFLAGS: lambda cap: cap.flags,
}

_CRR = {
    # CRRL is an XLEN-wide result: 2^32 truncates to 0, it does not
    # saturate (CHERI-RISC-V CRoundRepresentableLength).
    Op.CRRL: lambda v: concentrate.crrl(v) & MASK32,
    Op.CRAM: concentrate.crml,
}

_CMOD1 = {
    Op.CCLEARTAG: lambda cap: cap.with_tag_cleared(),
    Op.CMOVE: lambda cap: cap,
    Op.CSEALENTRY: lambda cap: cap.seal_entry(),
}

_CMOD2 = {
    Op.CANDPERM: lambda cap, v: cap.and_perms(v),
    Op.CSETFLAGS: lambda cap, v: cap.set_flags(v),
    Op.CSETADDR: lambda cap, v: cap.set_addr(v),
    Op.CINCOFFSET: lambda cap, v: cap.inc_addr(v),
    Op.CSETBOUNDS: lambda cap, v: cap.set_bounds(cap.addr, v)[0],
    Op.CSETBOUNDSEXACT:
        lambda cap, v: cap.set_bounds(cap.addr, v, exact=True)[0],
}

_CIMM = {
    Op.CINCOFFSETIMM: lambda cap, imm: cap.inc_addr(imm),
    Op.CSETBOUNDSIMM: lambda cap, imm: cap.set_bounds(cap.addr, imm)[0],
}


class GoldenMemory:
    """Architectural tagged memory: sparse 32-bit words + per-word tags.

    Independent implementation of the architecture's memory contract:
    little-endian sub-word access, one hidden tag bit per naturally
    aligned word, data writes clear the tags they touch, a capability is
    valid only when both halves' tags are set.
    """

    def __init__(self):
        self.words = {}
        self.tags = set()

    def _check(self, addr, width):
        if addr % width:
            raise GoldenFault("MemoryError_",
                              "misaligned %d-byte access at 0x%08x"
                              % (width, addr))
        if not 0 <= addr <= (1 << 32) - width:
            raise GoldenFault("MemoryError_",
                              "address out of range: 0x%x" % addr)

    def load(self, addr, width, signed=False):
        """Read 1/2/4 bytes; returns a 32-bit pattern (sign-extended)."""
        self._check(addr, width)
        word = self.words.get(addr >> 2, 0)
        value = (word >> ((addr & 3) * 8)) & ((1 << (8 * width)) - 1)
        if signed and value >> (8 * width - 1):
            value |= MASK32 ^ ((1 << (8 * width)) - 1)
        return value

    def store(self, addr, width, value):
        self._check(addr, width)
        index = addr >> 2
        shift = (addr & 3) * 8
        mask = ((1 << (8 * width)) - 1) << shift
        self.words[index] = ((self.words.get(index, 0) & ~mask)
                             | ((value << shift) & mask))
        self.tags.discard(index)

    def load_cap(self, addr):
        self._check(addr, 8)
        index = addr >> 2
        raw = (self.words.get(index + 1, 0) << 32) | self.words.get(index, 0)
        tag = index in self.tags and (index + 1) in self.tags
        return raw, tag

    def store_cap(self, addr, raw, tag):
        self._check(addr, 8)
        index = addr >> 2
        self.words[index] = raw & MASK32
        self.words[index + 1] = (raw >> 32) & MASK32
        if tag:
            self.tags.add(index)
            self.tags.add(index + 1)
        else:
            self.tags.discard(index)
            self.tags.discard(index + 1)


class GoldenModel:
    """Per-thread architectural state with a one-instruction step function.

    ``pcc[t]`` and ``meta[t][r]`` hold capability metadata in the packed
    65-bit form ``tag << 32 | meta_word`` (address lives in ``gp``/``pc``),
    so state comparison against any other implementation is a plain
    integer compare.

    Each static instruction is decoded once, at construction, into its
    kind, semantic function and operands; ``step`` then dispatches on
    the kind alone.  The PCC fetch check is memoised per ``(pcc, pc)``.
    """

    def __init__(self, program, num_threads, cheri):
        self.program = list(program)
        self._decoded = [_decode(instr) for instr in self.program]
        # Bounded by the (pcc, pc) pairs one launch reaches.
        self._fetch_fault = functools.lru_cache(maxsize=None)(_fetch_fault)
        self.num_threads = num_threads
        self.cheri = cheri
        self.gp = [[0] * 32 for _ in range(num_threads)]
        self.meta = [[0] * 32 for _ in range(num_threads)]
        self.pc = [0] * num_threads
        self.pcc = [0] * num_threads
        self.halted = [False] * num_threads
        self.memory = GoldenMemory()

    # -- state access -----------------------------------------------------

    def _cap(self, thread, reg):
        meta = self.meta[thread][reg]
        return Capability.from_meta_word(meta & MASK32,
                                         self.gp[thread][reg],
                                         meta > MASK32)

    def _pcc_cap(self, thread, addr):
        meta = self.pcc[thread]
        return Capability.from_meta_word(meta & MASK32, addr, meta > MASK32)

    def _write(self, thread, reg, value, cap=None):
        if not reg:
            return
        self.gp[thread][reg] = value & MASK32
        if self.cheri:
            self.meta[thread][reg] = (
                0 if cap is None
                else cap.meta_word() | (int(cap.tag) << 32))

    # -- faults -----------------------------------------------------------

    def _fault(self, kind, message, thread, pc):
        raise GoldenFault(kind, message, thread=thread, pc=pc)

    def _check_cap(self, cap, addr, width, perm, thread, pc, op_name):
        """The architectural capability check: tag, seal, perms, bounds."""
        if not cap.tag:
            self._fault("TagViolation",
                        "%s via untagged capability" % op_name, thread, pc)
        if cap.is_sealed:
            self._fault("SealViolation",
                        "%s via sealed capability" % op_name, thread, pc)
        if not int(cap.perms) & int(perm):
            self._fault("PermissionViolation",
                        "%s lacks %s" % (op_name, perm.name), thread, pc)
        if not (cap.base <= addr and addr + width <= cap.top):
            self._fault("BoundsViolation",
                        "%s out of bounds at 0x%08x" % (op_name, addr),
                        thread, pc)

    # -- execution --------------------------------------------------------

    def step(self, thread):
        """Fetch and execute one instruction on ``thread``.

        Returns the executed :class:`~repro.isa.instructions.Instr`, or
        ``None`` when the thread is halted.  Raises :class:`GoldenFault`
        on any architectural fault (the PC is left at the faulting
        instruction).
        """
        if self.halted[thread]:
            return None
        pc = self.pc[thread]
        index = pc >> 2
        decoded = self._decoded
        if not 0 <= index < len(decoded):
            self._fault("SoftwareTrap",
                        "instruction fetch from unmapped pc 0x%x" % pc,
                        thread, pc)
        if self.cheri:
            fault = self._fetch_fault(self.pcc[thread], pc)
            if fault is not None:
                self._fault(fault[0], fault[1], thread, pc)
        kind, fn, rd, rs1, rs2, imm, aux = decoded[index]
        gp = self.gp[thread]
        # Register-register and register-immediate ALU ops and branches
        # are most of every program: they run inline, the rest through
        # their decoded handler.
        if kind == _K_RR:
            value = fn(gp[rs1], gp[rs2])
        elif kind == _K_RI:
            value = fn(gp[rs1], imm)
        else:
            if kind == _K_BRANCH:
                self.pc[thread] = ((pc + imm) & MASK32
                                   if fn(gp[rs1], gp[rs2]) else pc + 4)
            else:
                fn(self, thread, pc, gp, rd, rs1, rs2, imm, aux)
            return self.program[index]
        if rd:
            gp[rd] = value & MASK32
            if self.cheri:
                self.meta[thread][rd] = 0
        self.pc[thread] = pc + 4
        return self.program[index]

    # -- decoded handlers: (self, thread, pc, gp, rd, rs1, rs2, imm, aux) --

    def _x_unary(self, thread, pc, gp, rd, rs1, rs2, imm, fn):
        self._write(thread, rd, fn(gp[rs1]))
        self.pc[thread] = pc + 4

    def _x_cget(self, thread, pc, gp, rd, rs1, rs2, imm, fn):
        self._write(thread, rd, fn(self._cap(thread, rs1)))
        self.pc[thread] = pc + 4

    def _x_cmod1(self, thread, pc, gp, rd, rs1, rs2, imm, fn):
        cap = fn(self._cap(thread, rs1))
        self._write(thread, rd, cap.addr, cap=cap)
        self.pc[thread] = pc + 4

    def _x_cmod2(self, thread, pc, gp, rd, rs1, rs2, imm, fn):
        cap = fn(self._cap(thread, rs1), gp[rs2])
        self._write(thread, rd, cap.addr, cap=cap)
        self.pc[thread] = pc + 4

    def _x_cimm(self, thread, pc, gp, rd, rs1, rs2, imm, fn):
        cap = fn(self._cap(thread, rs1), imm or 0)
        self._write(thread, rd, cap.addr, cap=cap)
        self.pc[thread] = pc + 4

    def _x_lui(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        self._write(thread, rd, (imm << 12) & MASK32)
        self.pc[thread] = pc + 4

    def _x_auipc(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        self._write(thread, rd, (pc + (imm << 12)) & MASK32)
        self.pc[thread] = pc + 4

    def _x_auipcc(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        addr = (pc + (imm << 12)) & MASK32
        self._write(thread, rd, addr,
                    cap=self._pcc_cap(thread, pc).set_addr(addr))
        self.pc[thread] = pc + 4

    def _x_jal(self, thread, pc, gp, rd, rs1, rs2, imm, sentry_link):
        if rd:
            link_cap = None
            if sentry_link:
                link_cap = self._pcc_cap(thread, pc + 4).seal_entry()
            self._write(thread, rd, pc + 4, cap=link_cap)
        self.pc[thread] = (pc + imm) & MASK32

    def _x_jalr(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        target = (gp[rs1] + (imm or 0)) & ~1 & MASK32
        if rd:
            self._write(thread, rd, pc + 4)
        self.pc[thread] = target

    def _x_cjalr(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        cap = self._cap(thread, rs1)
        if not cap.tag:
            self._fault("TagViolation", "CJALR via untagged capability",
                        thread, pc)
        if cap.is_sealed and not cap.is_sentry:
            self._fault("SealViolation", "CJALR via sealed capability",
                        thread, pc)
        if Perms.EXECUTE not in cap.perms:
            self._fault("PermissionViolation",
                        "CJALR target lacks execute", thread, pc)
        target_cap = cap.unseal_entry() if cap.is_sentry else cap
        if rd:
            link = self._pcc_cap(thread, pc + 4).seal_entry()
            self._write(thread, rd, pc + 4, cap=link)
        self.pcc[thread] = (target_cap.meta_word()
                            | (int(target_cap.tag) << 32))
        self.pc[thread] = (target_cap.addr + (imm or 0)) & ~1 & MASK32

    def _x_cspecialrw(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        self._write(thread, rd, pc, cap=self._pcc_cap(thread, pc))
        self.pc[thread] = pc + 4

    def _x_sync(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        # Synchronisation has no architectural per-thread effect beyond
        # advancing the PC.
        self.pc[thread] = pc + 4

    def _x_halt(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        self.halted[thread] = True  # PC stays at the halt

    def _x_trap(self, thread, pc, gp, rd, rs1, rs2, imm, op):
        self._fault("SoftwareTrap", "software trap (%s)" % op.name.lower(),
                    thread, pc)

    def _x_unimplemented(self, thread, pc, gp, rd, rs1, rs2, imm, op):
        self._fault("SoftwareTrap", "unimplemented op %s" % op, thread, pc)

    # -- memory handlers: ``aux`` is ``(op, width, perms, extra)`` ---------

    def _address(self, thread, pc, gp, rs1, imm, op, width, perms):
        """Effective address and authorising capability (``None`` for
        integer-addressed ops); capability-addressed ops are checked
        against each permission in ``perms``, in order."""
        imm = imm or 0
        if not perms:
            return (gp[rs1] + imm) & MASK32, None
        cap = self._cap(thread, rs1)
        addr = (cap.addr + imm) & MASK32
        for perm in perms:
            self._check_cap(cap, addr, width, perm, thread, pc, op.name)
        return addr, cap

    def _x_load(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        op, width, perms, signed = aux
        addr, _ = self._address(thread, pc, gp, rs1, imm, op, width, perms)
        self._write(thread, rd, self.memory.load(addr, width, signed))
        self.pc[thread] = pc + 4

    def _x_store(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        op, width, perms, _ = aux
        addr, _ = self._address(thread, pc, gp, rs1, imm, op, width, perms)
        self.memory.store(addr, width, gp[rs2] & ((1 << (8 * width)) - 1))
        self.pc[thread] = pc + 4

    def _x_amo(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        op, width, perms, fn = aux
        addr, _ = self._address(thread, pc, gp, rs1, imm, op, width, perms)
        memory = self.memory
        old = memory.load(addr, 4)
        memory.store(addr, 4, fn(old, gp[rs2]))
        self._write(thread, rd, old)
        self.pc[thread] = pc + 4

    def _x_clc(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        op, width, perms, _ = aux
        addr, cap = self._address(thread, pc, gp, rs1, imm, op, width, perms)
        raw, tag = self.memory.load_cap(addr)
        if tag and Perms.LOAD_CAP not in cap.perms:
            tag = False  # lacking LOAD_CAP strips the loaded tag
        loaded = Capability.from_mem(raw | (int(tag) << 64))
        self._write(thread, rd, loaded.addr, cap=loaded)
        self.pc[thread] = pc + 4

    def _x_csc(self, thread, pc, gp, rd, rs1, rs2, imm, aux):
        op, width, perms, _ = aux
        addr, cap = self._address(thread, pc, gp, rs1, imm, op, width, perms)
        cap2 = self._cap(thread, rs2)
        if cap2.tag and Perms.STORE_CAP not in cap.perms:
            self._fault("PermissionViolation",
                        "CSC lacks STORE_CAP permission", thread, pc)
        self.memory.store_cap(addr, cap2.to_mem() & MASK64, cap2.tag)
        self.pc[thread] = pc + 4


# ---------------------------------------------------------------------------
# Decoding and the fetch check
# ---------------------------------------------------------------------------

#: Decoded kinds ``GoldenModel.step`` runs inline; everything else is
#: ``_K_CALL``, whose ``fn`` is a ``GoldenModel._x_*`` handler.
_K_RR, _K_RI, _K_BRANCH, _K_CALL = range(4)

#: (semantic table, handler) for ops whose handler takes the op's
#: semantic function as ``aux``.
_CALL_TABLES = (
    (_FLOAT1, GoldenModel._x_unary), (_CRR, GoldenModel._x_unary),
    (_CGET, GoldenModel._x_cget), (_CMOD1, GoldenModel._x_cmod1),
    (_CMOD2, GoldenModel._x_cmod2), (_CIMM, GoldenModel._x_cimm),
)

#: op -> handler for the remaining ops; their ``aux`` is the op (for
#: jumps: whether the link is sealed as a sentry).
_CALL_OPS = {
    Op.LUI: GoldenModel._x_lui,
    Op.AUIPC: GoldenModel._x_auipc,
    Op.AUIPCC: GoldenModel._x_auipcc,
    Op.JAL: GoldenModel._x_jal,
    Op.CJAL: GoldenModel._x_jal,
    Op.JALR: GoldenModel._x_jalr,
    Op.CJALR: GoldenModel._x_cjalr,
    Op.CSPECIALRW: GoldenModel._x_cspecialrw,
    Op.BARRIER: GoldenModel._x_sync,
    Op.FENCE: GoldenModel._x_sync,
    Op.HALT: GoldenModel._x_halt,
    Op.TRAP: GoldenModel._x_trap,
    Op.EBREAK: GoldenModel._x_trap,
    Op.ECALL: GoldenModel._x_trap,
}


def _decode_memory(op):
    """``(handler, aux)`` of a load, store or atomic."""
    if not op.name.startswith("C"):
        perms = ()
    elif op in AMO_OPS:
        perms = (Perms.LOAD, Perms.STORE)
    elif op in STORE_OPS:
        perms = (Perms.STORE,)
    else:
        perms = (Perms.LOAD,)
    width = ACCESS_WIDTH[op]
    if op in AMO_OPS:
        return GoldenModel._x_amo, (op, width, perms, _AMO[op])
    if op is Op.CSC:
        return GoldenModel._x_csc, (op, width, perms, None)
    if op in STORE_OPS:
        return GoldenModel._x_store, (op, width, perms, None)
    if op is Op.CLC:
        return GoldenModel._x_clc, (op, width, perms, None)
    return GoldenModel._x_load, (op, width, perms, op in _SIGNED_LOADS)


def _decode_op(op):
    """``(kind, fn, aux)``: the part of a decoded instruction that
    depends on its op alone."""
    fn = _INT2.get(op) or _FLOAT2.get(op)
    if fn is not None:
        # Every register-register function masks its own operands.
        return _K_RR, fn, None
    fn = _INT_IMM.get(op)
    if fn is not None:
        return _K_RI, fn, None
    fn = _BRANCH.get(op)
    if fn is not None:
        return _K_BRANCH, fn, None
    if op in LOAD_OPS or op in STORE_OPS or op in AMO_OPS:
        return (_K_CALL,) + _decode_memory(op)
    for table, handler in _CALL_TABLES:
        fn = table.get(op)
        if fn is not None:
            return _K_CALL, handler, fn
    handler = _CALL_OPS.get(op, GoldenModel._x_unimplemented)
    aux = op is Op.CJAL if handler is GoldenModel._x_jal else op
    return _K_CALL, handler, aux


_OP_DECODE = {op: _decode_op(op) for op in Op}


def _decode(instr):
    """One static instruction -> ``(kind, fn, rd, rs1, rs2, imm, aux)``.

    Decoding only looks the op up, so nothing here can fault: operand
    errors surface when the instruction executes, exactly as if it were
    decoded per step.
    """
    kind, fn, aux = _OP_DECODE[instr.op]
    imm = instr.imm
    if kind == _K_RI:
        imm = (imm or 0) & MASK32
    return (kind, fn, instr.rd, instr.rs1, instr.rs2, imm, aux)


def _fetch_fault(pcc, pc):
    """The PCC fetch check: ``None`` when a thread whose packed PCC is
    ``pcc`` may fetch at ``pc``, else the fault's ``(kind, message)``.

    A pure function of its two arguments, so each model memoises it.
    """
    cap = Capability.from_meta_word(pcc & MASK32, pc, pcc > MASK32)
    if not (cap.tag and Perms.EXECUTE in cap.perms):
        return ("PermissionViolation", "PCC lacks execute permission")
    if not (cap.base <= pc and pc + 4 <= cap.top):
        return ("BoundsViolation", "instruction fetch outside PCC bounds")
    return None
