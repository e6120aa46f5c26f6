"""The ``-O1`` pass set: semantics-preserving rewrites of the linear IR.

Every pass edits the item list and reports what it changed.  Each takes
an optional ``cfg``, the CFG of ``items`` as given: the pass manager
(:mod:`.pipeline`) hands the previous pass's CFG on when that pass
changed nothing, and a pass rebuilds it after each of its own edits.
Safety arguments, per pass:

- **LICM** hoists only *pure, non-trapping* operations (integer/float
  ALU, LI, and the capability-manipulation ops, which clear the tag
  rather than fault — see ``repro.cheri.capability``) whose destination
  has exactly one definition and whose operands are loop-invariant, so
  speculating them into the preheader is value- and trap-preserving
  even for zero-trip loops.
- **CSE** merges lexically identical pure expressions when the earlier
  definition dominates the later one and all operands are single-
  definition registers (register identity then implies value identity).
- **Strength reduction** rewrites MUL/DIVU/REMU with a known power-of-
  two operand into shifts/masks — bit-exact for 32-bit wrapping
  arithmetic.
- **Bounds-check elimination** deletes the compare-and-trap triple when
  the :class:`~repro.nocl.opt.dataflow.AvailableChecks` must-analysis
  proves an identical dominating check, or when
  :class:`~repro.nocl.opt.ranges.RangeAnalysis` proves ``idx < len`` on
  the unsigned order.  Removing a check that can never trap is
  trap-preserving by construction.
- **DCE** removes pure definitions whose result is dead per the
  block-level liveness analysis (stronger than the allocator's global
  "never read" sweep: it kills values that are only read before being
  rewritten).
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Op
from repro.nocl.ir import FIRST_VREG, VInstr, VLabel, VLoadImm
from repro.nocl.opt.cfg import CFG, CFGError, build_cfg
from repro.nocl.opt.dataflow import AvailableChecks, Liveness, def_sites
from repro.nocl.opt.ranges import RangeAnalysis
from repro.nocl.regalloc import _PURE_OPS

#: Non-trapping capability manipulation: these derive a new capability
#: and clear the tag on misuse instead of faulting, so they may be
#: executed speculatively (hoisted) and de-duplicated.
_CAP_PURE_OPS = frozenset({
    Op.CINCOFFSET, Op.CINCOFFSETIMM, Op.CSETBOUNDS, Op.CSETBOUNDSIMM,
    Op.CSETBOUNDSEXACT, Op.CMOVE, Op.CSETADDR, Op.CGETLEN, Op.CGETBASE,
    Op.CGETADDR, Op.CGETTAG, Op.CGETPERM,
})

#: Everything a pass may speculate, duplicate-eliminate, or delete.
PURE_OPS = frozenset(_PURE_OPS) | _CAP_PURE_OPS


def _is_pure_instr(item):
    if isinstance(item, VLoadImm):
        return True
    return (isinstance(item, VInstr) and item.op in PURE_OPS
            and item.rd is not None)


def _operand_regs(item):
    return [r for r in item.regs_read() if r != 0]


# ---------------------------------------------------------------------------
# Loop-invariant code motion
# ---------------------------------------------------------------------------

#: Hoisting makes values live across the loop's back edge; past this many
#: simultaneously-live loop-crossing registers, linear scan starts
#: spilling *inside* the loop, which costs more than recomputing.  The SM
#: has 22 allocatable registers; leave headroom for loop-body temps.
_PRESSURE_TARGET = 12


def licm(items, pressure_target=_PRESSURE_TARGET,
         cfg=None) -> Tuple[list, int]:
    """Hoist loop-invariant pure computation into loop preheaders.

    Returns ``(new_items, hoisted_count)``.  ``pressure_target`` bounds
    the loop-crossing register pressure hoisting may create (see
    :func:`_budget_moves`); 0 disables hoisting entirely.
    """
    hoisted_total = 0
    changed = pressure_target > 0
    while changed:
        changed = False
        try:
            cfg = cfg or build_cfg(items)
        except CFGError:
            return items, hoisted_total
        sites = def_sites(items)
        for header, body in cfg.loops:
            moves = _loop_invariants(cfg, sites, header, body,
                                     pressure_target)
            if not moves:
                continue
            items = _apply_hoist(cfg, items, header, moves)
            hoisted_total += len(moves)
            changed = True
            cfg = None  # item indices shifted: rebuild the CFG
            break
    return items, hoisted_total


def _loop_invariants(cfg, sites, header, body, pressure_target) -> List[int]:
    """Item indices (original order) hoistable out of one natural loop."""
    header_block = cfg.blocks[header]
    # The preheader position is just before the header label.  That spot
    # is only a real preheader if every loop entry falls through into the
    # header: any outside predecessor must be the linearly-previous block
    # ending without a jump around the insertion point.
    for pred in header_block.preds:
        if pred in body:
            continue
        pred_block = cfg.blocks[pred]
        if pred_block.end != header_block.start:
            return []
        last = cfg.items[pred_block.end - 1]
        if isinstance(last, VInstr) and last.target is not None:
            # Entry via explicit jump skips anything we insert.
            return []
    if all(pred in body for pred in header_block.preds):
        return []  # unreachable-entry loop; leave it alone

    defined_in_loop: Set[int] = set()
    loop_items: List[int] = []
    for b in sorted(body):
        for i in cfg.blocks[b].item_indices():
            loop_items.append(i)
            item = cfg.items[i]
            if isinstance(item, VLabel):
                continue
            for reg in item.regs_written():
                if reg != 0:
                    defined_in_loop.add(reg)

    moves: List[int] = []
    hoisted_dests: Set[int] = set()
    progress = True
    while progress:
        progress = False
        for i in loop_items:
            if i in moves:
                continue
            item = cfg.items[i]
            if not _is_pure_instr(item):
                continue
            rd = item.regs_written()[0]
            if rd < FIRST_VREG or len(sites.get(rd, ())) != 1:
                continue
            operands = _operand_regs(item)
            if rd in operands:
                continue
            if all(reg not in defined_in_loop or reg in hoisted_dests
                   for reg in operands):
                moves.append(i)
                hoisted_dests.add(rd)
                progress = True
    return _budget_moves(cfg, sites, loop_items, sorted(moves),
                         pressure_target)


def _budget_moves(cfg, sites, loop_items, candidates, pressure_target):
    """Keep only as many hoists as the register file can afford.

    A hoisted destination *persists* across the loop when some unmoved
    loop instruction still reads it; chain intermediates consumed only by
    other hoisted instructions die in the preheader and are free.  The
    budget is ``_PRESSURE_TARGET`` minus the registers the loop already
    keeps live across its back edge (values defined outside, read
    inside).
    """
    if not candidates:
        return candidates
    loop_set = set(loop_items)
    reads_in_loop: Dict[int, Set[int]] = {}
    for i in loop_items:
        item = cfg.items[i]
        if isinstance(item, VLabel):
            continue
        for reg in item.regs_read():
            reads_in_loop.setdefault(reg, set()).add(i)

    already_across = 0
    for reg, readers in reads_in_loop.items():
        if reg < FIRST_VREG or not readers:
            continue
        defs = sites.get(reg, ())
        # Any definition outside the loop means the value crosses into
        # it (covers both invariants and loop-carried variables, whose
        # init lives in the preheader).
        if defs and any(d not in loop_set for d in defs):
            already_across += 1
    budget = max(0, pressure_target - already_across)

    kept: List[int] = []
    kept_dests: Set[int] = set()

    def persist_count(selection):
        count = 0
        for i in selection:
            rd = cfg.items[i].regs_written()[0]
            if any(u not in selection for u in reads_in_loop.get(rd, ())):
                count += 1
        return count

    for i in candidates:
        item = cfg.items[i]
        operands = _operand_regs(item)
        # Dependency closure: loop-defined operands must themselves move.
        if any(reg in sites and sites[reg]
               and sites[reg][0] in loop_set
               and sites[reg][0] not in kept
               for reg in operands if reg >= FIRST_VREG):
            continue
        trial = set(kept) | {i}
        if persist_count(trial) > budget:
            continue
        kept.append(i)
        kept_dests.add(item.regs_written()[0])
    return sorted(kept)


def _apply_hoist(cfg, items, header, moves):
    header_block = cfg.blocks[header]
    insert_at = header_block.start
    # Hoisted items adopt the preheader's convergence depth.
    depth = items[insert_at].depth
    moved = []
    for i in moves:
        item = items[i]
        item.depth = depth
        moved.append(item)
    keep = [item for i, item in enumerate(items) if i not in set(moves)]
    shift = sum(1 for i in moves if i < insert_at)
    pos = insert_at - shift
    return keep[:pos] + moved + keep[pos:]


# ---------------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------------

def cse(items, cfg=None) -> Tuple[list, int]:
    """Dominator-scoped value numbering over single-definition registers."""
    removed_total = 0
    for _ in range(4):  # operand rewrites can expose new matches
        try:
            cfg = cfg or build_cfg(items)
        except CFGError:
            return items, removed_total
        sites = def_sites(items)

        def single_def(reg):
            if reg == 0:
                return True
            if reg < FIRST_VREG:
                return len(sites.get(reg, ())) == 0  # runtime-initialised
            return len(sites.get(reg, ())) == 1

        uses: Dict[int, List[int]] = {}
        for i, item in enumerate(items):
            if isinstance(item, VLabel):
                continue
            for reg in item.regs_read():
                uses.setdefault(reg, []).append(i)

        children: Dict[int, List[int]] = {}
        for b, parent in cfg.idom.items():
            if b != 0:
                children.setdefault(parent, []).append(b)
        if 0 not in cfg.idom:
            return items, removed_total

        delete: Set[int] = set()
        rewrite: Dict[int, int] = {}

        def key_of(i, item):
            if isinstance(item, VLoadImm):
                return ("LI", item.value)
            if (isinstance(item, VInstr) and item.op in PURE_OPS
                    and item.target is None):
                if not all(single_def(r) for r in _operand_regs(item)):
                    return None
                return (item.op, item.rs1, item.rs2, item.imm)
            return None

        def walk(block_index, scope):
            local = dict(scope)
            for i in cfg.blocks[block_index].item_indices():
                item = cfg.items[i]
                if isinstance(item, VLabel) or i in delete:
                    continue
                written = item.regs_written()
                if not written or written[0] < FIRST_VREG:
                    continue
                rd = written[0]
                if len(sites.get(rd, ())) != 1:
                    continue
                key = key_of(i, item)
                if key is None:
                    continue
                prior = local.get(key)
                if prior is not None and prior != rd:
                    if all(cfg.instr_dominates(i, u)
                           for u in uses.get(rd, ())):
                        delete.add(i)
                        rewrite[rd] = prior
                        continue
                local[key] = rd
            for child in sorted(children.get(block_index, ()),
                                key=lambda b: cfg.blocks[b].start):
                walk(child, local)

        walk(0, {})
        if not delete:
            return items, removed_total

        resolved = {}
        for old in rewrite:
            new = rewrite[old]
            while new in rewrite:
                new = rewrite[new]
            resolved[old] = new
        out = []
        for i, item in enumerate(items):
            if i in delete:
                continue
            if not isinstance(item, VLabel):
                if item.regs_read():
                    if isinstance(item, VInstr):
                        if item.rs1 in resolved:
                            item.rs1 = resolved[item.rs1]
                        if item.rs2 in resolved:
                            item.rs2 = resolved[item.rs2]
            out.append(item)
        items = out
        cfg = None
        removed_total += len(delete)
    return items, removed_total


# ---------------------------------------------------------------------------
# Strength reduction
# ---------------------------------------------------------------------------

def _power_of_two(value):
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def _divmod_recombine(items, cfg, sites, i, item):
    """Rewrite ``(x / y) * y + x % y`` into ``x`` (any ``y``).

    The identity holds modulo 2**32 for both signednesses, including
    the RISC-V edge cases: division by zero (``DIVU = UMAX, REMU = x``
    and ``DIV = -1, REM = x``, with ``q * 0 = 0``) and signed overflow
    (``INT_MIN / -1 = INT_MIN`` with remainder 0, and ``INT_MIN * -1
    == INT_MIN`` mod 2**32).  This is the tile-decomposition pattern
    ``(tid // tile) * tile + tid % tile == tid``, which gives the range
    analysis a provable index where the quotient alone is unbounded.
    """
    def sole_def(reg, at):
        """The reg's unique dominating def index; -1 for a launch-set
        physical register (never written); None when neither holds."""
        defs = sites.get(reg, ())
        if reg < FIRST_VREG:
            return -1 if not defs else None
        if len(defs) != 1 or not cfg.instr_dominates(defs[0], at):
            return None
        return defs[0]

    def resolve(reg, at):
        """Chase single-def ``ADDI rd, rs, 0`` copies to a root reg.

        The frontend emits a fresh copy per source-level mention of the
        same variable (e.g. each ``threadIdx.x``), so value equality
        must be checked on roots.  Roots are single-def or never
        written, hence hold one value for the whole kernel.  Returns
        None when the value cannot be pinned to a unique def.
        """
        for _ in range(len(items)):
            at = sole_def(reg, at)
            if at is None:
                return None
            if at < 0:
                return reg
            copy = items[at]
            if (isinstance(copy, VInstr) and copy.op == Op.ADDI
                    and copy.imm == 0 and copy.rs1 is not None):
                reg = copy.rs1
                continue
            return reg
        return None

    for mul_reg, rem_reg in ((item.rs1, item.rs2), (item.rs2, item.rs1)):
        mul_at = sole_def(mul_reg, i)
        rem_at = sole_def(rem_reg, i)
        if mul_at is None or mul_at < 0 or rem_at is None or rem_at < 0:
            continue
        mul, rem = items[mul_at], items[rem_at]
        if not (isinstance(mul, VInstr) and mul.op == Op.MUL
                and isinstance(rem, VInstr)
                and rem.op in (Op.REMU, Op.REM)):
            continue
        div_op = Op.DIVU if rem.op == Op.REMU else Op.DIV
        x_root = resolve(rem.rs1, rem_at)
        y_root = resolve(rem.rs2, rem_at)
        if x_root is None or y_root is None:
            continue
        for quot_reg, mul_y in ((mul.rs1, mul.rs2), (mul.rs2, mul.rs1)):
            if resolve(mul_y, mul_at) != y_root:
                continue
            quot_at = sole_def(quot_reg, mul_at)
            if quot_at is None or quot_at < 0:
                continue
            div = items[quot_at]
            if not (isinstance(div, VInstr) and div.op == div_op
                    and resolve(div.rs1, quot_at) == x_root
                    and resolve(div.rs2, quot_at) == y_root):
                continue
            # rem.rs1 is single-def, so it still holds x at the ADD.
            item.op, item.rs1, item.rs2, item.imm = \
                Op.ADDI, rem.rs1, None, 0
            return True
    return False


def strength_reduce(items, cfg=None) -> Tuple[list, int]:
    """MUL/DIVU/REMU with a known power-of-two operand -> shift/mask."""
    try:
        cfg = cfg or build_cfg(items)
    except CFGError:
        return items, 0
    sites = def_sites(items)
    consts: Dict[int, Tuple[int, int]] = {}  # reg -> (value, def index)
    for reg, defs in sites.items():
        if reg < FIRST_VREG or len(defs) != 1:
            continue
        item = items[defs[0]]
        if isinstance(item, VLoadImm):
            consts[reg] = (item.value & 0xFFFFFFFF, defs[0])
        elif (isinstance(item, VInstr) and item.op == Op.ADDI
                and item.rs1 == 0):
            consts[reg] = (item.imm & 0xFFFFFFFF, defs[0])

    def const_of(reg, at):
        if reg not in consts:
            return None
        value, where = consts[reg]
        if not cfg.instr_dominates(where, at):
            return None
        return value

    rewritten = 0
    for i, item in enumerate(items):
        if not isinstance(item, VInstr) or item.rd is None:
            continue
        if item.op == Op.MUL:
            for a, b in ((item.rs1, item.rs2), (item.rs2, item.rs1)):
                value = const_of(b, i)
                shift = _power_of_two(value) if value is not None else None
                if shift is None:
                    continue
                if shift == 0:
                    item.op, item.rs1, item.rs2, item.imm = \
                        Op.ADDI, a, None, 0
                else:
                    item.op, item.rs1, item.rs2, item.imm = \
                        Op.SLLI, a, None, shift
                rewritten += 1
                break
        elif item.op in (Op.DIVU, Op.REMU):
            value = const_of(item.rs2, i)
            shift = _power_of_two(value) if value is not None else None
            if shift is None:
                continue
            if item.op == Op.DIVU:
                item.op, item.rs2, item.imm = Op.SRLI, None, shift
                rewritten += 1
            elif value - 1 <= 2047:  # ANDI immediate range
                item.op, item.rs2, item.imm = Op.ANDI, None, value - 1
                rewritten += 1
        elif item.op == Op.ADD:
            if _divmod_recombine(items, cfg, sites, i, item):
                rewritten += 1
    return items, rewritten


# ---------------------------------------------------------------------------
# Bounds-check elimination
# ---------------------------------------------------------------------------

def find_checks(items):
    """Locate ``BLTU idx, len -> ok; TRAP; ok:`` guard triples.

    Returns ``(index, idx_reg, len_reg)`` tuples for triples whose label
    is targeted only by its own guard (so deleting all three items is
    safe).
    """
    target_counts: Dict[str, int] = {}
    for item in items:
        if isinstance(item, VInstr) and item.target is not None:
            target_counts[item.target] = target_counts.get(item.target, 0) + 1
    checks = []
    for i in range(len(items) - 2):
        guard, trap, label = items[i], items[i + 1], items[i + 2]
        if not (isinstance(guard, VInstr) and guard.op == Op.BLTU
                and guard.target is not None):
            continue
        if not (isinstance(trap, VInstr) and trap.op == Op.TRAP):
            continue
        if not (isinstance(label, VLabel) and label.name == guard.target):
            continue
        if target_counts.get(label.name) != 1:
            continue
        checks.append((i, guard.rs1, guard.rs2))
    return checks


def eliminate_bounds_checks(items, cfg=None) -> Tuple[list, int, int]:
    """Drop provably-redundant / provably-in-bounds software checks.

    Returns ``(new_items, dominated_removed, range_removed)``.
    """
    try:
        cfg = cfg or build_cfg(items)
    except CFGError:
        return items, 0, 0
    checks = find_checks(items)
    if not checks:
        return items, 0, 0
    available = AvailableChecks(cfg, checks)
    ranges = RangeAnalysis(cfg)

    dominated, proved = [], []
    for i, idx_reg, len_reg in checks:
        if (idx_reg, len_reg) in available.available_before(i):
            dominated.append(i)
            continue
        idx = ranges.interval_before(i, idx_reg)
        length = ranges.interval_before(i, len_reg)
        if idx.hi < length.lo:
            proved.append(i)

    if not dominated and not proved:
        return items, 0, 0
    doomed = set()
    for i in dominated + proved:
        doomed.update((i, i + 1, i + 2))
    out = [item for i, item in enumerate(items) if i not in doomed]
    return out, len(dominated), len(proved)


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------

def dce(items, cfg=None) -> Tuple[list, int]:
    """Remove pure definitions that are dead per block-level liveness."""
    removed_total = 0
    changed = True
    while changed:
        changed = False
        try:
            cfg = cfg or build_cfg(items)
        except CFGError:
            return items, removed_total
        liveness = Liveness(cfg)
        doomed: Set[int] = set()
        for block in cfg.blocks:
            if block.index not in cfg.reachable:
                continue
            live = set(liveness.live_out.get(block.index, set()))
            for i in reversed(list(block.item_indices())):
                item = cfg.items[i]
                if isinstance(item, VLabel):
                    continue
                written = item.regs_written()
                if (_is_pure_instr(item) and written
                        and written[0] >= FIRST_VREG
                        and written[0] not in live):
                    doomed.add(i)
                    continue
                for reg in written:
                    live.discard(reg)
                for reg in item.regs_read():
                    if reg != 0:
                        live.add(reg)
        if doomed:
            items = [item for i, item in enumerate(items) if i not in doomed]
            cfg = None
            removed_total += len(doomed)
            changed = True
    return items, removed_total
