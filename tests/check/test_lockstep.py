"""Lockstep cross-check: the whole benchmark suite, fault lockstep, and
a sensitivity check that the harness actually detects divergences.
"""

import pytest

from repro.benchsuite import BENCHMARK_NAMES
from repro.check import DivergenceError, check_benchmark, check_program
from repro.check.golden import GoldenModel
from repro.isa.assembler import assemble_text
from repro.isa.instructions import Op
from repro.simt.config import SMConfig

CONFIGS = ("baseline", "cheri_opt", "boundscheck")


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_lockstep(name, config_name):
    """Every benchmark, in every mode, retires in architectural lockstep
    with the golden model (including the final full-state sweep)."""
    stats, checker = check_benchmark(name, config_name, scale=1)
    assert stats.cycles > 0
    assert checker.retired > 0
    assert checker.instructions >= checker.retired


# ---------------------------------------------------------------------------
# Fault lockstep
# ---------------------------------------------------------------------------

def _bounded_cap(length=64):
    from repro.cheri.capability import root_capability
    from repro.simt.config import HEAP_BASE
    cap, exact = root_capability().set_bounds(HEAP_BASE, length)
    assert exact
    return cap


def test_fault_lockstep_bounds_violation():
    program = assemble_text("clw t0, 64(a0)\nhalt")
    config = SMConfig.cheri_optimised(num_warps=2, num_lanes=4)
    stats, checker, fault = check_program(
        program, config, init_cap_regs={10: _bounded_cap(64)})
    assert stats is None
    assert type(fault).__name__ == "BoundsViolation"


def test_fault_lockstep_tag_violation():
    program = assemble_text("ccleartag a0, a0\nclw t0, 0(a0)\nhalt")
    config = SMConfig.cheri(num_warps=2, num_lanes=4)
    stats, checker, fault = check_program(
        program, config, init_cap_regs={10: _bounded_cap()})
    assert stats is None
    assert type(fault).__name__ == "TagViolation"


def test_in_bounds_access_is_not_a_fault():
    program = assemble_text("clw t0, 0(a0)\ncsw t0, 4(a0)\nhalt")
    config = SMConfig.cheri_optimised(num_warps=2, num_lanes=4)
    stats, checker, fault = check_program(
        program, config, init_cap_regs={10: _bounded_cap()})
    assert fault is None
    assert stats is not None and stats.cycles > 0


# ---------------------------------------------------------------------------
# Divergence-stress micro-kernels (masked issue on the vector backend)
# ---------------------------------------------------------------------------

def test_divergence_micro_kernels_lockstep():
    """The irregular micro-kernels retire in golden-model lockstep on
    the vector backend."""
    from tests.simt.kernels import branch_ladder, frontier_loop
    for prog, regs in (branch_ladder(), frontier_loop()):
        config = SMConfig.baseline(num_warps=2, num_lanes=4).with_(
            backend="vector")
        stats, checker, fault = check_program(prog, config,
                                              init_regs=regs)
        assert fault is None
        assert stats is not None and checker.retired > 0


# ---------------------------------------------------------------------------
# Sensitivity: the checker must actually catch a wrong pipeline
# ---------------------------------------------------------------------------

def test_lockstep_detects_injected_alu_bug(monkeypatch):
    from repro.simt import pipeline
    monkeypatch.setitem(pipeline._INT_R_FN, Op.XOR,
                        lambda a, b: (a | b) & 0xFFFFFFFF)
    program = assemble_text("xor t0, a1, a2\nhalt")
    config = SMConfig.baseline(num_warps=1, num_lanes=2)
    with pytest.raises(DivergenceError) as info:
        check_program(program, config,
                      init_regs={11: [0b1100, 0b1010], 12: [0b1010, 0b0110]})
    assert "x5" in str(info.value)


def test_lockstep_detects_injected_memory_bug(monkeypatch):
    from repro.simt import pipeline
    from repro.simt.config import HEAP_BASE
    original = pipeline._AMO_FN[Op.AMOADD_W]
    monkeypatch.setitem(pipeline._AMO_FN, Op.AMOADD_W,
                        lambda old, v: (old - v) & 0xFFFFFFFF)
    program = assemble_text("amoadd.w t0, a0, a1\nhalt")
    config = SMConfig.baseline(num_warps=1, num_lanes=2)
    with pytest.raises(DivergenceError):
        check_program(program, config,
                      init_regs={10: [HEAP_BASE, HEAP_BASE],
                                 11: [5, 7]})
    assert pipeline._AMO_FN[Op.AMOADD_W] is not original  # still patched


# ---------------------------------------------------------------------------
# Whole-warp compare: the same first divergence as the per-lane walk
# ---------------------------------------------------------------------------

def _inject_golden_bug(monkeypatch, at_pc, thread, corrupt):
    """After a golden model steps ``thread`` at ``at_pc``, corrupt its
    state with ``corrupt(golden, thread, instr)`` (once per model)."""
    original = GoldenModel.step

    def step(self, t):
        pc = self.pc[t]
        instr = original(self, t)
        if t == thread and pc == at_pc and not hasattr(self, "bug_fired"):
            self.bug_fired = True
            corrupt(self, t, instr)
        return instr

    monkeypatch.setattr(GoldenModel, "step", step)


def _flip_rd(golden, t, instr):
    golden.gp[t][instr.rd] ^= 0x10


def _flip_rd_meta(golden, t, instr):
    golden.meta[t][instr.rd] ^= 1


def _skip_pc(golden, t, instr):
    golden.pc[t] += 4


def _halt(golden, t, instr):
    golden.halted[t] = True


def _flip_pcc(golden, t, instr):
    golden.pcc[t] ^= 1


_WHOLE_WARP_FIELDS = [
    (_flip_rd, "x11"),
    (_flip_rd_meta, "meta(x11)"),
    (_skip_pc, "next pc"),
    (_halt, "halted"),
    (_flip_pcc, "pcc"),
]


def _whole_warp_case():
    program = assemble_text("cincoffsetimm a1, a0, 4\n"
                            "addi t0, t0, 1\n"
                            "halt")
    config = SMConfig.cheri_optimised(num_warps=1, num_lanes=4)
    return program, config, {10: _bounded_cap()}


def _divergence(program, config, caps):
    with pytest.raises(DivergenceError) as info:
        check_program(program, config, init_cap_regs=caps)
    d = info.value.divergence
    return (d.cycle, d.warp, d.lane, d.thread, d.pc, d.field,
            d.pipeline_value, d.golden_value)


@pytest.mark.parametrize("corrupt, field", _WHOLE_WARP_FIELDS,
                         ids=[f for _, f in _WHOLE_WARP_FIELDS])
def test_whole_warp_compare_reports_the_per_lane_divergence(
        monkeypatch, corrupt, field):
    """A single-lane bug in any whole-warp-compared field is reported
    with the lane, field and values the lane-by-lane walk reports."""
    from repro.check.lockstep import LockstepChecker
    program, config, caps = _whole_warp_case()
    _inject_golden_bug(monkeypatch, at_pc=0, thread=2, corrupt=corrupt)
    verdicts = []
    original = LockstepChecker._warp_agrees

    def spy(self, *args):
        verdicts.append(original(self, *args))
        return verdicts[-1]

    monkeypatch.setattr(LockstepChecker, "_warp_agrees", spy)
    reported = _divergence(program, config, caps)
    assert verdicts == [False]   # the full-warp retire took the vector path
    assert reported[2:6] == (2, 2, 0, field)

    # The reference: the same run with every retire walked lane by lane.
    monkeypatch.setattr(LockstepChecker, "_warp_agrees",
                        lambda self, *args: False)
    assert _divergence(program, config, caps) == reported


def test_partial_mask_retire_is_diffed_lane_by_lane(monkeypatch):
    """A retire covering only some lanes skips the whole-warp compare and
    still catches a bug in one of its lanes."""
    from repro.check.lockstep import LockstepChecker
    program = assemble_text("""
        beq  a1, zero, skip
        addi t0, t0, 1
    skip:
        addi t1, t1, 2
        halt
    """)
    config = SMConfig.baseline(num_warps=1, num_lanes=4)
    retires, vector_compares = [], []
    on_retire = LockstepChecker.on_retire
    warp_agrees = LockstepChecker._warp_agrees

    def record_retire(self, cycle, warp, pc, instr, lanes):
        retires.append((pc, tuple(lanes)))
        return on_retire(self, cycle, warp, pc, instr, lanes)

    def record_compare(self, *args):
        vector_compares.append(args)
        return warp_agrees(self, *args)

    monkeypatch.setattr(LockstepChecker, "on_retire", record_retire)
    monkeypatch.setattr(LockstepChecker, "_warp_agrees", record_compare)
    _inject_golden_bug(monkeypatch, at_pc=4, thread=3, corrupt=_flip_rd)
    with pytest.raises(DivergenceError) as info:
        check_program(program, config, init_regs={11: [0, 1, 0, 1]})
    d = info.value.divergence
    assert (d.pc, d.lane, d.field) == (4, 3, "x5")
    assert retires == [(0, (0, 1, 2, 3)), (4, (1, 3))]
    assert len(vector_compares) == 1   # only the full-warp branch


# ---------------------------------------------------------------------------
# Fetch memo: one pc, two PCCs
# ---------------------------------------------------------------------------

def _code_cap(length):
    """An executable capability over ``[0, length)``, pointing at 8."""
    from repro.cheri.capability import Perms, root_capability
    cap, exact = root_capability(Perms.GLOBAL | Perms.EXECUTE
                                 | Perms.LOAD).set_bounds(0, length)
    assert exact
    cap = cap.set_addr(8)
    assert cap.tag
    return cap


def test_fetch_memo_faults_the_thread_whose_pcc_excludes_the_pc():
    """Warp 0 jumps to pc 8 under a PCC that covers it, warp 1 under one
    that ends at 8.  Warp 0 executes pc 8 first, so the fetch check has
    already seen (valid PCC, 8) when warp 1 faults there; the golden
    model must still fault on warp 1 with the pipeline's class and pc."""
    program = assemble_text("cjalr zero, a0, 0\n"
                            "halt\n"
                            "addi t0, t0, 1\n"
                            "halt")
    config = SMConfig.cheri_optimised(num_warps=2, num_lanes=4)
    caps = [_code_cap(64)] * 4 + [_code_cap(8)] * 4
    stats, checker, fault = check_program(program, config,
                                          init_cap_regs={10: caps})
    assert stats is None
    assert type(fault).__name__ == "BoundsViolation" and fault.pc == 8
    golden = checker.golden
    assert golden.pc[:4] == [12] * 4     # warp 0 fetched pc 8 first
    assert golden.pc[4:] == [8] * 4


@pytest.mark.parametrize("bad", ["bounds", "execute", "pc"])
@pytest.mark.parametrize("bad_first", [False, True])
def test_fetch_memo_keys_on_pcc_and_pc(bad, bad_first):
    """Thread 0 may fetch, thread 1 may not: under another PCC at the
    same pc ("bounds", "execute"), or under the same PCC at another pc
    ("pc").  Either order, the memoised check tells them apart."""
    from repro.check.golden import GoldenFault
    from repro.cheri.capability import Perms
    program = assemble_text("addi t0, t0, 1\n" * 3 + "halt")
    good_cap, good_pc, bad_pc = _code_cap(64), 8, 8
    if bad == "bounds":
        bad_cap, kind = _code_cap(8), "BoundsViolation"
    elif bad == "execute":
        bad_cap, kind = (good_cap.and_perms(Perms.GLOBAL | Perms.LOAD),
                         "PermissionViolation")
    else:
        good_cap = bad_cap = _code_cap(8)
        good_pc, kind = 4, "BoundsViolation"
    golden = GoldenModel(program, num_threads=2, cheri=True)
    golden.pc[:] = [good_pc, bad_pc]
    golden.pcc[:] = [cap.meta_word() | (1 << 32)
                     for cap in (good_cap, bad_cap)]
    for thread in ((1, 0) if bad_first else (0, 1)):
        if thread == 0:
            assert golden.step(0) is program[good_pc >> 2]
            assert golden.pc[0] == good_pc + 4
        else:
            with pytest.raises(GoldenFault) as info:
                golden.step(1)
            assert (info.value.kind, info.value.pc) == (kind, bad_pc)
            assert golden.pc[1] == bad_pc


# ---------------------------------------------------------------------------
# Golden model basics (independent of the pipeline)
# ---------------------------------------------------------------------------

def test_golden_model_runs_standalone():
    program = assemble_text("""
        addi t0, zero, 0
        addi t1, zero, 5
    loop:
        addi t0, t0, 1
        blt  t0, t1, loop
        halt
    """)
    golden = GoldenModel(program, num_threads=2, cheri=False)
    steps = 0
    while not all(golden.halted) and steps < 100:
        for thread in range(2):
            if not golden.halted[thread]:
                golden.step(thread)
        steps += 1
    assert all(golden.halted)
    assert golden.gp[0][5] == 5 and golden.gp[1][5] == 5
