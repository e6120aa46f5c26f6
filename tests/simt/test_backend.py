"""Scalar/vector backend equivalence at the SM level.

The vector backend (``SMConfig.backend == "vector"``) must be
bit-identical to the scalar reference backend — same statistics, same
memory effects, same faults — including the awkward corners these tests
pin down:

- instruction slots whose active-lane set shrinks to a single lane or
  whose static instructions never issue at all (a fully-taken branch);
- divergence and reconvergence across a warp;
- capability faults raised by a strict subset of a warp's lanes;
- hot straight-line regions, entered full-warp or under a diverged
  thread group's mask, including a capability fault raised mid-region
  (same fault, same pinned abort cycle, same statistics);
- the NumPy wide-SM path (``num_lanes >= 16``), which evaluates ALU ops
  on uint32 arrays instead of per-lane Python ints;
- per-lane capability address arithmetic from uniform metadata, decided
  by the *k*-window compare (in-window, one lane leaving it, untagged
  and sealed sources, CSetAddr, CIncOffsetImm, masked entries), and the
  batched binary32 add/sub/mul against the per-lane alu functions;
- backend selection: ``REPRO_BACKEND`` sets the default, an explicit
  argument wins, and an unknown name is rejected.
"""

import operator
import random
from dataclasses import asdict

import pytest

from repro.cheri import root_capability
from repro.isa.instructions import Instr, Op
from repro.simt import KernelAbort, SMConfig, StreamingMultiprocessor, alu
from repro.simt.backend import BACKEND_NAMES, vector
from repro.simt.backend.scalar import ScalarBackend
from repro.simt.backend.vector import VectorBackend
from repro.simt.config import HEAP_BASE

from tests.simt.kernels import branch_ladder, frontier_loop


def _config(mode, backend, num_warps, num_lanes, **kwargs):
    factory = (SMConfig.cheri_optimised if mode == "purecap"
               else SMConfig.baseline)
    return factory(num_warps=num_warps, num_lanes=num_lanes,
                   **kwargs).with_(backend=backend)


def _run_one(backend, prog, mode="baseline", num_warps=2, num_lanes=4,
             init_regs=None, init_cap_regs=None, setup=None, **kwargs):
    """One backend's view of a launch: stats, memory, tags, registers,
    fault."""
    sm = StreamingMultiprocessor(
        _config(mode, backend, num_warps, num_lanes, **kwargs))
    if setup is not None:
        setup(sm)
    fault = None
    try:
        sm.launch(prog, init_regs=init_regs, init_cap_regs=init_cap_regs)
    except KernelAbort as abort:
        cause = abort.cause
        fault = (type(cause).__name__, str(cause))
    regs = {}
    for w in range(sm.cfg.num_warps):
        for r in range(1, 32):
            regs[(w, r)] = (sm.gp.peek(w, r),
                            sm.meta.peek(w, r) if sm.meta is not None
                            else None)
    return {
        "stats": asdict(sm.stats),
        "words": dict(sm.memory._words),
        "tags": set(sm.memory._tags),
        "regs": regs,
        "fault": fault,
    }


def run_both(prog, **kwargs):
    """Run on both backends and assert every observable matches
    (statistics, memory, tags, fault, and every register's values and
    metadata).

    Returns the scalar observation so tests can make additional
    assertions about what actually happened.
    """
    scalar = _run_one("scalar", prog, **kwargs)
    vector = _run_one("vector", prog, **kwargs)
    assert scalar["fault"] == vector["fault"]
    assert scalar["words"] == vector["words"]
    assert scalar["tags"] == vector["tags"]
    assert scalar["regs"] == vector["regs"]
    assert scalar["stats"] == vector["stats"]
    return scalar


def heap_slots(num_threads, base=HEAP_BASE):
    return [base + 4 * t for t in range(num_threads)]


@pytest.fixture
def region_entries(monkeypatch):
    """Lower the vector backend's hot-region threshold so the tiny loops
    below fuse within a few trips, and count the region entries it
    makes: ``full``/``masked`` are back-to-back ``_run_region`` drains
    for the whole warp or under a thread group's mask, ``prefixes`` the
    masked entries ``_masked_prefix`` admitted (either scheduler path).
    Without these counts a region test could pass while never leaving
    the per-instruction issue path."""
    monkeypatch.setattr(VectorBackend, "_hot_threshold", 4)
    entries = {"full": 0, "masked": 0, "prefixes": 0}
    run_region = VectorBackend._run_region
    masked_prefix = VectorBackend._masked_prefix

    def spy_run_region(self, warp, steps, cycle, others, max_cycles,
                       kernel_abort, icounts, lanes=None, mask=0):
        entries["full" if lanes is None else "masked"] += 1
        return run_region(self, warp, steps, cycle, others, max_cycles,
                          kernel_abort, icounts, lanes, mask)

    def spy_masked_prefix(self, warp, lanes, steps):
        prefix = masked_prefix(self, warp, lanes, steps)
        if prefix >= 2:
            entries["prefixes"] += 1
        return prefix

    monkeypatch.setattr(VectorBackend, "_run_region", spy_run_region)
    monkeypatch.setattr(VectorBackend, "_masked_prefix", spy_masked_prefix)
    return entries


def _alu_loop(trips=12):
    """A convergent counted loop with a 4-step straight-line body."""
    prog = [
        Instr(Op.ADDI, rd=9, rs1=0, imm=0),
        Instr(Op.BGE, rs1=9, rs2=5, imm=24),             # loop head
        Instr(Op.ADD, rd=10, rs1=9, rs2=6),              # region start
        Instr(Op.XOR, rd=11, rs1=10, rs2=7),
        Instr(Op.SLLI, rd=12, rs1=11, imm=1),
        Instr(Op.ADDI, rd=9, rs1=9, imm=1),
        Instr(Op.JAL, rd=0, imm=-20),
        Instr(Op.SW, rs1=8, rs2=12, imm=0),
        Instr(Op.HALT),
    ]
    threads = 8
    regs = {5: [trips] * threads,
            6: [3] * threads,
            7: [0x55] * threads,
            8: heap_slots(threads)}
    return prog, regs


class TestMaskedIssueSlots:
    def test_branch_taken_by_all_lanes_skips_a_block(self):
        # rs1 == rs2 for every lane: the fall-through block has zero
        # active lanes and must never issue on either backend.
        prog = [
            Instr(Op.BEQ, rs1=0, rs2=0, imm=12),
            Instr(Op.ADDI, rd=7, rs1=0, imm=99, depth=1),   # never issues
            Instr(Op.SW, rs1=8, rs2=7, imm=0, depth=1),     # never issues
            Instr(Op.SW, rs1=8, rs2=6, imm=0),
            Instr(Op.HALT),
        ]
        obs = run_both(
            prog,
            init_regs={6: [41] * 8, 8: heap_slots(8)},
        )
        assert obs["words"][HEAP_BASE >> 2] == 41
        # The skipped block contributed nothing.
        assert obs["stats"]["opcode_counts"].get(Op.ADDI, 0) == 0

    def test_single_active_lane_then_empty_warp(self):
        # Lanes 0..2 halt immediately; lane 3 runs on alone, so every
        # subsequent slot issues with one active lane, then the warp
        # drains to zero runnable lanes.
        prog = [
            Instr(Op.BEQ, rs1=5, rs2=6, imm=8),
            Instr(Op.HALT),                                  # lanes != 3
            Instr(Op.ADDI, rd=7, rs1=7, imm=5, depth=1),
            Instr(Op.SW, rs1=8, rs2=7, imm=0, depth=1),
            Instr(Op.HALT),
        ]
        lanes = 4
        obs = run_both(
            prog,
            num_warps=2, num_lanes=lanes,
            init_regs={5: [t % lanes for t in range(2 * lanes)],
                       6: [3] * (2 * lanes),
                       8: heap_slots(2 * lanes)},
        )
        for warp in range(2):
            slot = (HEAP_BASE + 4 * (warp * lanes + 3)) >> 2
            assert obs["words"][slot] == 5


class TestDivergenceReconvergence:
    def test_even_odd_split_and_rejoin(self):
        # Even lanes double, odd lanes negate; everyone rejoins for the
        # store.  Exercises select/reconverge on both backends and, via
        # the rejoined tail, the vector backend's converged fast path.
        prog = [
            Instr(Op.ANDI, rd=7, rs1=5, imm=1),
            Instr(Op.BNE, rs1=7, rs2=0, imm=12),
            Instr(Op.ADD, rd=9, rs1=5, rs2=5, depth=1),      # even
            Instr(Op.JAL, rd=0, imm=8, depth=1),
            Instr(Op.SUB, rd=9, rs1=0, rs2=5, depth=1),      # odd
            Instr(Op.SW, rs1=8, rs2=9, imm=0),
            Instr(Op.HALT),
        ]
        lanes = 4
        threads = 2 * lanes
        obs = run_both(
            prog,
            num_warps=2, num_lanes=lanes,
            init_regs={5: list(range(threads)), 8: heap_slots(threads)},
        )
        for t in range(threads):
            expected = 2 * t if t % 2 == 0 else (-t) & 0xFFFFFFFF
            assert obs["words"][(HEAP_BASE + 4 * t) >> 2] == expected

    def test_divergent_loop_trip_counts(self):
        # Per-lane loop trip counts (tid iterations): lanes fall out of
        # the loop one by one, reconverging at the tail store.
        prog = [
            Instr(Op.ADDI, rd=9, rs1=0, imm=0),
            Instr(Op.BGE, rs1=9, rs2=5, imm=12),             # loop head
            Instr(Op.ADDI, rd=9, rs1=9, imm=1, depth=1),
            Instr(Op.JAL, rd=0, imm=-8, depth=1),
            Instr(Op.SW, rs1=8, rs2=9, imm=0),
            Instr(Op.HALT),
        ]
        lanes = 4
        threads = 2 * lanes
        obs = run_both(
            prog,
            num_warps=2, num_lanes=lanes,
            init_regs={5: list(range(threads)), 8: heap_slots(threads)},
        )
        for t in range(threads):
            assert obs["words"][(HEAP_BASE + 4 * t) >> 2] == t


class TestFaultingLaneSubsets:
    def _oob_case(self, bad_lanes, num_lanes=4):
        cap, exact = root_capability().set_bounds(HEAP_BASE, 4 * num_lanes)
        assert exact
        caps = []
        for t in range(num_lanes):
            addr = HEAP_BASE + 4 * t
            if t in bad_lanes:
                addr = HEAP_BASE + 4 * num_lanes  # one past the end
            caps.append(cap.set_addr(addr))
        prog = [Instr(Op.CLW, rd=7, rs1=6, imm=0), Instr(Op.HALT)]
        return prog, {6: caps}

    @pytest.mark.parametrize("bad_lanes", [(3,), (0,), (1, 2)])
    def test_out_of_bounds_lane_subset_faults_identically(self, bad_lanes):
        prog, caps = self._oob_case(set(bad_lanes))
        obs = run_both(prog, mode="purecap", num_warps=1,
                       init_cap_regs=caps)
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"

    def test_all_lanes_in_bounds_is_clean(self):
        prog, caps = self._oob_case(set())
        obs = run_both(prog, mode="purecap", num_warps=1,
                       init_cap_regs=caps)
        assert obs["fault"] is None

    def test_store_fault_leaves_identical_memory(self):
        # A faulting masked store must leave memory in the same state on
        # both backends (the fault is precise: no partial effects after
        # the faulting slot).
        num_lanes = 4
        cap, exact = root_capability().set_bounds(HEAP_BASE, 4 * num_lanes)
        assert exact
        caps = [cap.set_addr(HEAP_BASE + 8 * t) for t in range(num_lanes)]
        prog = [Instr(Op.CSW, rs1=6, rs2=5, imm=0), Instr(Op.HALT)]
        obs = run_both(prog, mode="purecap", num_warps=1,
                       init_regs={5: [7] * num_lanes}, init_cap_regs={6: caps})
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"


class TestWideSMNumpyPath:
    """>= 16 lanes engages the vector backend's NumPy array ALU."""

    def test_alu_mix_sixteen_lanes(self):
        lanes = 16
        prog = [
            Instr(Op.ADD, rd=9, rs1=5, rs2=6),
            Instr(Op.SLL, rd=10, rs1=9, rs2=7),
            Instr(Op.XOR, rd=11, rs1=10, rs2=5),
            Instr(Op.SUB, rd=12, rs1=11, rs2=6),
            Instr(Op.SW, rs1=8, rs2=12, imm=0),
            Instr(Op.HALT),
        ]
        obs = run_both(
            prog,
            num_warps=1, num_lanes=lanes,
            init_regs={5: list(range(lanes)),
                       6: [0x01010101 * (t % 3) for t in range(lanes)],
                       7: [t % 5 for t in range(lanes)],
                       8: heap_slots(lanes)},
        )
        for t in range(lanes):
            a, b, sh = t, 0x01010101 * (t % 3), t % 5
            value = ((((a + b) & 0xFFFFFFFF) << sh) & 0xFFFFFFFF) ^ a
            value = (value - b) & 0xFFFFFFFF
            assert obs["words"][(HEAP_BASE + 4 * t) >> 2] == value

    def test_masked_wide_alu(self):
        # Divergence at 16 lanes: the masked NumPy path must scatter
        # results only into active lanes.
        lanes = 16
        prog = [
            Instr(Op.ANDI, rd=7, rs1=5, imm=1),
            Instr(Op.BNE, rs1=7, rs2=0, imm=12),
            Instr(Op.ADD, rd=9, rs1=5, rs2=5, depth=1),
            Instr(Op.JAL, rd=0, imm=8, depth=1),
            Instr(Op.ADDI, rd=9, rs1=5, imm=100, depth=1),
            Instr(Op.SW, rs1=8, rs2=9, imm=0),
            Instr(Op.HALT),
        ]
        obs = run_both(
            prog,
            num_warps=1, num_lanes=lanes,
            init_regs={5: list(range(lanes)), 8: heap_slots(lanes)},
        )
        for t in range(lanes):
            expected = 2 * t if t % 2 == 0 else t + 100
            assert obs["words"][(HEAP_BASE + 4 * t) >> 2] == expected


class TestIrregularKernels:
    """Divergence-stress micro-kernels (shared with the lockstep tests).

    Both kernels keep a strict subset of each warp's lanes converged on
    a long straight-line block, so the vector backend's masked region
    entries — not just its per-slot masked issue — carry the run."""

    def test_branch_ladder_bit_identical(self, region_entries):
        prog, regs = branch_ladder(trips=24)
        obs = run_both(prog, num_warps=2, num_lanes=4, init_regs=regs)
        assert obs["fault"] is None
        # Every lane rejoined and stored its final accumulator.
        for t in range(8):
            assert (HEAP_BASE + 4 * t) >> 2 in obs["words"]
        assert region_entries["prefixes"] > 0

    def test_frontier_loop_bit_identical(self, region_entries):
        prog, regs = frontier_loop()
        obs = run_both(prog, num_warps=2, num_lanes=4, init_regs=regs)
        assert obs["fault"] is None
        for t in range(8):
            trips = (3 * t) % 7 + 1
            assert obs["words"][(HEAP_BASE + 0x100 + 4 * t) >> 2] == trips
        assert region_entries["prefixes"] > 0

    def test_frontier_loop_wide_numpy_path(self):
        prog, regs = frontier_loop(threads=16)
        obs = run_both(prog, num_warps=1, num_lanes=16, init_regs=regs)
        assert obs["fault"] is None


class TestSubWordMemory:
    def test_byte_halfword_roundtrip(self):
        # Byte and halfword stores/loads with sign extension, strided so
        # lanes hit different bytes of shared words.
        lanes = 4
        prog = [
            Instr(Op.SB, rs1=8, rs2=5, imm=0),
            Instr(Op.LB, rd=9, rs1=8, imm=0),
            Instr(Op.LBU, rd=10, rs1=8, imm=0),
            Instr(Op.SW, rs1=11, rs2=9, imm=0),
            Instr(Op.SW, rs1=12, rs2=10, imm=0),
            Instr(Op.HALT),
        ]
        threads = 2 * lanes
        obs = run_both(
            prog,
            num_warps=2, num_lanes=lanes,
            init_regs={
                5: [0x80 + t for t in range(threads)],  # sign bit set
                8: [HEAP_BASE + t for t in range(threads)],
                11: heap_slots(threads, HEAP_BASE + 0x100),
                12: heap_slots(threads, HEAP_BASE + 0x200),
            },
        )
        for t in range(threads):
            signed = (0x80 + t) - 0x100  # LB sign-extends
            assert obs["words"][(HEAP_BASE + 0x100 + 4 * t) >> 2] == \
                signed & 0xFFFFFFFF
            assert obs["words"][(HEAP_BASE + 0x200 + 4 * t) >> 2] == \
                0x80 + t


class TestHotRegions:
    def test_relaunch_stats_match_scalar(self, region_entries):
        # Per-launch region state must not leak into simulated
        # statistics: launch twice on one SM, compare against a scalar
        # SM doing the same.
        prog, regs = _alu_loop()
        per_backend = {}
        for backend in BACKEND_NAMES:
            sm = StreamingMultiprocessor(_config("baseline", backend, 2, 4))
            sm.launch(prog, init_regs=regs)
            first = asdict(sm.stats)
            sm.launch(prog, init_regs=regs)
            per_backend[backend] = (first, asdict(sm.stats))
        assert per_backend["scalar"] == per_backend["vector"]
        # Two warps interleave, so the region steps issue one per slot.
        assert any(sm.backend._regions.values()), \
            "the loop body never formed a region"

    def test_each_region_builds_once_per_launch(self, region_entries,
                                                monkeypatch):
        # The regions-dict entry is the promoted sentinel: once a region
        # is built, later visits reuse it instead of rebuilding.
        builds = []
        build_region = VectorBackend._build_region

        def counting(self, index):
            builds.append(index)
            return build_region(self, index)

        monkeypatch.setattr(VectorBackend, "_build_region", counting)
        prog, regs = _alu_loop(trips=24)
        sm = StreamingMultiprocessor(_config("baseline", "vector", 2, 4))
        sm.launch(prog, init_regs=regs)
        formed = {idx for idx, steps in sm.backend._regions.items() if steps}
        assert formed, "the loop body never formed a region"
        assert len(builds) == len(set(builds))


def _walk_caps(window_words, trips, num_lanes, bad_lane):
    """Trip counts and per-lane capabilities for the mid-region fault
    loops: every lane walks a ``window_words`` window from its start,
    and ``bad_lane`` starts two words in, so it leaves bounds two trips
    before the others — still after the region has formed."""
    cap, exact = root_capability().set_bounds(HEAP_BASE, 4 * window_words)
    assert exact
    caps = [cap.set_addr(HEAP_BASE + (8 if t == bad_lane else 0))
            for t in range(num_lanes)]
    return {5: [trips] * num_lanes}, {6: caps}


class TestMidRegionFault:
    """A capability fault raised inside a full-warp region drain: same
    fault kind, same pinned abort cycle, same statistics as the scalar
    reference — whether every lane faults or just one."""

    def _fault_loop(self, bad_lane=None, window_words=8, trips=12,
                    num_lanes=4):
        """A loop whose CLW sits mid-region and walks each lane's
        capability forward until it leaves bounds."""
        prog = [
            Instr(Op.ADDI, rd=9, rs1=0, imm=0),
            Instr(Op.BGE, rs1=9, rs2=5, imm=24),         # loop head
            Instr(Op.ADD, rd=10, rs1=9, rs2=9),          # region start
            Instr(Op.CLW, rd=11, rs1=6, imm=0),          # faults late
            Instr(Op.CINCOFFSETIMM, rd=6, rs1=6, imm=4),
            Instr(Op.ADDI, rd=9, rs1=9, imm=1),
            Instr(Op.JAL, rd=0, imm=-20),
            Instr(Op.HALT),
        ]
        return prog, *_walk_caps(window_words, trips, num_lanes, bad_lane)

    def test_uniform_fault_mid_region(self, region_entries):
        prog, regs, caps = self._fault_loop()
        obs = run_both(prog, mode="purecap", num_warps=1,
                       init_regs=regs, init_cap_regs=caps)
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"
        assert region_entries["full"] > 0

    def test_single_lane_fault_mid_region(self, region_entries):
        prog, regs, caps = self._fault_loop(bad_lane=2)
        obs = run_both(prog, mode="purecap", num_warps=1,
                       init_regs=regs, init_cap_regs=caps)
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"
        assert region_entries["full"] > 0

    def test_clean_when_window_covers_the_walk(self, region_entries):
        prog, regs, caps = self._fault_loop(window_words=16, trips=12)
        obs = run_both(prog, mode="purecap", num_warps=1,
                       init_regs=regs, init_cap_regs=caps)
        assert obs["fault"] is None
        assert region_entries["full"] > 0


class TestMaskedMidRegionFault:
    """The same faults raised inside a *masked* region drain: one lane
    parks on HALT, so the remaining thread group walks the loop under a
    partial mask."""

    def _masked_fault_loop(self, bad_lane=None, window_words=8, trips=12,
                           num_lanes=4, parked_lane=3):
        prog = [
            Instr(Op.BNE, rs1=12, rs2=0, imm=32),        # parked lane out
            Instr(Op.ADDI, rd=9, rs1=0, imm=0),
            Instr(Op.BGE, rs1=9, rs2=5, imm=28),         # loop head
            Instr(Op.ADD, rd=10, rs1=9, rs2=9, depth=1),  # region start
            Instr(Op.CLW, rd=11, rs1=6, imm=0, depth=1),  # faults late
            Instr(Op.CINCOFFSETIMM, rd=6, rs1=6, imm=4, depth=1),
            Instr(Op.ADDI, rd=9, rs1=9, imm=1, depth=1),
            Instr(Op.JAL, rd=0, imm=-20, depth=1),       # -> loop head
            Instr(Op.HALT),                              # parked lane
            Instr(Op.HALT),                              # loop exit
        ]
        regs, caps = _walk_caps(window_words, trips, num_lanes, bad_lane)
        regs[12] = [1 if t == parked_lane else 0 for t in range(num_lanes)]
        return prog, regs, caps

    def test_uniform_masked_fault(self, region_entries):
        prog, regs, caps = self._masked_fault_loop()
        obs = run_both(prog, mode="purecap", num_warps=1,
                       init_regs=regs, init_cap_regs=caps)
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"
        assert region_entries["masked"] > 0

    def test_single_lane_masked_fault(self, region_entries):
        prog, regs, caps = self._masked_fault_loop(bad_lane=1)
        obs = run_both(prog, mode="purecap", num_warps=1,
                       init_regs=regs, init_cap_regs=caps)
        assert obs["fault"] is not None
        assert obs["fault"][0] == "BoundsViolation"
        assert region_entries["masked"] > 0

    def test_clean_masked_walk(self, region_entries):
        prog, regs, caps = self._masked_fault_loop(window_words=16)
        obs = run_both(prog, mode="purecap", num_warps=1,
                       init_regs=regs, init_cap_regs=caps)
        assert obs["fault"] is None
        assert region_entries["masked"] > 0
        assert region_entries["full"] == 0


class TestBackendSelection:
    def test_env_var_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        assert SMConfig.baseline().backend == "scalar"
        # An explicit argument still wins.
        assert SMConfig.baseline(backend="vector").backend == "vector"

    def test_unknown_backend_names_the_valid_choices(self, monkeypatch):
        retired = "jit"  # a deleted tier: old scripts may still ask for it
        with pytest.raises(ValueError) as explicit:
            SMConfig.baseline(backend=retired)
        monkeypatch.setenv("REPRO_BACKEND", retired)
        with pytest.raises(ValueError) as from_env:
            SMConfig.baseline()
        for info in (explicit, from_env):
            message = str(info.value)
            assert repr(retired) in message
            assert all(name in message for name in ("scalar", "vector"))


@pytest.fixture
def core_calls(monkeypatch):
    """Count the vector backend's replays of the per-lane capability
    path (``_cmod2_core`` / ``_cimm_core``); the scalar backend always
    runs it and is not counted."""
    calls = {"cmod2": 0, "cimm": 0}
    cmod2_core = ScalarBackend._cmod2_core
    cimm_core = ScalarBackend._cimm_core

    def spy_cmod2(self, *args):
        if isinstance(self, VectorBackend):
            calls["cmod2"] += 1
        return cmod2_core(self, *args)

    def spy_cimm(self, *args):
        if isinstance(self, VectorBackend):
            calls["cimm"] += 1
        return cimm_core(self, *args)

    monkeypatch.setattr(ScalarBackend, "_cmod2_core", spy_cmod2)
    monkeypatch.setattr(ScalarBackend, "_cimm_core", spy_cimm)
    return calls


def _rd(obs, reg, warp=0):
    """(addresses, [(meta word, tag)]) of a register after the run."""
    values, metas = obs["regs"][(warp, reg)]
    return values, [(m & 0xFFFFFFFF, m >> 32) for m in metas]


class TestPerLaneCapAddress:
    """CIncOffset/CSetAddr/CIncOffsetImm from one capability with
    uniform metadata to per-lane addresses (``base + idx``).  The vector
    backend decides each lane with the *k*-window compare; a lane that
    leaves the window sends the whole instruction, before any write,
    through the exact per-lane path."""

    LANES = 4
    #: Per-lane offsets that no affine form covers (the rs2 register is
    #: VRF-resident).
    OFFSETS = [8, 0, 12, 4]
    #: Far enough to leave the 64-byte capability's k-window.
    FAR = 0x1000

    def _cap(self):
        cap, exact = root_capability().set_bounds(HEAP_BASE, 64)
        assert exact
        return cap

    def _run(self, prog, regs, caps, **kwargs):
        return run_both(prog, mode="purecap", num_warps=1,
                        num_lanes=self.LANES, init_regs=regs,
                        init_cap_regs=caps, **kwargs)

    def test_offsets_inside_the_window(self, core_calls):
        cap = self._cap()
        prog = [
            Instr(Op.CINCOFFSET, rd=7, rs1=6, rs2=5),
            Instr(Op.CLW, rd=8, rs1=7, imm=0),
            Instr(Op.HALT),
        ]
        obs = self._run(prog, {5: self.OFFSETS}, {6: cap})
        assert obs["fault"] is None
        addrs, metas = _rd(obs, 7)
        assert addrs == [HEAP_BASE + o for o in self.OFFSETS]
        assert metas == [(cap.meta_word(), 1)] * self.LANES
        assert core_calls["cmod2"] == 0

    def test_one_lane_leaves_the_window(self, core_calls):
        cap = self._cap()
        offsets = list(self.OFFSETS)
        offsets[2] = self.FAR
        prog = [Instr(Op.CINCOFFSET, rd=7, rs1=6, rs2=5), Instr(Op.HALT)]
        obs = self._run(prog, {5: offsets}, {6: cap})
        addrs, metas = _rd(obs, 7)
        assert addrs == [HEAP_BASE + o for o in offsets]
        # Only the far lane loses its tag; the metadata word survives.
        assert [tag for _m, tag in metas] == [1, 1, 0, 1]
        assert {m for m, _tag in metas} == {cap.meta_word()}
        assert core_calls["cmod2"] == 1

    @pytest.mark.parametrize("source", ["untagged", "sealed"])
    def test_untagged_and_sealed_sources(self, core_calls, source):
        cap = self._cap()
        cap = cap.with_tag_cleared() if source == "untagged" \
            else cap.seal_entry()
        offsets = list(self.OFFSETS)
        offsets[2] = self.FAR  # decided without the window compare
        prog = [Instr(Op.CINCOFFSET, rd=7, rs1=6, rs2=5), Instr(Op.HALT)]
        obs = self._run(prog, {5: offsets}, {6: cap})
        addrs, metas = _rd(obs, 7)
        assert addrs == [HEAP_BASE + o for o in offsets]
        assert metas == [(cap.meta_word(), 0)] * self.LANES
        assert core_calls["cmod2"] == 0

    @pytest.mark.parametrize("far", [False, True])
    def test_csetaddr(self, core_calls, far):
        cap = self._cap()
        targets = [HEAP_BASE + o for o in self.OFFSETS]
        if far:
            targets[0] = HEAP_BASE - self.FAR
        prog = [Instr(Op.CSETADDR, rd=7, rs1=6, rs2=5), Instr(Op.HALT)]
        obs = self._run(prog, {5: targets}, {6: cap})
        addrs, metas = _rd(obs, 7)
        assert addrs == targets
        assert [tag for _m, tag in metas] == [0 if far else 1] + [1] * 3
        assert core_calls["cmod2"] == (1 if far else 0)

    @pytest.mark.parametrize("imm", [4, 2000])
    def test_cincoffsetimm_on_per_lane_addresses(self, core_calls, imm):
        cap = self._cap()
        caps = [cap.set_addr(HEAP_BASE + o) for o in self.OFFSETS]
        prog = [Instr(Op.CINCOFFSETIMM, rd=7, rs1=6, imm=imm),
                Instr(Op.HALT)]
        obs = self._run(prog, {}, {6: caps})
        addrs, metas = _rd(obs, 7)
        assert addrs == [HEAP_BASE + o + imm for o in self.OFFSETS]
        inside = imm < 64
        assert metas == [(cap.meta_word(), int(inside))] * self.LANES
        assert core_calls["cimm"] == (0 if inside else 1)

    @pytest.mark.parametrize("rs2_lanes", [
        [0, 4, 8, 12],            # affine rs2 under a partial mask
        [8, 0, 12, 4],            # VRF-resident rs2 under a partial mask
        [8, 0, 0x1000, 4],        # an active lane leaves the window
    ])
    def test_masked_entry(self, core_calls, rs2_lanes):
        # Lane 1 branches straight to HALT; lanes 0, 2 and 3 run the
        # CIncOffset under a partial mask, over an rd whose inactive
        # lane must keep its old value and metadata.
        cap = self._cap()
        prog = [
            Instr(Op.BNE, rs1=12, rs2=0, imm=8),
            Instr(Op.CINCOFFSET, rd=7, rs1=6, rs2=5, depth=1),
            Instr(Op.HALT),
        ]
        regs = {5: rs2_lanes, 12: [0, 1, 0, 0]}
        old = cap.set_addr(HEAP_BASE + 40)
        obs = self._run(prog, regs, {6: cap, 7: old})
        addrs, metas = _rd(obs, 7)
        assert addrs[1] == HEAP_BASE + 40
        for lane in (0, 2, 3):
            assert addrs[lane] == HEAP_BASE + rs2_lanes[lane]
        far = self.FAR in rs2_lanes
        assert [tag for _m, tag in metas] == [1, 1, 0 if far else 1, 1]
        assert core_calls["cmod2"] == (1 if far else 0)


#: binary32 bit patterns that stress the batched float path.
_F32_SPECIALS = [
    0x00000000, 0x80000000,                  # +0.0, -0.0
    0x7F800000, 0xFF800000,                  # +inf, -inf
    0x7FC00000, 0x7FC00001, 0xFFC12345,      # quiet NaNs with payloads
    0x7F800001, 0xFFBFFFFF,                  # signalling NaNs
    0x00000001, 0x807FFFFF, 0x00400000,      # subnormals
    0x00800000, 0x80800000,                  # smallest normals
    0x7F7FFFFF, 0xFF7FFFFF,                  # +-FLT_MAX
    0x7F000000, 0x73000000, 0x72800000,      # 2**127, 2**103, 2**102
    0x3F800000, 0xBF800000, 0x3F000000,      # 1.0, -1.0, 0.5
    0x4B800000, 0x34000000,                  # 2**24, 2**-23
]


def _per_lane(fn, a, b):
    return [fn(x, y) for x, y in zip(a, b)]


class TestF32Lanes:
    """The batched binary32 add/sub/mul must equal the per-lane alu
    functions bit for bit, lane by lane."""

    FNS = [alu._f_fadd, alu._f_fsub, alu._f_fmul]

    @pytest.mark.parametrize("n", [1, 4, 8, 32])
    @pytest.mark.parametrize("fn", FNS, ids=["fadd", "fsub", "fmul"])
    def test_batches_match_per_lane(self, n, fn):
        op = vector._F32_ARITH[fn]
        rng = random.Random(0xF32 + n)
        specials = _F32_SPECIALS
        for trial in range(400):
            kind = trial % 4
            if kind == 0:
                # Ordinary values: the single-round-trip path.
                a = [alu.f32_to_bits(rng.uniform(-1e6, 1e6))
                     for _ in range(n)]
                b = [alu.f32_to_bits(rng.uniform(-1e6, 1e6))
                     for _ in range(n)]
            elif kind == 1:
                a = [rng.getrandbits(32) for _ in range(n)]
                b = [rng.getrandbits(32) for _ in range(n)]
            elif kind == 2:
                a = [rng.choice(specials) for _ in range(n)]
                b = [rng.choice(specials) for _ in range(n)]
            else:
                # One special lane in an ordinary batch.
                a = [alu.f32_to_bits(rng.uniform(-8.0, 8.0))
                     for _ in range(n)]
                b = [alu.f32_to_bits(rng.uniform(-8.0, 8.0))
                     for _ in range(n)]
                lane = rng.randrange(n)
                a[lane] = rng.choice(specials)
                b[lane] = rng.choice(specials)
            assert vector._f32_lanes(op, a, b, n) == _per_lane(fn, a, b)

    @pytest.mark.parametrize("n", [1, 4, 8, 32])
    def test_overflowing_and_nan_lanes(self, n):
        fmax = 0x7F7FFFFF
        cases = [
            # (fn, a lane, b lane): overflow on pack, the tie just at the
            # overflow threshold, just below it, and NaN results.
            (alu._f_fadd, fmax, fmax),
            (alu._f_fadd, fmax, 0x73000000),     # FLT_MAX + 2**103: inf
            (alu._f_fadd, fmax, 0x72800000),     # FLT_MAX + 2**102: FLT_MAX
            (alu._f_fsub, 0xFF7FFFFF, fmax),
            (alu._f_fmul, fmax, 0x40000000),     # FLT_MAX * 2
            (alu._f_fmul, 0x7F000000, 0xFF000000),
            (alu._f_fsub, 0x7F800000, 0x7F800000),   # inf - inf
            (alu._f_fmul, 0x00000000, 0xFF800000),   # 0 * -inf
            (alu._f_fadd, 0x7FC00001, 0x3F800000),   # NaN payload
            (alu._f_fmul, 0x00000001, 0x00000001),   # underflow to 0
        ]
        for fn, x, y in cases:
            op = vector._F32_ARITH[fn]
            for lane in range(n):
                a = [0x3F800000] * n
                b = [0x40000000 + i for i in range(n)]
                a[lane] = x
                b[lane] = y
                out = vector._f32_lanes(op, a, b, n)
                assert out == _per_lane(fn, a, b)
        assert vector._f32_lanes(operator.add, [0x7FC00001] * n,
                                 [0x3F800000] * n, n) == \
            [alu._CANONICAL_NAN] * n

    @pytest.mark.parametrize("op", [Op.FADD_S, Op.FSUB_S, Op.FMUL_S])
    def test_pipeline_uses_the_batch(self, monkeypatch, op):
        # Full-mask float ops on VRF-resident operands go through
        # _f32_lanes and leave the same registers as the scalar path.
        batches = []
        f32_lanes = vector._f32_lanes

        def spy(*args):
            batches.append(args[3])
            return f32_lanes(*args)

        monkeypatch.setattr(vector, "_f32_lanes", spy)
        lanes = 8
        a = [0x3F800000, 0x7F7FFFFF, 0x7FC00001, 0x80000000,
             0x00000001, 0x4B800000, 0xFF800000, 0x3E99999A]
        b = [0x40490FDB, 0x7F7FFFFF, 0x3F800000, 0x00000000,
             0x80000001, 0x3F800000, 0x7F800000, 0xC0000000]
        prog = [
            Instr(op, rd=7, rs1=5, rs2=6),
            Instr(Op.SW, rs1=8, rs2=7, imm=0),
            Instr(Op.HALT),
        ]
        obs = run_both(prog, num_warps=1, num_lanes=lanes,
                       init_regs={5: a, 6: b, 8: heap_slots(lanes)})
        fn = {Op.FADD_S: alu._f_fadd, Op.FSUB_S: alu._f_fsub,
              Op.FMUL_S: alu._f_fmul}[op]
        assert obs["regs"][(0, 7)][0] == _per_lane(fn, a, b)
        assert batches == [lanes]
