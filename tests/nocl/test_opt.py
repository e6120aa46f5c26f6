"""Tests for ``repro.nocl.opt``: the dataflow framework and pass pipeline.

Three layers, mirroring the package's own guarantees:

- analysis units on small hand-built IR (CFG shape, dominators, natural
  loops, reaching defs, liveness, available checks, value ranges);
- per-pass golden behaviour on hand-built IR (LICM, CSE, strength
  reduction including the div-mod recombination, bounds-check
  elimination, DCE);
- whole-pipeline guarantees: ``-O0`` output byte-identical to the
  default compile, every benchmark x mode self-checking at ``-O1``,
  lockstep agreement at ``-O1``, and an O0-vs-O1 differential fuzz
  case.
"""

import pytest

from repro.isa.instructions import Op
from repro.nocl import NoCLRuntime
from repro.nocl.ir import FIRST_VREG, VInstr, VLabel, VLoadImm
from repro.nocl.opt import (
    AvailableChecks,
    Interval,
    Liveness,
    RangeAnalysis,
    ReachingDefs,
    build_cfg,
    def_sites,
)
from repro.nocl.opt.passes import (
    cse,
    dce,
    eliminate_bounds_checks,
    find_checks,
    licm,
    strength_reduce,
)
from repro.simt import SMConfig
from repro.simt.config import MAX_BLOCK_DIM

GEOMETRY = dict(num_warps=4, num_lanes=4)


def counted_loop():
    """``for i in range(10): acc += i`` with an invariant MUL inside.

    Block structure: B0 preheader, B1 header (guard), B2 body, B3 exit.
    """
    return [
        VLoadImm(rd=32, value=0),                          # 0: i = 0
        VLoadImm(rd=33, value=10),                         # 1: n = 10
        VLoadImm(rd=34, value=0),                          # 2: acc = 0
        VLabel("head"),                                    # 3
        VInstr(Op.BGE, rs1=32, rs2=33, target="exit"),     # 4
        VInstr(Op.MUL, rd=36, rs1=33, rs2=33),             # 5: invariant
        VInstr(Op.ADD, rd=34, rs1=34, rs2=32),             # 6
        VInstr(Op.ADDI, rd=32, rs1=32, imm=1),             # 7: i += 1
        VInstr(Op.JAL, rd=0, target="head"),               # 8
        VLabel("exit"),                                    # 9
        VInstr(Op.ADD, rd=35, rs1=34, rs2=36),             # 10
    ]


class TestCFG:
    def test_blocks_and_edges(self):
        cfg = build_cfg(counted_loop())
        assert len(cfg.blocks) == 4
        assert [b.start for b in cfg.blocks] == [0, 3, 5, 9]
        assert cfg.blocks[0].succs == [1]
        assert sorted(cfg.blocks[1].succs) == [2, 3]
        assert cfg.blocks[2].succs == [1]
        assert cfg.blocks[3].succs == []
        assert sorted(cfg.blocks[1].preds) == [0, 2]

    def test_dominators(self):
        cfg = build_cfg(counted_loop())
        assert cfg.idom[1] == 0
        assert cfg.idom[2] == 1
        assert cfg.idom[3] == 1
        assert cfg.dominates(1, 2)
        assert not cfg.dominates(2, 3)
        # Item-level: the preheader defs dominate the body; the body
        # does not dominate the exit.
        assert cfg.instr_dominates(0, 6)
        assert not cfg.instr_dominates(6, 10)

    def test_natural_loops(self):
        cfg = build_cfg(counted_loop())
        assert len(cfg.loops) == 1
        header, body = cfg.loops[0]
        assert header == 1
        assert body == {1, 2}
        assert cfg.loop_item_span(body) == (3, 9)


class TestReachingDefs:
    def test_loop_carried_defs_reach_header(self):
        items = counted_loop()
        cfg = build_cfg(items)
        rd = ReachingDefs(cfg)
        # At the guard, both the initial def of i (item 0) and the
        # increment (item 7) can reach.
        assert rd.defs_of(32, 4) == {0, 7}
        # Inside the body only the *current* iteration's defs apply to
        # acc: init (2) and the body add (6).
        assert rd.defs_of(34, 6) == {2, 6}

    def test_def_sites(self):
        sites = def_sites(counted_loop())
        assert sites[32] == [0, 7]
        assert sites[36] == [5]


class TestLiveness:
    def test_loop_variables_live_through_backedge(self):
        items = counted_loop()
        cfg = build_cfg(items)
        lv = Liveness(cfg)
        # i, n, acc circulate through the loop.
        assert {32, 33, 34} <= lv.live_in[1]
        # The MUL result is only read after the loop.
        assert 36 in lv.live_out[2] or 36 in lv.live_in[3]
        # Nothing is live out of the exit block.
        assert lv.live_out[3] == set()


def check_triple(idx, ln, label):
    return [
        VInstr(Op.BLTU, rs1=idx, rs2=ln, target=label,
               comment="bounds check"),
        VInstr(Op.TRAP, comment="index out of bounds"),
        VLabel(label),
    ]


class TestAvailableChecks:
    def test_dominating_check_is_available(self):
        items = (
            [VLoadImm(rd=40, value=100)]
            + check_triple(41, 40, "ok1")
            + check_triple(41, 40, "ok2")
        )
        cfg = build_cfg(items)
        checks = find_checks(items)
        assert [c[0] for c in checks] == [1, 4]
        av = AvailableChecks(cfg, checks)
        assert (41, 40) not in av.available_before(1)
        assert (41, 40) in av.available_before(4)

    def test_redefinition_kills_availability(self):
        items = (
            [VLoadImm(rd=40, value=100)]
            + check_triple(41, 40, "ok1")
            + [VInstr(Op.ADDI, rd=41, rs1=41, imm=1)]
            + check_triple(41, 40, "ok2")
        )
        cfg = build_cfg(items)
        av = AvailableChecks(cfg, find_checks(items))
        assert (41, 40) not in av.available_before(5)


class TestRanges:
    def test_loop_counter_converges_to_guard_bound(self):
        items = counted_loop()
        ra = RangeAnalysis(build_cfg(items))
        # In the body, the guard's fall-through refinement pins i.
        assert ra.interval_before(6, 32) == Interval(0, 9)
        # At the exit, i >= n.
        assert ra.interval_before(10, 32).lo == 10

    def test_threadidx_seed(self):
        items = [VInstr(Op.ADDI, rd=32, rs1=10, imm=0)]
        ra = RangeAnalysis(build_cfg(items))
        assert ra.interval_before(0, 10) == Interval(0, MAX_BLOCK_DIM - 1)

    def test_seed_dropped_when_register_is_written(self):
        items = [
            VInstr(Op.ADDI, rd=10, rs1=0, imm=-1),
            VInstr(Op.ADDI, rd=32, rs1=10, imm=0),
        ]
        ra = RangeAnalysis(build_cfg(items))
        assert ra.interval_before(0, 10).is_top

    def test_header_word_loads(self):
        items = [
            VInstr(Op.LW, rd=32, rs1=3, imm=4, comment="blockDim.x"),
            VInstr(Op.LW, rd=33, rs1=3, imm=0, comment="gridDim.x"),
            VInstr(Op.LW, rd=34, rs1=3, imm=8, comment="arg n"),
            VInstr(Op.ADD, rd=35, rs1=32, rs2=33),
        ]
        ra = RangeAnalysis(build_cfg(items))
        assert ra.interval_before(3, 32) == Interval(1, MAX_BLOCK_DIM)
        assert ra.interval_before(3, 33) == Interval(1, 0x7FFFFFFF)
        assert ra.interval_before(3, 34).is_top

    def test_narrow_loads(self):
        items = [
            VInstr(Op.LBU, rd=32, rs1=36, imm=0),
            VInstr(Op.LHU, rd=33, rs1=36, imm=0),
            VInstr(Op.ADD, rd=34, rs1=32, rs2=33),
        ]
        ra = RangeAnalysis(build_cfg(items))
        assert ra.interval_before(2, 32) == Interval(0, 0xFF)
        assert ra.interval_before(2, 33) == Interval(0, 0xFFFF)

    def test_bltu_refinement(self):
        items = [
            VLoadImm(rd=40, value=64),
            VInstr(Op.BLTU, rs1=41, rs2=40, target="ok"),
            VInstr(Op.TRAP),
            VLabel("ok"),
            VInstr(Op.ADDI, rd=42, rs1=41, imm=0),
        ]
        ra = RangeAnalysis(build_cfg(items))
        assert ra.interval_before(4, 41) == Interval(0, 63)


class TestPasses:
    def test_licm_hoists_invariant(self):
        items = counted_loop()
        out, moved = licm(items)
        assert moved >= 1
        mul_at = next(i for i, it in enumerate(out)
                      if isinstance(it, VInstr) and it.op == Op.MUL)
        head_at = next(i for i, it in enumerate(out)
                       if isinstance(it, VLabel) and it.name == "head")
        assert mul_at < head_at

    def test_licm_disabled_at_zero_budget(self):
        items = counted_loop()
        out, moved = licm(items, pressure_target=0)
        assert moved == 0
        assert out == items

    def test_cse_merges_duplicate(self):
        items = [
            VLoadImm(rd=32, value=7),
            VInstr(Op.ADDI, rd=33, rs1=32, imm=5),
            VInstr(Op.ADDI, rd=34, rs1=32, imm=5),   # duplicate
            VInstr(Op.ADD, rd=35, rs1=33, rs2=34),
        ]
        out, removed = cse(items)
        assert removed == 1
        add = next(it for it in out
                   if isinstance(it, VInstr) and it.op == Op.ADD)
        assert add.rs1 == add.rs2 == 33

    def test_strength_reduces_power_of_two(self):
        items = [
            VLoadImm(rd=32, value=8),
            VInstr(Op.MUL, rd=33, rs1=40, rs2=32),
            VInstr(Op.DIVU, rd=34, rs1=40, rs2=32),
            VInstr(Op.REMU, rd=35, rs1=40, rs2=32),
        ]
        out, rewritten = strength_reduce(items)
        assert rewritten == 3
        assert [it.op for it in out[1:]] == [Op.SLLI, Op.SRLI, Op.ANDI]
        assert out[1].imm == 3 and out[3].imm == 7

    @pytest.mark.parametrize("div_op,rem_op", [(Op.DIVU, Op.REMU),
                                               (Op.DIV, Op.REM)])
    def test_divmod_recombination(self, div_op, rem_op):
        # (x / y) * y + x % y == x; x and y via fresh copies, the way
        # the frontend spells repeated mentions of one variable.
        items = [
            VInstr(Op.ADDI, rd=32, rs1=10, imm=0),   # x copy 1
            VInstr(Op.ADDI, rd=33, rs1=10, imm=0),   # x copy 2
            VInstr(Op.LW, rd=34, rs1=3, imm=8),      # y (runtime arg)
            VInstr(div_op, rd=35, rs1=32, rs2=34),
            VInstr(Op.MUL, rd=36, rs1=35, rs2=34),
            VInstr(rem_op, rd=37, rs1=33, rs2=34),
            VInstr(Op.ADD, rd=38, rs1=36, rs2=37),
        ]
        out, rewritten = strength_reduce(items)
        assert rewritten == 1
        assert out[6].op == Op.ADDI and out[6].imm == 0
        assert out[6].rs1 == 33

    def test_divmod_recombination_needs_matching_operands(self):
        items = [
            VInstr(Op.ADDI, rd=32, rs1=10, imm=0),
            VInstr(Op.LW, rd=34, rs1=3, imm=8),
            VInstr(Op.LW, rd=39, rs1=3, imm=12),     # a different y
            VInstr(Op.DIVU, rd=35, rs1=32, rs2=34),
            VInstr(Op.MUL, rd=36, rs1=35, rs2=34),
            VInstr(Op.REMU, rd=37, rs1=32, rs2=39),
            VInstr(Op.ADD, rd=38, rs1=36, rs2=37),
        ]
        out, rewritten = strength_reduce(items)
        assert rewritten == 0
        assert out[6].op == Op.ADD

    def test_eliminate_dominated_check(self):
        items = (
            [VLoadImm(rd=40, value=100)]
            + check_triple(41, 40, "ok1")
            + check_triple(41, 40, "ok2")
            + [VInstr(Op.ADD, rd=42, rs1=41, rs2=41)]
        )
        out, dominated, proved = eliminate_bounds_checks(items)
        assert (dominated, proved) == (1, 0)
        assert len(find_checks(out)) == 1

    def test_eliminate_range_proved_check(self):
        items = (
            [
                VLoadImm(rd=40, value=100),
                VInstr(Op.ANDI, rd=41, rs1=43, imm=63),
            ]
            + check_triple(41, 40, "ok1")
            + [VInstr(Op.ADD, rd=42, rs1=41, rs2=41)]
        )
        out, dominated, proved = eliminate_bounds_checks(items)
        assert (dominated, proved) == (0, 1)
        assert not find_checks(out)

    def test_unprovable_check_survives(self):
        items = (
            [VInstr(Op.LW, rd=40, rs1=3, imm=8)]
            + check_triple(41, 40, "ok1")
        )
        out, dominated, proved = eliminate_bounds_checks(items)
        assert (dominated, proved) == (0, 0)
        assert len(find_checks(out)) == 1

    def test_dce_removes_dead_chain(self):
        items = [
            VLoadImm(rd=32, value=1),
            VInstr(Op.ADDI, rd=33, rs1=32, imm=1),   # dead chain
            VLoadImm(rd=34, value=2),
            VInstr(Op.SW, rs1=2, rs2=34, imm=0),     # store keeps 34
        ]
        out, removed = dce(items)
        assert removed == 2
        ops = [it.op for it in out if isinstance(it, VInstr)]
        assert Op.ADDI not in ops


def _compile(bench_module, kernel_name, mode, opt):
    from repro.nocl.compiler import compile_kernel
    import importlib
    mod = importlib.import_module("repro.benchsuite.%s" % bench_module)
    return compile_kernel(getattr(mod, kernel_name), mode, opt=opt)


class TestPipeline:
    KERNELS = [
        ("vecadd", "vecadd_kernel"),
        ("histogram", "histogram_kernel"),
        ("matmul", "matmul_kernel"),
    ]

    @pytest.mark.parametrize("mode", ["baseline", "purecap", "boundscheck"])
    def test_o0_is_byte_identical_to_default(self, mode):
        for bench_module, kernel_name in self.KERNELS:
            default = _compile(bench_module, kernel_name, mode, 0)
            from repro.nocl.compiler import compile_kernel
            import importlib
            mod = importlib.import_module(
                "repro.benchsuite.%s" % bench_module)
            plain = compile_kernel(getattr(mod, kernel_name), mode)
            assert plain.instrs == default.instrs
            assert plain.opt == 0 and plain.opt_report is None

    def test_o1_reports_passes(self):
        compiled = _compile("histogram", "histogram_kernel",
                            "boundscheck", 1)
        assert compiled.opt == 1
        report = compiled.opt_report
        assert report is not None
        assert report["items_before"] >= report["items_after"]
        assert report["passes"]["boundscheck"] > 0

    def test_o1_drops_static_check_sites(self):
        o0 = _compile("histogram", "histogram_kernel", "boundscheck", 0)
        o1 = _compile("histogram", "histogram_kernel", "boundscheck", 1)
        assert len(o1.bounds_check_pcs) < len(o0.bounds_check_pcs)


def _runtime(mode, opt):
    factory = SMConfig.cheri if mode == "purecap" else SMConfig.baseline
    return NoCLRuntime(mode, config=factory(opt=opt, **GEOMETRY))


@pytest.mark.parametrize("mode", ["baseline", "purecap", "boundscheck"])
def test_o1_benchmark_sweep_architectural_results(mode):
    """Every Table 1 benchmark self-checks its outputs at ``-O1``.

    Each ``Benchmark.run`` downloads the kernel's results and compares
    them against a host-computed expectation, so a pass here means the
    optimized binary produced bit-identical architectural results.
    """
    from repro.benchsuite import ALL_BENCHMARKS
    for name, bench in ALL_BENCHMARKS.items():
        bench.run(_runtime(mode, opt=1), scale=1)


def test_lockstep_clean_at_o1():
    from repro.check.lockstep import lockstep_case
    for config_name in ("baseline", "boundscheck"):
        name, _, ok, message, _ = lockstep_case("Histogram", config_name,
                                                opt=1)
        assert ok, "%s/%s: %s" % (name, config_name, message)


def test_fuzz_differential_o0_vs_o1():
    from repro.check.fuzz import SCHEDULE, generate_case, run_case
    stride = len(SCHEDULE)
    kernel_index = SCHEDULE.index("kernel")
    failures = []
    for i in range(3):  # three generated kernels, each run at O0 and O1
        case = generate_case(seed=7, index=kernel_index + i * stride)
        assert case.kind == "kernel"
        failures.append(run_case(case, opt_levels=(0, 1)))
    assert failures == [None, None, None]


def test_opt_report_survives_disk_cache(tmp_path, monkeypatch):
    """Manifests carry per-pass reports whether a run simulated or hit disk.

    Optimizer reports are deterministic per (kernel, config), so
    ``_disk_load`` must thread the pickled ``RunMeta.opt`` through the
    relabelled disk-hit meta instead of dropping it.
    """
    from repro.eval import runner
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path))
    runner.clear_cache()
    cold = runner.run_benchmark("Histogram", "boundscheck", opt=1)
    assert cold.meta.source == "sim"
    assert cold.meta.opt and "histogram_kernel" in cold.meta.opt
    runner.clear_cache()  # drop the memo; force the disk path
    warm = runner.run_benchmark("Histogram", "boundscheck", opt=1)
    assert warm.meta.source == "disk"
    assert warm.meta.opt == cold.meta.opt


# ---------------------------------------------------------------------------
# The pipeline never edits its input, and its output is pinned
# ---------------------------------------------------------------------------

def _benchmark_kernels():
    """(benchmark, attribute, KernelSource) for every kernel bound in a
    benchmark's module, the way the runner's cache key finds them."""
    import inspect
    from repro.benchsuite import ALL_BENCHMARKS
    from repro.nocl.dsl import KernelSource
    for name, bench in ALL_BENCHMARKS.items():
        module = inspect.getmodule(type(bench))
        for attr, obj in sorted(vars(module).items()):
            if isinstance(obj, KernelSource):
                yield name, attr, obj


def _fuzz_kernels(count=4):
    from repro.check.fuzz import SCHEDULE, generate_case
    from repro.nocl.dsl import KernelSource
    stride = len(SCHEDULE)
    first = SCHEDULE.index("kernel")
    for i in range(count):
        case = generate_case(seed=3, index=first + i * stride)
        yield KernelSource.from_source(case.source)


def test_optimize_leaves_its_input_unchanged(monkeypatch):
    """``optimize`` works on per-item clones: the caller's item list and
    every item's fields are as they were, on every benchmark kernel and
    on generated kernels."""
    import repro.nocl.opt as opt_pkg
    from repro.nocl.compiler import MODES, compile_kernel
    original = opt_pkg.optimize
    seen = []

    def checked(items, loop_spans, var_vregs, level, **kwargs):
        before = list(items)
        fields = [(type(item), dict(vars(item))) for item in items]
        spans, vregs = list(loop_spans), set(var_vregs)
        result = original(items, loop_spans, var_vregs, level, **kwargs)
        assert len(items) == len(before)
        assert all(a is b for a, b in zip(items, before))
        assert [(type(item), vars(item)) for item in items] == fields
        assert (list(loop_spans), set(var_vregs)) == (spans, vregs)
        seen.append(result[3].total_changes())
        return result

    monkeypatch.setattr(opt_pkg, "optimize", checked)
    kernels = [src for _, _, src in _benchmark_kernels()]
    kernels += list(_fuzz_kernels())
    for source in kernels:
        for mode in MODES:
            compile_kernel(source, mode, opt=1)
    assert len(seen) == 3 * len(kernels)
    assert any(seen)  # the passes did rewrite something


def _o1_digest(name, config_name):
    """Digest of the assembled -O1 binaries of one benchmark's kernels:
    every instruction's fields, its depth, and the spill frame size."""
    import hashlib
    from repro.eval.runner import config_for
    from repro.nocl.compiler import compile_kernel
    mode, _ = config_for(config_name)
    h = hashlib.sha256()
    for bench, attr, source in _benchmark_kernels():
        if bench != name:
            continue
        compiled = compile_kernel(source, mode, opt=1)
        h.update(repr((attr, compiled.frame_bytes,
                       [(i.op.name, i.rd, i.rs1, i.rs2, i.imm, i.depth)
                        for i in compiled.instrs])).encode())
    return h.hexdigest()[:16]


#: ``_o1_digest`` per benchmark for (baseline, cheri_opt, boundscheck),
#: taken before the pass pipeline stopped deep-copying its input and
#: started reusing CFGs.  BitonicSm and BitonicLa share a module, so
#: they share their kernels and digests.
O1_DIGESTS = {
    "VecAdd": ("56170717f7c150f0", "ad78f9a9a40e510c", "f662d23212116549"),
    "Histogram": ("cd714aa6fb3e7edf", "e80574c71e583b3f", "4625bb0d6ebe8ad7"),
    "Reduce": ("ea808f3c3431fd51", "66082ebdf00ecb0a", "c046e4fb8f72028e"),
    "Scan": ("809fd784837efe60", "3fdab9abb4ac792d", "20679739f3bfef34"),
    "Transpose": ("e986cb4d6916b433", "54e2281a5b7ea468", "b994418d4e2a9611"),
    "MatVecMul": ("1a5907adbf608534", "d935eb2c5cc65906", "30b16fbb93fe5a76"),
    "MatMul": ("23ba5a9e59edf756", "7ff538de4e7b8318", "adf3dc3d35af6d4a"),
    "BitonicSm": ("ef71335bacc2d5a5", "f7b506f9685d3773", "fd7700c394c0030c"),
    "BitonicLa": ("ef71335bacc2d5a5", "f7b506f9685d3773", "fd7700c394c0030c"),
    "SPMV": ("35903733f1f623d5", "dda3a05a866bdace", "03cff5da8d067e69"),
    "BlkStencil":
        ("02cca049c9393c14", "fc958113903fd7ca", "ca24f4e97c5208bf"),
    "StrStencil":
        ("37067e75c99a42cd", "f2facf93cfa89828", "2dcbd971a67fb887"),
    "VecGCD": ("1013d23bc442f700", "851614ae0b9e1455", "d5d1ca26e2ce7445"),
    "MotionEst": ("7929cd3f3e0ca0d4", "89c3ad158f2ee0d6", "ca673d66784228e8"),
}


@pytest.mark.parametrize("column, config_name",
                         enumerate(("baseline", "cheri_opt", "boundscheck")))
def test_o1_codegen_is_pinned(column, config_name):
    got = {name: _o1_digest(name, config_name) for name in O1_DIGESTS}
    want = {name: digests[column] for name, digests in O1_DIGESTS.items()}
    assert got == want
