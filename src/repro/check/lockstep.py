"""Lockstep cross-checking: the pipeline vs the golden model.

A :class:`LockstepChecker` is a probe-bus sink.  At ``launch`` it
snapshots the SM's architectural state into a fresh
:class:`~repro.check.golden.GoldenModel`; on every ``retire`` event it
steps the golden model for each executed lane and diffs the architectural
effects — destination register (value and capability metadata), next PC,
halt state, and the program-counter capability; at ``finish`` it performs
a full sweep over every register, per-thread PC and the entire tagged
memory.  The first mismatch raises :class:`DivergenceError` with the PC,
the compiled source line, and both states.  A retire that covers the
whole warp is diffed one lane vector per field; only a mismatch (or a
partial warp) walks the lanes, so the report names the same first
(lane, field) either way.

All pipeline state is observed through side-effect-free accessors
(``RegFile.peek``, direct reads of the warp objects and the memory
dicts), so an attached checker cannot perturb a single simulated
statistic — pinned by ``tests/eval/test_equivalence.py``.

Fault lockstep: when the pipeline aborts the kernel with a capability
fault or software trap, :meth:`LockstepChecker.expect_fault` confirms the
golden model faults at the same PC with the same fault class.
"""

from dataclasses import dataclass, field
from typing import Any

from repro.check.golden import GoldenFault, GoldenModel

MASK32 = 0xFFFFFFFF


@dataclass
class Divergence:
    """One architectural disagreement between pipeline and golden model."""

    cycle: int
    warp: int
    lane: int
    thread: int
    pc: int
    instr: Any
    field: str
    pipeline_value: Any
    golden_value: Any
    source_line: str = ""
    context: list = field(default_factory=list)

    def render(self):
        from repro.isa.disasm import format_instr
        lines = [
            "architectural divergence at pc=0x%08x (cycle %d, warp %d, "
            "lane %d, thread %d)" % (self.pc, self.cycle, self.warp,
                                     self.lane, self.thread),
            "  instruction: %s" % (format_instr(self.instr)
                                   if self.instr is not None else "<none>"),
        ]
        if self.source_line:
            lines.append("  source:      %s" % self.source_line)
        lines.append("  field:       %s" % self.field)
        lines.append("  pipeline:    %s" % _fmt(self.pipeline_value))
        lines.append("  golden:      %s" % _fmt(self.golden_value))
        lines.extend("  %s" % line for line in self.context)
        return "\n".join(lines)


def _fmt(value):
    if isinstance(value, bool) or not isinstance(value, int):
        return repr(value)
    return "0x%x (%d)" % (value & ((1 << 64) - 1), value)


class DivergenceError(AssertionError):
    """Raised on the first pipeline/golden-model disagreement."""

    def __init__(self, divergence):
        super().__init__(divergence.render())
        self.divergence = divergence


class LockstepChecker:
    """Probe-bus sink that drives a golden model in lockstep with the SM.

    Attach with ``repro.obs.attach(sm, checker)``; every kernel launched
    on the SM while attached is cross-checked.  Raises
    :class:`DivergenceError` from inside the run at the first mismatch.
    """

    def __init__(self):
        self.golden = None
        self.launches = 0
        self.retired = 0         # retire events checked
        self.instructions = 0    # per-lane instructions stepped
        self._sm = None
        self._aborted = False

    # -- probe handlers ---------------------------------------------------

    def on_launch(self, sm, program):
        """Snapshot the freshly-launched SM into a new golden model."""
        self._sm = sm
        self._aborted = False
        self.launches += 1
        cfg = sm.cfg
        cheri = cfg.enable_cheri
        golden = GoldenModel(program, cfg.num_threads, cheri)
        lanes = cfg.num_lanes
        for warp in sm.warps:
            base = warp.index * lanes
            for lane in range(lanes):
                golden.pc[base + lane] = warp.pcs[lane]
                golden.halted[base + lane] = warp.halted[lane]
                if cheri:
                    golden.pcc[base + lane] = warp.pcc_meta[lane]
        # Register columns (x0 reads as zero) transposed into the golden
        # model's per-thread rows.
        zero = [0] * lanes
        regfiles = ((sm.gp, golden.gp), (sm.meta, golden.meta)) if cheri \
            else ((sm.gp, golden.gp),)
        for w in range(cfg.num_warps):
            base = w * lanes
            for regfile, rows in regfiles:
                columns = [zero] + [regfile.peek(w, reg)
                                    for reg in range(1, 32)]
                rows[base:base + lanes] = [list(row)
                                           for row in zip(*columns)]
        golden.memory.words.update(sm.memory._words)
        golden.memory.tags.update(sm.memory._tags)
        self.golden = golden

    def on_retire(self, cycle, warp, pc, instr, lanes):
        golden = self.golden
        if golden is None:
            return
        sm = self._sm
        num_lanes = sm.cfg.num_lanes
        cheri = golden.cheri
        base = warp.index * num_lanes

        # Step the golden model thread-by-thread in lane order (the order
        # the pipeline applies per-lane memory effects in).
        for lane in lanes:
            thread = base + lane
            if golden.pc[thread] != pc:
                self._diverge(cycle, warp.index, lane, thread, pc, instr,
                              "pc (control flow before this instruction)",
                              pc, golden.pc[thread])
            try:
                golden.step(thread)
            except GoldenFault as fault:
                self._diverge(cycle, warp.index, lane, thread, pc, instr,
                              "fault", "(pipeline retired normally)",
                              "%s" % fault)
            self.instructions += 1
        self.retired += 1

        # Diff the architectural effects of this instruction.
        rd = instr.rd
        values = metas = None
        if rd:
            values = sm.gp.peek(warp.index, rd)
            if cheri:
                metas = sm.meta.peek(warp.index, rd)
        if len(lanes) == num_lanes and self._warp_agrees(
                warp, base, rd, values, metas):
            return
        # A partial warp, or a mismatch somewhere: the lane-by-lane walk
        # finds and reports the first differing (lane, field).
        for lane in lanes:
            thread = base + lane
            if rd:
                if values[lane] != golden.gp[thread][rd]:
                    self._diverge(cycle, warp.index, lane, thread, pc, instr,
                                  "x%d" % rd, values[lane],
                                  golden.gp[thread][rd])
                if cheri and metas[lane] != golden.meta[thread][rd]:
                    self._diverge(cycle, warp.index, lane, thread, pc, instr,
                                  "meta(x%d)" % rd, metas[lane],
                                  golden.meta[thread][rd])
            if warp.pcs[lane] != golden.pc[thread]:
                self._diverge(cycle, warp.index, lane, thread, pc, instr,
                              "next pc", warp.pcs[lane], golden.pc[thread])
            if warp.halted[lane] != golden.halted[thread]:
                self._diverge(cycle, warp.index, lane, thread, pc, instr,
                              "halted", warp.halted[lane],
                              golden.halted[thread])
            if cheri and warp.pcc_meta[lane] != golden.pcc[thread]:
                self._diverge(cycle, warp.index, lane, thread, pc, instr,
                              "pcc", warp.pcc_meta[lane],
                              golden.pcc[thread])

    def _warp_agrees(self, warp, base, rd, values, metas):
        """Whole-warp form of the per-lane diff: every field the walk
        compares, compared as one vector per field."""
        golden = self.golden
        end = base + len(warp.pcs)
        if (warp.pcs != golden.pc[base:end]
                or warp.halted != golden.halted[base:end]):
            return False
        if golden.cheri and warp.pcc_meta != golden.pcc[base:end]:
            return False
        if rd:
            if values != [row[rd] for row in golden.gp[base:end]]:
                return False
            if metas is not None and \
                    metas != [row[rd] for row in golden.meta[base:end]]:
                return False
        return True

    def on_finish(self, sm):
        """Full final sweep at detach time (skipped after an abort)."""
        if self.golden is None or self._aborted:
            return
        self.verify_final()

    # -- fault lockstep ---------------------------------------------------

    def expect_fault(self, cause):
        """Confirm the golden model faults exactly like the pipeline did.

        ``cause`` is the exception carried by the pipeline's
        ``KernelAbort``.  Raises :class:`DivergenceError` when the golden
        model retires normally or faults differently.  Marks the run
        aborted so the final sweep (meaningless on partial state) is
        skipped.
        """
        self._aborted = True
        golden = self.golden
        kind = type(cause).__name__
        pc = getattr(cause, "pc", None)
        thread = getattr(cause, "thread", None)
        if thread is None:
            # e.g. an unimplemented-op trap reports only the PC: fault
            # whichever live thread sits at it.
            candidates = [t for t in range(golden.num_threads)
                          if not golden.halted[t] and golden.pc[t] == pc]
            thread = candidates[0] if candidates else 0
        warp_lane = divmod(thread, self._sm.cfg.num_lanes)
        instr = None
        index = (pc or 0) >> 2
        if 0 <= index < len(golden.program):
            instr = golden.program[index]
        try:
            golden.step(thread)
        except GoldenFault as fault:
            if fault.kind != kind or (pc is not None and fault.pc != pc):
                self._diverge(0, warp_lane[0], warp_lane[1], thread,
                              pc or 0, instr, "fault",
                              "%s at pc=%s" % (kind, _fmt(pc or 0)),
                              "%s at pc=%s" % (fault.kind,
                                               _fmt(fault.pc or 0)))
            return fault
        self._diverge(0, warp_lane[0], warp_lane[1], thread, pc or 0,
                      instr, "fault", "%s: %s" % (kind, cause),
                      "(golden model retired normally)")

    # -- final sweep -------------------------------------------------------

    def verify_final(self):
        """Compare every register, PC, halt flag and the whole memory."""
        sm = self._sm
        golden = self.golden
        cfg = sm.cfg
        lanes = cfg.num_lanes
        cheri = golden.cheri
        for warp in sm.warps:
            base = warp.index * lanes
            for lane in range(lanes):
                thread = base + lane
                if warp.pcs[lane] != golden.pc[thread]:
                    self._diverge(-1, warp.index, lane, thread,
                                  warp.pcs[lane], None, "final pc",
                                  warp.pcs[lane], golden.pc[thread])
                if warp.halted[lane] != golden.halted[thread]:
                    self._diverge(-1, warp.index, lane, thread,
                                  warp.pcs[lane], None, "final halted",
                                  warp.halted[lane], golden.halted[thread])
        for w in range(cfg.num_warps):
            base = w * lanes
            for reg in range(1, 32):
                values = sm.gp.peek(w, reg)
                metas = sm.meta.peek(w, reg) if cheri else None
                for lane in range(lanes):
                    thread = base + lane
                    if values[lane] != golden.gp[thread][reg]:
                        self._diverge(-1, w, lane, thread, 0, None,
                                      "final x%d" % reg, values[lane],
                                      golden.gp[thread][reg])
                    if cheri and metas[lane] != golden.meta[thread][reg]:
                        self._diverge(-1, w, lane, thread, 0, None,
                                      "final meta(x%d)" % reg, metas[lane],
                                      golden.meta[thread][reg])
        mem = sm.memory
        if dict(mem._words) != golden.memory.words:
            diffs = _dict_diff(mem._words, golden.memory.words)
            self._diverge(-1, 0, 0, 0, 0, None, "final memory words",
                          diffs[0], diffs[1], context=diffs[2])
        if set(mem._tags) != golden.memory.tags:
            only_pipe = sorted(set(mem._tags) - golden.memory.tags)[:8]
            only_gold = sorted(golden.memory.tags - set(mem._tags))[:8]
            self._diverge(-1, 0, 0, 0, 0, None, "final memory tags",
                          "extra tagged words %s" % only_pipe,
                          "extra tagged words %s" % only_gold)

    # -- helpers -----------------------------------------------------------

    def _source_line(self, instr):
        info = getattr(self._sm, "kernel_info", None)
        if info is None or instr is None or not getattr(instr, "line", None):
            return ""
        try:
            return info.line_text(instr.line)
        except Exception:
            return ""

    def _diverge(self, cycle, warp, lane, thread, pc, instr, what,
                 pipeline_value, golden_value, context=()):
        raise DivergenceError(Divergence(
            cycle=cycle, warp=warp, lane=lane, thread=thread, pc=pc,
            instr=instr, field=what, pipeline_value=pipeline_value,
            golden_value=golden_value,
            source_line=self._source_line(instr),
            context=list(context)))


def _dict_diff(pipe_words, golden_words, limit=8):
    """Summarise the first differing memory words for the report."""
    keys = sorted(set(pipe_words) | set(golden_words))
    rows = []
    for key in keys:
        a = pipe_words.get(key, 0)
        b = golden_words.get(key, 0)
        if a != b:
            rows.append("word @0x%08x: pipeline=0x%08x golden=0x%08x"
                        % (key << 2, a, b))
            if len(rows) >= limit:
                break
    head = rows[0] if rows else "(no differing words?)"
    return ("%d differing words; first: %s" % (len(rows), head),
            "(see context)", rows)


# ---------------------------------------------------------------------------
# Convenience drivers
# ---------------------------------------------------------------------------

def check_benchmark(name, config_name="cheri_opt", scale=1, num_warps=4,
                    num_lanes=4, **overrides):
    """Run one benchmark with a lockstep checker attached.

    Returns ``(stats, checker)``; raises :class:`DivergenceError` at the
    first architectural mismatch.  The benchmark's own output self-checks
    run as usual.  Extra ``overrides`` are :class:`SMConfig` field
    overrides on top of the (small, lockstep-friendly) geometry.
    """
    from repro.benchsuite import ALL_BENCHMARKS
    from repro.eval import runner
    from repro.nocl import NoCLRuntime
    from repro.obs import attach, detach

    mode, config = runner.config_for(config_name, num_warps=num_warps,
                                     num_lanes=num_lanes, **overrides)
    rt = NoCLRuntime(mode, config=config)
    checker = LockstepChecker()
    attach(rt.sm, checker)
    try:
        stats = ALL_BENCHMARKS[name].run(rt, scale=scale)
    except BaseException:
        # The run died mid-kernel: the final sweep would compare partial
        # state and mask the original error.
        checker._aborted = True
        raise
    finally:
        detach(rt.sm)  # emits finish -> final sweep (unless aborted)
    return stats, checker


def verified_run(name, config_name="cheri_opt", scale=1, num_warps=4,
                 num_lanes=4, **overrides):
    """Service hook: one benchmark run under full golden-model lockstep.

    Used by ``repro.serve`` when a job is submitted with ``verify``:
    the simulation only counts as done if every retired instruction's
    architectural effects matched the golden model.  Returns
    ``(stats, lockstep)`` where ``lockstep`` is a JSON-able summary of
    the cross-check (launches, retire events, per-lane instructions,
    wall seconds); raises :class:`DivergenceError` on any mismatch.
    """
    import time
    start = time.perf_counter()
    stats, checker = check_benchmark(name, config_name, scale=scale,
                                     num_warps=num_warps,
                                     num_lanes=num_lanes, **overrides)
    return stats, {
        "launches": checker.launches,
        "retired": checker.retired,
        "instructions": checker.instructions,
        "wall_seconds": round(time.perf_counter() - start, 6),
    }


def lockstep_case(name, config_name, scale=1, backend=None, opt=0):
    """One sweep cell, picklable for process pools.

    Returns ``(name, config_name, ok, message, wall_seconds)``; a
    divergence is reported in ``message`` rather than raised so a
    parallel sweep can keep going and report every failing cell.
    """
    import time
    start = time.perf_counter()
    overrides = {"opt": opt}
    if backend is not None:
        overrides["backend"] = backend
    try:
        _, checker = check_benchmark(name, config_name, scale=scale,
                                     **overrides)
    except AssertionError as exc:
        return (name, config_name, False, str(exc),
                time.perf_counter() - start)
    message = ("lockstep ok (%d retire events, %d instructions)"
               % (checker.retired, checker.instructions))
    return (name, config_name, True, message, time.perf_counter() - start)


def run_lockstep_sweep(names, configs, scale=1, jobs=None, log=None,
                       backend=None, opt=0):
    """The benchmark × config lockstep sweep, optionally across processes.

    ``jobs=None``/``1`` runs serially in-process; ``jobs=N`` fans the
    cells out over ``N`` worker processes (the sweep is embarrassingly
    parallel — each cell is an independent simulation).  Per-case wall
    time is always reported.  Returns the number of diverged cells.
    """
    import time
    from concurrent.futures import ProcessPoolExecutor

    emit = log or (lambda text: None)
    cells = [(name, config_name) for name in names
             for config_name in configs]
    start = time.perf_counter()
    if jobs is None or jobs <= 1 or len(cells) <= 1:
        outcomes = [lockstep_case(name, config_name, scale, backend, opt)
                    for name, config_name in cells]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            futures = [pool.submit(lockstep_case, name, config_name, scale,
                                   backend, opt)
                       for name, config_name in cells]
            outcomes = [future.result() for future in futures]
    failures = 0
    for name, config_name, ok, message, wall in outcomes:
        if ok:
            emit("%s [%s] %s  (%.2fs)" % (name, config_name, message, wall))
        else:
            failures += 1
            emit("%s [%s] DIVERGED (%.2fs):\n%s"
                 % (name, config_name, wall, message))
    emit("%d cell(s) in %.2fs wall%s"
         % (len(cells), time.perf_counter() - start,
            ", %d worker processes" % jobs if jobs and jobs > 1 else ""))
    return failures


def check_program(program, config, init_regs=None, init_cap_regs=None,
                  kernel_pcc=None, entry_pc=0, max_cycles=2_000_000):
    """Run a raw instruction sequence on a fresh SM under lockstep.

    Returns ``(stats, checker, fault)``.  ``fault`` is the abort cause
    when the kernel faulted *and* the golden model faulted identically
    (an explained termination: stats is then None); any disagreement
    raises :class:`DivergenceError`.
    """
    from repro.simt.pipeline import KernelAbort, StreamingMultiprocessor
    from repro.obs import attach, detach

    sm = StreamingMultiprocessor(config)
    checker = LockstepChecker()
    attach(sm, checker)
    try:
        stats = sm.launch(program, init_regs=init_regs,
                          init_cap_regs=init_cap_regs, entry_pc=entry_pc,
                          kernel_pcc=kernel_pcc, max_cycles=max_cycles)
        fault = None
    except KernelAbort as abort:
        if not isinstance(abort.cause, Exception):
            checker._aborted = True
            raise  # deadlock/cycle-limit: not a fault-lockstep case
        checker.expect_fault(abort.cause)
        fault = abort.cause
        stats = None
    except Exception:
        checker._aborted = True
        raise
    finally:
        detach(sm)
    return stats, checker, fault
