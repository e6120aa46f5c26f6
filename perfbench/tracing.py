"""Layer tracing from outside the program.

The benchmark never edits ``src/``.  Instead, a traced run wraps the
public entry points of each layer before the workload starts:

- *Spans* (coarse boundaries: compile, launch, ``Backend.run``,
  ``Benchmark.run``, the runner, manifests) are recorded one by one with
  name, start, end, parent and self time, kept in memory and written out
  when the process ends.
- *Leaves* (hot, fine-grained methods: register files, memory modules,
  ``GoldenModel.step``) are only counted and timed in aggregate, because
  recording millions of spans would cost more memory than the run.

A layer's self time is its duration minus the part covered by traced
children, spans and leaves alike.  Every wrapped call also charges its
duration to the enclosing frame, so self times partition the traced time.

The tracer assumes one thread per process, which holds for the processes
it is installed in (benchmark children and simulation workers).
"""

import functools
import json
import time

#: SMStats counters summed over every ``StreamingMultiprocessor.launch``.
STAT_FIELDS = (
    "cycles", "instrs_issued", "thread_instrs",
    "stall_shared_vrf", "stall_csc_operand", "stall_bank_conflict",
    "sfu_busy_cycles", "barrier_waits",
    "gp_writes_total", "gp_writes_uniform", "gp_writes_affine",
    "meta_writes_total", "gp_spills", "meta_spills",
    "dram_read_bytes", "dram_write_bytes", "dram_txns",
    "tag_cache_hits", "tag_cache_misses", "scratchpad_conflict_cycles",
)


class StatsCounter:
    """Sums SMStats deltas over every SM launch in the process.

    SMStats accumulate across the launches of one SM, so each launch
    contributes the difference from that SM's previous reading.  This is
    the only hook an untraced run installs: one wrapper call per kernel
    launch.
    """

    def __init__(self):
        self.totals = dict.fromkeys(STAT_FIELDS, 0)
        self.digests = []   # full SMStats digest after every launch

    def note(self, sm):
        stats = sm.stats
        previous = getattr(sm, "_perfbench_prev", None) or {}
        current = {}
        for name in STAT_FIELDS:
            value = getattr(stats, name)
            current[name] = value
            self.totals[name] += value - previous.get(name, 0)
        sm._perfbench_prev = current
        self.digests.append(stats_digest(stats.as_dict()))


def stats_digest(value):
    """Digest of a JSON value such as a full ``SMStats.as_dict()``; values
    that are equal after a JSON round trip get equal digests."""
    import hashlib
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def install_stats_counter():
    """Wrap ``StreamingMultiprocessor.launch`` to feed a StatsCounter."""
    from repro.simt.pipeline import StreamingMultiprocessor
    counter = StatsCounter()
    original = StreamingMultiprocessor.launch

    @functools.wraps(original)
    def launch(sm, *args, **kwargs):
        try:
            return original(sm, *args, **kwargs)
        finally:
            counter.note(sm)

    StreamingMultiprocessor.launch = launch
    return counter


class Tracer:
    """Spans and leaf aggregates for one process."""

    def __init__(self):
        self.spans = []        # (id, parent id, name, start, end, self)
        self.leaves = {}       # name -> [calls, self seconds]
        self.counts = {}       # name -> integer counter
        self._stack = [[0.0, None]]   # [child seconds, span id] frames
        self._next_id = 0

    def span(self, fn, name):
        """Wrap ``fn`` so each call is recorded as one span."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            parent = next((f[1] for f in reversed(stack)
                           if f[1] is not None), None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stack[-1][0] += elapsed
                spans.append((frame[1], parent, name, start, end,
                              elapsed - frame[0]))
        return wrapper

    def leaf(self, fn, name):
        """Wrap ``fn`` so calls are counted and timed in aggregate."""
        stack = self._stack
        agg = self.leaves.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                agg[0] += 1
                agg[1] += elapsed - frame[0]
        return wrapper

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self):
        return {"spans": self.spans,
                "leaves": {k: list(v) for k, v in self.leaves.items()},
                "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# Hook installation
# ---------------------------------------------------------------------------

#: (module, class or None, attribute, span name) — recorded spans.
SPAN_HOOKS = (
    ("repro.nocl.compiler", None, "compile_kernel", "compile.kernel"),
    ("repro.nocl.opt", None, "optimize", "compile.opt"),
    ("repro.nocl.compiler", None, "allocate", "compile.regalloc"),
    ("repro.nocl.compiler", None, "assemble", "compile.assemble"),
    ("repro.nocl.runtime", "NoCLRuntime", "__init__", "launch.sm_init"),
    ("repro.nocl.runtime", "NoCLRuntime", "launch", "launch.runtime"),
    ("repro.nocl.runtime", "NoCLRuntime", "upload", "launch.upload"),
    ("repro.nocl.runtime", "NoCLRuntime", "download", "launch.download"),
    ("repro.simt.pipeline", "StreamingMultiprocessor", "launch",
     "launch.sm"),
    ("repro.simt.backend.scalar", "ScalarBackend", "run", "sim.run"),
    ("repro.simt.backend.vector", "VectorBackend", "run", "sim.run"),
    ("repro.eval.runner", None, "run_suite", "runner.run_suite"),
    ("repro.eval.runner", None, "run_benchmark", "runner.run_benchmark"),
    ("repro.obs.manifest", None, "build_manifest", "runner.manifest"),
    ("repro.obs.manifest", None, "write_manifest", "runner.manifest"),
)

_RF_METHODS = ("read", "write", "read_form", "write_form", "peek",
               "is_vector_resident", "is_uncompressed")

#: (module, class or None, attributes, leaf-name prefix) — aggregates.
#: Memory leaves carry their class name, since several share a method name.
LEAF_HOOKS = (
    ("repro.simt.regfile.compressed", "CompressedRegFile", _RF_METHODS,
     "rf"),
    ("repro.simt.regfile.compressed", "PlainRegFile", _RF_METHODS, "rf"),
    ("repro.memory.main_memory", "TaggedMemory",
     ("read", "write", "read_cap_raw", "write_cap_raw", "word_tag",
      "write_block_words", "read_block_words", "tagged_word_count"),
     "mem.TaggedMemory"),
    ("repro.memory.dram", "DRAMModel", ("request",), "mem.DRAMModel"),
    ("repro.memory.tag_controller", "TagController", ("access",),
     "mem.TagController"),
    ("repro.simt.scratchpad", "Scratchpad",
     ("contains", "bank_of", "conflict_cycles"), "mem.Scratchpad"),
    ("repro.simt.coalescer", None, ("coalesce", "atomic_conflicts"),
     "mem.coalescer"),
    ("repro.check.golden", "GoldenModel", ("step",), "golden"),
)


def _rebind_function(original, replacement):
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (functions imported by name keep their own binding)."""
    import sys
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap every layer entry point; call before the workload starts.

    Returns the StatsCounter fed by ``StreamingMultiprocessor.launch``.
    """
    import importlib

    from repro.benchsuite import ALL_BENCHMARKS

    for module_name, class_name, attr, name in SPAN_HOOKS:
        module = importlib.import_module(module_name)
        if class_name is None:
            original = getattr(module, attr)
            wrapped = tracer.span(original, name)
            if name == "compile.kernel":
                wrapped = _counting_compile(tracer, wrapped)
            _rebind_function(original, wrapped)
        else:
            cls = getattr(module, class_name)
            setattr(cls, attr, tracer.span(vars(cls)[attr], name))
    for bench_cls in {type(bench) for bench in ALL_BENCHMARKS.values()}:
        bench_cls.run = tracer.span(vars(bench_cls)["run"], "bench.run")
    for module_name, class_name, attrs, prefix in LEAF_HOOKS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            name = "%s.%s" % (prefix, attr)
            if class_name is None:
                original = getattr(module, attr)
                _rebind_function(original, tracer.leaf(original, name))
            else:
                cls = getattr(module, class_name)
                setattr(cls, attr, tracer.leaf(vars(cls)[attr], name))
    # Outermost wrapper: reads the stats after the traced launch span.
    return install_stats_counter()


def _counting_compile(tracer, compile_fn):
    @functools.wraps(compile_fn)
    def compile_kernel(*args, **kwargs):
        program = compile_fn(*args, **kwargs)
        tracer.count("compile.static_instrs", len(program.instrs))
        return program
    return compile_kernel


# ---------------------------------------------------------------------------
# Derivation of the per-layer metrics
# ---------------------------------------------------------------------------

def _outermost(spans, names):
    """Summed duration of spans named in ``names`` with no such ancestor."""
    by_id = {span[0]: span for span in spans}
    total = 0.0
    for span in spans:
        if span[2] not in names:
            continue
        parent = by_id.get(span[1])
        while parent is not None and parent[2] not in names:
            parent = by_id.get(parent[1])
        if parent is None:
            total += span[4] - span[3]
    return total


def merge(dumps):
    """Combine tracer dumps from several processes (spans keep their own
    process's ids, so ids are made unique per dump)."""
    spans, leaves, counts = [], {}, {}
    for index, dump in enumerate(dumps):
        offset = (index + 1) << 32
        for sid, parent, name, start, end, self_s in dump["spans"]:
            spans.append((sid + offset,
                          None if parent is None else parent + offset,
                          name, start, end, self_s))
        for name, (calls, self_s) in dump["leaves"].items():
            agg = leaves.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "leaves": leaves, "counts": counts}


def self_times(dump):
    """name -> (calls, self seconds) over spans and leaves together."""
    table = {}
    for _sid, _parent, name, _start, _end, self_s in dump["spans"]:
        calls, total = table.get(name, (0, 0.0))
        table[name] = (calls + 1, total + self_s)
    for name, (calls, self_s) in dump["leaves"].items():
        table[name] = (calls, self_s)
    return table


def layer_metrics(dump, stats):
    """The per-layer metrics of one traced run.

    ``dump`` is a (merged) tracer dump; ``stats`` the StatsCounter totals.
    """
    table = self_times(dump)
    spans = dump["spans"]

    def calls(name):
        return table.get(name, (0, 0.0))[0]

    def self_s(*names):
        return sum(table.get(name, (0, 0.0))[1] for name in names)

    def prefixed(prefix):
        return [name for name in table if name.startswith(prefix)]

    winstrs = stats["instrs_issued"]
    sim_s = _outermost(spans, {"sim.run"})
    bench_s = _outermost(spans, {"bench.run"})
    runner_s = _outermost(spans, {"runner.run_suite",
                                  "runner.run_benchmark"})
    gp_writes = stats["gp_writes_total"]
    tag_lookups = stats["tag_cache_hits"] + stats["tag_cache_misses"]
    rf_names = prefixed("rf.")
    mem_names = prefixed("mem.")
    return {
        "compile.calls": calls("compile.kernel"),
        "compile.s": self_s("compile.kernel", "compile.opt",
                            "compile.regalloc", "compile.assemble"),
        "compile.frontend_s": self_s("compile.kernel"),
        "compile.opt_s": self_s("compile.opt"),
        "compile.regalloc_s": self_s("compile.regalloc"),
        "compile.assemble_s": self_s("compile.assemble"),
        "compile.static_instrs": dump["counts"].get(
            "compile.static_instrs", 0),
        "launch.calls": calls("launch.sm"),
        "launch.sm_init_s": _outermost(spans, {"launch.sm_init"}),
        "launch.setup_s": self_s("launch.runtime", "launch.sm"),
        "sim.s": sim_s,
        "sim.winstrs": winstrs,
        "sim.thread_instrs": stats["thread_instrs"],
        "sim.ns_per_winstr": sim_s / winstrs * 1e9 if winstrs else 0.0,
        "sim.stall_shared_vrf": stats["stall_shared_vrf"],
        "sim.stall_csc_operand": stats["stall_csc_operand"],
        "sim.stall_bank_conflict": stats["stall_bank_conflict"],
        "sim.sfu_busy_cycles": stats["sfu_busy_cycles"],
        "sim.barrier_waits": stats["barrier_waits"],
        "rf.s": self_s(*rf_names),
        "rf.write_calls": calls("rf.write"),
        "rf.write_form_calls": calls("rf.write_form"),
        "rf.read_calls": calls("rf.read") + calls("rf.read_form"),
        "rf.gp_writes": gp_writes,
        "rf.gp_compressed_frac": (
            (stats["gp_writes_uniform"] + stats["gp_writes_affine"])
            / gp_writes if gp_writes else 0.0),
        "rf.meta_writes": stats["meta_writes_total"],
        "rf.spills": stats["gp_spills"] + stats["meta_spills"],
        "mem.s": self_s(*mem_names),
        "mem.calls": sum(calls(name) for name in mem_names),
        "mem.dram_bytes": stats["dram_read_bytes"]
        + stats["dram_write_bytes"],
        "mem.dram_txns": stats["dram_txns"],
        "mem.tag_miss_frac": (stats["tag_cache_misses"] / tag_lookups
                              if tag_lookups else 0.0),
        "mem.scratchpad_conflict_cycles":
            stats["scratchpad_conflict_cycles"],
        "hostcheck.s": self_s("bench.run"),
        "golden.steps": calls("golden.step"),
        "golden.s": self_s("golden.step"),
        "runner.overhead_s": runner_s - bench_s if runner_s else 0.0,
        "runner.manifest_s": _outermost(spans, {"runner.manifest"}),
        "traced.s": sum(self_s for _calls, self_s in table.values()),
    }
