"""One cold repetition of a suite or fuzz workload, in a fresh process.

For the service workload it instead runs every service cell in-process,
the reference the server's payloads must equal.

Started by ``run.py`` with ``PYTHONPATH`` pointing at ``src`` and the
simulation cache and manifest directories pointing at empty temporary
directories.  Writes one JSON result to ``--out``::

    python perfbench/child.py --workload cheri_opt_suite --seed 1 \
        --trace 0 --out result.json [--setup-only] [--cpu N] \
        [--spans spans.json]

Set-up (process start and imports) ends at ``ready``, a
``time.monotonic()`` reading the parent compares with its own start
time.  The timed part is the workload call alone.  Calibration bursts
(``workloads.calibrate``) run after ``ready``, and every 50 ms of CPU
time in the timed part (``workloads.CalibrationSampler``).
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _import_layers():
    """Import every module the workloads use, so imports are set-up."""
    import numpy  # noqa: F401

    import repro.check.fuzz  # noqa: F401
    import repro.check.lockstep  # noqa: F401
    import repro.eval.runner  # noqa: F401
    import repro.nocl.opt  # noqa: F401
    import repro.obs.manifest  # noqa: F401
    import repro.simt.backend.scalar  # noqa: F401
    import repro.simt.backend.vector  # noqa: F401


def run_suite(config_name, result):
    from repro.eval import runner
    from tracing import stats_digest

    start = time.perf_counter()
    try:
        results = runner.run_suite(config_name, jobs=1)
    except Exception as exc:  # a self-test failure or a simulator crash
        # run_suite stops at the first failing benchmark, so none of this
        # repetition's benchmarks produced a result.
        result["wall"] = time.perf_counter() - start
        result["ops"] = len(runner.BENCHMARK_NAMES)
        result["failed"] = result["ops"]
        result["errors"].append("".join(
            traceback.format_exception_only(type(exc), exc)).strip())
        return
    result["wall"] = time.perf_counter() - start
    result["ops"] = len(results)
    result["failed"] = 0
    # A suite's jobs are its cells, timed by the runner itself.
    result["job_seconds"] = [r.meta.wall_seconds for r in results.values()]
    result["cells"] = {name: stats_digest(r.stats.as_dict())
                       for name, r in results.items()}
    from workloads import count_disk_stores
    result["disk_stores"] = count_disk_stores(os.environ)


def run_fuzz(seed, budget, result):
    from repro.check import fuzz

    stamps = []
    start = time.perf_counter()
    report = fuzz.run_fuzz(seed=seed, budget=budget, verbose=True,
                           log=lambda _text: stamps.append(
                               time.perf_counter()))
    result["wall"] = time.perf_counter() - start
    result["ops"] = report.cases
    result["failed"] = len(report.failures)
    result["errors"].extend(
        "case %d (%s): %s" % (f.index, f.kind, f.signature)
        for f in report.failures)
    # One log line per executed case; a failing case logs more lines, so
    # per-case times are only exact when nothing failed.
    edges = [start] + stamps
    result["job_seconds"] = [b - a for a, b in zip(edges, edges[1:])]


def serve_reference(result):
    """The in-process run of every service cell, which payloads from the
    server must equal."""
    from repro.eval import runner
    from tracing import stats_digest
    from workloads import SERVE_GEOMETRY, cell_label, serve_cells

    result["cells"] = {}
    result["stats"] = {"cycles": 0, "instrs_issued": 0}
    for bench, config in serve_cells():
        run = runner.run_benchmark(bench, config, **SERVE_GEOMETRY)
        result["cells"][cell_label(bench, config)] = stats_digest(
            run.stats.as_dict())
        for name in result["stats"]:
            result["stats"][name] += getattr(run.stats, name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None,
                        help="write the traced spans here (trace 1 only)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    from workloads import (FUZZ_BUDGET, WORKLOADS, CalibrationSampler,
                           calibrate, fuzz_seed)

    _import_layers()
    result = {"ready": time.monotonic(), "errors": []}
    result["setup_calibration"] = calibrate()
    kind, arg = WORKLOADS[args.workload]
    if kind == "serve":
        serve_reference(result)
    elif not args.setup_only:
        tracer = tracing.Tracer() if args.trace else None
        counter = (tracing.install(tracer) if tracer is not None
                   else tracing.install_stats_counter())
        with CalibrationSampler() as sampler:
            if kind == "suite":
                run_suite(arg, result)
            else:
                result["fuzz_seed"] = fuzz_seed(args.seed)
                run_fuzz(result["fuzz_seed"], FUZZ_BUDGET, result)
        result["calibration"] = sampler.bursts
        if kind == "fuzz":
            result["cells"] = {
                str(result["fuzz_seed"]): tracing.stats_digest(
                    counter.digests)}
        result["stats"] = counter.totals
        if tracer is not None:
            dump = tracer.dump()
            result["layers"] = tracing.layer_metrics(dump, counter.totals)
            if args.spans:
                with open(args.spans, "w") as stream:
                    json.dump(dump, stream)
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
