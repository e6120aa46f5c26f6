"""The repository benchmark: cold end-to-end runs with a per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cheri_opt_suite --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced repetition and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name the host and print every metric with its unit.  A record with the
host and every raw sample is written under ``.perfbench_out/``.  See
``perfbench/README.md`` for the metrics, the workloads and why each
exists.
"""

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    SERVE_GEOMETRY,
    SERVE_WARMUP,
    WORKLOADS,
    calibrate,
    cell_label,
    count_disk_stores,
    fuzz_seed,
    host_info,
    load_refs,
    serve_plan,
    speed_factor,
)

#: Set-up-only child processes per lane of a suite or fuzz run, on top
#: of the set-up every repetition pays; set-up is reported as the median.
SETUP_PROBES = 1
#: Suite and fuzz repetitions run in this many lanes at once, each lane
#: pinned to its own CPU (fewer if the process may use fewer CPUs).
LANES = 2
#: Hard limit on one child process or server session.
CHILD_TIMEOUT = 150.0

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("sim_kips", "kwinstr/s"),
    ("sim_cycles", "cycles"), ("peak_rss_mb", "MiB"),
    ("job_p50_ms", "ms"), ("job_p90_ms", "ms"), ("ok_frac", "ratio"),
)

#: Per-layer metric -> unit.  Every traced run reports all of them; a
#: layer a workload does not exercise reports 0.
PER_LAYER = {
    "compile.calls": "count", "compile.s": "s", "compile.frontend_s": "s",
    "compile.opt_s": "s", "compile.regalloc_s": "s",
    "compile.assemble_s": "s", "compile.static_instrs": "count",
    "launch.calls": "count", "launch.sm_init_s": "s", "launch.setup_s": "s",
    "sim.s": "s", "sim.winstrs": "count", "sim.thread_instrs": "count",
    "sim.ns_per_winstr": "ns", "sim.stall_shared_vrf": "cycles",
    "sim.stall_csc_operand": "cycles", "sim.stall_bank_conflict": "cycles",
    "sim.sfu_busy_cycles": "cycles", "sim.barrier_waits": "count",
    "rf.s": "s", "rf.write_calls": "count", "rf.write_form_calls": "count",
    "rf.read_calls": "count", "rf.gp_writes": "count",
    "rf.gp_compressed_frac": "ratio", "rf.meta_writes": "count",
    "rf.spills": "count",
    "mem.s": "s", "mem.calls": "count", "mem.dram_bytes": "bytes",
    "mem.dram_txns": "count", "mem.tag_miss_frac": "ratio",
    "mem.scratchpad_conflict_cycles": "cycles",
    "hostcheck.s": "s",
    "golden.steps": "count", "golden.s": "s", "fuzz.cases": "count",
    "runner.overhead_s": "s", "runner.manifest_s": "s",
    "runner.disk_stores": "count",
    "serve.exec_ms_p50": "ms", "serve.overhead_ms_p50": "ms",
    "serve.executed": "count", "serve.cache_hits": "count",
    "serve.worker_utilization": "ratio",
    "stats.drift": "count", "stats.counter_drift": "count",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
}

#: Deterministic counters that must repeat exactly (pinned in refs.json).
DETERMINISTIC = ("sim_cycles", "sim.winstrs", "compile.static_instrs",
                 "golden.steps")


class BenchError(Exception):
    """A repetition could not run: a child crashed or the server broke."""


def quantile(samples, fraction, points=16):
    """Harrell-Davis estimate of the ``fraction`` quantile of ``samples``.

    A weighted mean of all order statistics, with the weights of a
    Beta((n+1)f, (n+1)(1-f)) distribution integrated over each order
    statistic's share of [0, 1] (midpoint rule, ``points`` per share).
    With few samples near the quantile, as in a suite's 14 cells per
    repetition, it is much steadier than the single order statistic.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * fraction, (n + 1) * (1 - fraction)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        total = 0.0
        for k in range(points):
            x = (i + (k + 0.5) / points) / n
            total += math.exp(log_norm + (a - 1) * math.log(x)
                              + (b - 1) * math.log1p(-x))
        weights.append(total)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


class Run:
    """One benchmark invocation: its scratch space and its samples."""

    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.kind = WORKLOADS[workload][0]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = None
        self.base_env = dict(os.environ)
        self.base_env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.base_env.pop("REPRO_BACKEND", None)   # the default tier
        self.setups = []        # set-up times, in reference seconds
        self.reps = []          # untraced repetitions
        self.traced = None      # the traced repetition (trace 1)
        self.errors = []

    def __enter__(self):
        base = os.path.join(self.root, ".perfbench_run")
        os.makedirs(base, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=base)
        self.base_env["TMPDIR"] = self.scratch
        return self

    def __exit__(self, *_exc):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def fresh_env(self):
        """Environment with empty cache and manifest directories."""
        directory = tempfile.mkdtemp(dir=self.scratch)
        env = dict(self.base_env)
        env["REPRO_SIMCACHE_DIR"] = os.path.join(directory, "simcache")
        env["REPRO_MANIFEST_DIR"] = os.path.join(directory, "manifests")
        os.makedirs(env["REPRO_SIMCACHE_DIR"])
        return directory, env

    # -- suite and fuzz workloads ------------------------------------------

    def child(self, trace=0, setup_only=False, cpu=None):
        """Run child.py once, cold; returns its result dict."""
        directory, env = self.fresh_env()
        out = os.path.join(directory, "result.json")
        command = [sys.executable, os.path.join(HERE, "child.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--trace", str(trace), "--out", out]
        if setup_only:
            command.append("--setup-only")
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        if trace:
            command += ["--spans", os.path.join(directory, "spans.json")]
        start = time.monotonic()
        proc = subprocess.run(command, env=env, cwd=self.root,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0 or not os.path.exists(out):
            raise BenchError("child %s failed (exit %d): %s"
                             % (self.workload, proc.returncode,
                                proc.stderr.strip()[-2000:]))
        with open(out) as stream:
            result = json.load(stream)
        result["setup"] = result["ready"] - start
        result["total"] = time.monotonic() - start
        if trace:
            self.keep_spans(os.path.join(directory, "spans.json"))
        shutil.rmtree(directory, ignore_errors=True)
        self.errors.extend(result["errors"])
        result["setup_factor"] = speed_factor(result["setup_calibration"])
        result["factor"] = (speed_factor(result["calibration"])
                            if result.get("calibration")
                            else result["setup_factor"])
        result["burst_s"] = statistics.median(
            result.get("calibration") or result["setup_calibration"])
        del result["setup_calibration"]
        result.pop("calibration", None)
        return result

    def timed_child(self, trace=0, setup_only=False, cpu=None):
        result = self.child(trace, setup_only, cpu)
        self.setups.append(result["setup"] * result["setup_factor"])
        return result

    def run_processes(self):
        if self.trace:
            self.timed_child(setup_only=True)
            self.reps.append(self.timed_child())
            self.traced = self.timed_child(trace=1)
            return
        # Two lanes, one pinned to each CPU, give twice the repetitions.
        cpus = sorted(os.sched_getaffinity(0))[:LANES]
        start = time.monotonic()
        failures = []

        def lane(cpu):
            try:
                for _ in range(SETUP_PROBES):
                    self.timed_child(setup_only=True, cpu=cpu)
                longest = 0.0
                while True:
                    result = self.timed_child(cpu=cpu)
                    self.reps.append(result)
                    longest = max(longest, result["total"])
                    if time.monotonic() - start + longest > self.seconds:
                        break
            except Exception as exc:   # re-raised below, in the main thread
                failures.append(exc)

        threads = [threading.Thread(target=lane, args=(cpu,))
                   for cpu in cpus]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]

    # -- service workload --------------------------------------------------

    def serve_round(self, trace_dir=None):
        """One cold server session: start, warm up, drive the job plan,
        drain.  Returns the round's samples."""
        directory, env = self.fresh_env()
        if trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = trace_dir
        bursts_dir = os.path.join(directory, "calibration")
        os.makedirs(bursts_dir)
        env["PERFBENCH_CALIBRATION_DIR"] = bursts_dir
        from repro.serve.client import ServeClient

        start = time.monotonic()
        err_path = os.path.join(directory, "server.err")
        with open(err_path, "w") as err:
            # A session of its own, so that a failed round can stop the
            # server and its workers together.
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "serve_host.py")],
                stdout=subprocess.PIPE, stderr=err, env=env, cwd=self.root,
                text=True, start_new_session=True)
        try:
            port = self._await_port(proc)
            with ServeClient(port=port, timeout=CHILD_TIMEOUT) as client:
                warmup = self._serve_job(client, *SERVE_WARMUP)
                if not warmup["ok"]:
                    raise BenchError("warm-up job failed: %s"
                                     % warmup.get("error"))
                sample = {"setup": time.monotonic() - start, "jobs": [],
                          "ops": 0, "failed": 0}
                sample["setup_factor"] = speed_factor(calibrate())
                first = time.monotonic()
                seen = set()
                for bench, config in serve_plan(self.seed):
                    job = self._serve_job(client, bench, config)
                    job["fresh"] = job["cell"] not in seen
                    seen.add(job["cell"])
                    sample["jobs"].append(job)
                sample["wall"] = time.monotonic() - first
                sample["server"] = client.stats()["stats"]
                client.drain()
            tail, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            with open(err_path) as stream:
                raise BenchError("server exited with %d: %s"
                                 % (proc.returncode, stream.read()[-2000:]))
        sample["rss_mb"] = json.loads(tail.strip().splitlines()[-1])[
            "rss_mb"]
        # The worker's calibration bursts, taken while it ran the jobs.
        bursts = []
        for name in os.listdir(bursts_dir):
            with open(os.path.join(bursts_dir, name)) as stream:
                bursts += json.load(stream)
        if not bursts:
            raise BenchError("the worker wrote no calibration bursts")
        sample["factor"] = speed_factor(bursts)
        sample["burst_s"] = statistics.median(bursts)
        sample["disk_stores"] = count_disk_stores(env)
        shutil.rmtree(directory, ignore_errors=True)
        self.setups.append(sample["setup"] * sample["setup_factor"])
        return sample

    @staticmethod
    def _await_port(proc):
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        marker = "listening on "
        if marker not in line:
            raise BenchError("server did not start: %r" % line)
        return int(line.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])

    @staticmethod
    def _serve_job(client, bench, config, geometry=SERVE_GEOMETRY):
        """Submit one cell and wait for its terminal event."""
        from repro.serve.client import ServeError

        job = {"cell": cell_label(bench, config), "ok": False}
        start = time.monotonic()
        try:
            for message in client.submit_and_stream(
                    benchmarks=[bench], configs=[config],
                    overrides=dict(geometry)):
                event = message.get("event")
                if event == "started":
                    job["started"] = time.monotonic() - start
                if event in ("done", "cached", "failed") \
                        and "latency" not in job:
                    job["latency"] = time.monotonic() - start
                    job["event"] = event
                    payload = message.get("payload")
                    if event != "failed" and payload:
                        job["digest"] = tracing.stats_digest(
                            payload["stats"])
                        job["winstrs"] = payload["stats"]["instrs_issued"]
                        job["cycles"] = payload["stats"]["cycles"]
                        job["ok"] = True
                    else:
                        job["error"] = message.get("error", event)
        except ServeError as exc:
            job["error"] = "refused: %s" % exc
        job.setdefault("latency", time.monotonic() - start)
        return job

    def run_service(self):
        if self.trace:
            self.reps.append(self.serve_round())
            trace_dir = tempfile.mkdtemp(dir=self.scratch)
            self.traced = self.serve_round(trace_dir=trace_dir)
            dumps = []
            for name in sorted(os.listdir(trace_dir)):
                with open(os.path.join(trace_dir, name)) as stream:
                    dumps.append(json.load(stream))
            if not dumps:
                raise BenchError("traced worker wrote no trace")
            merged = tracing.merge(dumps)
            stats = {key: sum(dump["stats"][key] for dump in dumps)
                     for key in tracing.STAT_FIELDS}
            self.traced["layers"] = tracing.layer_metrics(merged, stats)
            self.keep_dump(merged)
        else:
            start = time.monotonic()
            longest = 0.0
            while True:
                round_start = time.monotonic()
                self.reps.append(self.serve_round())
                longest = max(longest, time.monotonic() - round_start)
                if time.monotonic() - start + longest > self.seconds:
                    break
        # Every payload must equal the in-process run of the same cell.
        reference = self.child()["cells"]
        for sample in self.samples():
            for job in sample["jobs"]:
                sample["ops"] += 1
                if job["ok"] and job["digest"] != reference[job["cell"]]:
                    job["ok"] = False
                    job["error"] = "payload stats differ from in-process"
                if not job["ok"]:
                    sample["failed"] += 1
                    self.errors.append("%s: %s" % (job["cell"],
                                                   job.get("error")))

    # -- output ------------------------------------------------------------

    def keep_spans(self, path):
        with open(path) as stream:
            self.keep_dump(json.load(stream))

    def keep_dump(self, dump):
        """Write the traced spans out under .perfbench_out/."""
        out = os.path.join(self.root, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "%s-seed%d.spans.json"
                            % (self.workload, self.seed))
        with open(path, "w") as stream:
            json.dump(dump, stream)

    def samples(self):
        return self.reps + ([self.traced] if self.traced else [])

    def attempted_failed(self):
        samples = self.samples()
        return (sum(s["ops"] for s in samples),
                sum(s["failed"] for s in samples))

    def end_to_end(self):
        reps = self.reps
        attempted, failed = self.attempted_failed()
        # Each repetition's host times are scaled to reference seconds by
        # the calibration bursts taken while it ran.
        factors = [rep["factor"] for rep in reps]
        walls = [rep["wall"] * f for rep, f in zip(reps, factors)]
        if self.kind == "serve":
            latencies = [job["latency"] * f for rep, f in zip(reps, factors)
                         for job in rep["jobs"]]
            winstrs = [self.serve_totals(rep)["sim.winstrs"] for rep in reps]
            cycles = [self.serve_totals(rep)["sim_cycles"] for rep in reps]
        else:
            latencies = [t * f for rep, f in zip(reps, factors)
                         for t in rep.get("job_seconds", [])]
            winstrs = [rep["stats"]["instrs_issued"] for rep in reps]
            cycles = [rep["stats"]["cycles"] for rep in reps]
        latencies = latencies or walls
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": statistics.median(walls),
            "sim_kips": statistics.median(
                n / wall / 1e3 for n, wall in zip(winstrs, walls)),
            "sim_cycles": statistics.median(cycles),
            "peak_rss_mb": max(rep["rss_mb"] for rep in reps),
            "job_p50_ms": quantile(latencies, 0.5) * 1e3,
            "job_p90_ms": quantile(latencies, 0.9) * 1e3,
            "ok_frac": 1.0 - failed / attempted,
        }

    @staticmethod
    def serve_totals(sample):
        """Simulated cycles and warp-instructions of the round's executed
        (first-submitted) cells."""
        fresh = [job for job in sample["jobs"] if job["fresh"] and job["ok"]]
        return {"sim_cycles": sum(job["cycles"] for job in fresh),
                "sim.winstrs": sum(job["winstrs"] for job in fresh)}

    def per_layer(self, refs):
        traced, untraced = self.traced, self.reps[0]
        layers = dict.fromkeys(PER_LAYER, 0)
        layers.update({k: v for k, v in traced["layers"].items()
                       if k in PER_LAYER})
        if self.kind == "serve":
            server = traced["server"]
            # Worker time per executed job, between the started and done
            # events the client receives on the same connection.
            executed = [job for job in traced["jobs"]
                        if job["ok"] and "started" in job]
            layers.update({
                "serve.exec_ms_p50": statistics.median(
                    job["latency"] - job["started"] for job in executed)
                * 1e3,
                "serve.overhead_ms_p50": statistics.median(
                    job["started"] for job in executed) * 1e3,
                "serve.executed": server["executed"],
                "serve.cache_hits": server["cache_hits"]
                + server["memo_hits"],
                "serve.worker_utilization": server["worker_utilization"],
            })
            digests = [(job["cell"], job["digest"])
                       for sample in (untraced, traced)
                       for job in sample["jobs"] if job["ok"]]
            counters = [self.serve_totals(sample)
                        for sample in (untraced, traced)]
            expect = refs["counters"][self.workload]
        else:
            if self.kind == "fuzz":
                layers["fuzz.cases"] = traced["ops"]
            digests = [item for sample in (untraced, traced)
                       for item in sample.get("cells", {}).items()]
            counters = [{"sim_cycles": s["stats"]["cycles"],
                         "sim.winstrs": s["stats"]["instrs_issued"]}
                        for s in (untraced, traced)]
            counters[1].update({
                "compile.static_instrs":
                    traced["layers"]["compile.static_instrs"],
                "golden.steps": traced["layers"]["golden.steps"]})
            expect = refs["counters"][self.workload]
            if self.kind == "fuzz":
                expect = expect[str(fuzz_seed(self.seed))]
        layers["runner.disk_stores"] = traced.get("disk_stores", 0)
        pinned = refs["cells"][self.workload]
        layers["stats.drift"] = len({name for name, digest in digests
                                     if pinned.get(name) != digest})
        layers["stats.counter_drift"] = sum(
            1 for name in DETERMINISTIC
            if any(name in c and c[name] != expect[name] for c in counters))
        layers["trace.overhead_frac"] = (
            traced["wall"] * traced["factor"]
            / (untraced["wall"] * untraced["factor"]) - 1.0)
        covered = traced["layers"]["traced.s"]
        if self.kind == "serve":
            # Host time the worker spent outside traced layers, as a share
            # of the worker's busy time.
            busy = traced["server"]["busy_seconds"]
            layers["trace.unattributed_frac"] = (
                1.0 - covered / busy if busy else 0.0)
        else:
            layers["trace.unattributed_frac"] = 1.0 - covered / traced["wall"]
        return layers


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Cold end-to-end benchmark of the CHERI-SIMT simulator")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (no src/repro "
              "here)", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(root, "src"))
    with Run(root, args.workload, args.seed, args.seconds, args.trace) as run:
        try:
            if run.kind == "serve":
                run.run_service()
            else:
                run.run_processes()
        except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
            print("perfbench: %s" % exc, file=sys.stderr)
            return 1
        if args.trace:
            metrics = run.per_layer(load_refs())
            units = PER_LAYER
        else:
            metrics = run.end_to_end()
            units = dict(END_TO_END)
        attempted, failed = run.attempted_failed()
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host_info(root), "metrics": metrics,
            "setups": run.setups, "errors": run.errors,
            "samples": run.samples(),
        }
    out = os.path.join(root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as stream:
        json.dump(record, stream, indent=1)

    host = record["host"]
    print("host: %s, nproc %s, Python %s, NumPy %s, rev %s"
          % (host["cpu"], host["nproc"], host["python"], host["numpy"],
             host["git_rev"]))
    print("workload %s, seed %d, %d op(s), %d failed, fail_frac %.6f"
          % (args.workload, args.seed, attempted, failed,
             failed / attempted))
    factors = [sample["factor"] for sample in run.samples()]
    print("host speed: host times x %.3f-%.3f give reference seconds"
          % (min(factors), max(factors)))
    for error in run.errors[:20]:
        print("  FAIL %s" % error)
    for name, value in metrics.items():
        print("  %-32s %16.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
