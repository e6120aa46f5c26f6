"""Workload definitions shared by ``run.py``, ``child.py`` and ``pin.py``.

Every workload runs cold: each repetition is a fresh process (or, for the
service, a fresh server) with its own empty ``REPRO_SIMCACHE_DIR`` and
``REPRO_MANIFEST_DIR``, on the default execution tier.
"""

import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

#: name -> (kind, argument).  ``suite`` workloads run ``run_suite(arg,
#: jobs=1)``; ``fuzz`` runs ``run_fuzz``; ``serve`` drives ``repro serve``.
WORKLOADS = {
    "cheri_opt_suite": ("suite", "cheri_opt"),
    "boundscheck_suite": ("suite", "boundscheck"),
    "fuzz_differential": ("fuzz", None),
    "serve_small_jobs": ("serve", None),
}

#: Cases per fuzz run.  Large enough that the cost of one seed's
#: generated programs varies little from seed to seed.
FUZZ_BUDGET = 600

#: Fuzz seeds whose statistics are pinned in refs.json; a workload seed
#: ``s`` fuzzes with ``s % FUZZ_SEED_POOL``, so every seed has a reference.
FUZZ_SEED_POOL = 16

#: The ten Table 1 benchmarks that finish fastest at the service geometry
#: (BitonicSm, BitonicLa, MotionEst and MatVecMul are left out).
SERVE_BENCHMARKS = ("VecAdd", "Histogram", "Reduce", "Scan", "Transpose",
                    "MatMul", "SPMV", "BlkStencil", "StrStencil", "VecGCD")
SERVE_CONFIGS = ("baseline", "cheri_opt", "boundscheck")
SERVE_GEOMETRY = {"num_warps": 4, "num_lanes": 4}
#: Repeat submissions per service round, on top of one submission of
#: every cell.  A repeat is answered from the server's job table in about
#: 2 ms, an executed cell takes 25-300 ms.  With a quarter of the jobs
#: repeating, the median lands among the executed cells, where their
#: latencies lie close together; at half it would jump between the modes.
SERVE_REPEATS = 10
#: Set-up job: a cell outside the workload (other geometry), so it warms
#: the worker without filling the cache for the measured jobs.
SERVE_WARMUP = ("VecAdd", "baseline", {"num_warps": 2, "num_lanes": 2})


#: Calibration bursts a process times right after its set-up.
CALIBRATION_BURSTS = 40
#: While a workload runs, one calibration burst every this many seconds
#: of the process's CPU time.
SAMPLE_INTERVAL_S = 0.05
#: Host times are reported in reference seconds: seconds on a host whose
#: median calibration burst, taken while a workload runs, lasts this
#: long.  That is its length on the reference host (2-vCPU Intel Xeon,
#: Python 3.11.7) at full speed, so reference seconds are the host
#: seconds measured there at full speed.
REFERENCE_BURST_S = 0.0003
#: Host time grows as the median burst to this power.  On the reference
#: host, when it slowed down between runs, a run's host time grew as the
#: burst to the power 0.7 (cheri_opt_suite) to 1.0 (fuzz_differential);
#: 0.8 left the least spread over ten runs of every workload.
SPEED_EXPONENT = 0.8


def _burst():
    """One calibration burst: dict, list and integer operations on a few
    KiB, like the simulator's own, but work no change to the program can
    make faster or slower."""
    table = {}
    items = list(range(64))
    total = 0
    for i in range(2000):
        key = (i * 40503) & 1023
        table[key] = table.get(key, 0) + items[i & 63]
        total += key >> 2
    return total


def calibrate(bursts=CALIBRATION_BURSTS):
    """Host time of each of ``bursts`` calibration bursts."""
    clock = time.perf_counter
    _burst()   # warms the caches with the burst's own working set
    times = []
    for _ in range(bursts):
        start = clock()
        _burst()
        times.append(clock() - start)
    return times


def speed_factor(bursts):
    """The factor that scales a host time measured while ``bursts`` ran
    to reference seconds."""
    return (REFERENCE_BURST_S / statistics.median(bursts)) ** SPEED_EXPONENT


class CalibrationSampler:
    """Times one calibration burst every SAMPLE_INTERVAL_S seconds of the
    process's CPU time, from a SIGPROF handler, while it is started.

    The host's CPUs slow down and speed up by up to 2x, for moments or
    for minutes, while the program stays the same; bursts taken while
    the workload runs slow down with it.  The two bursts of a sample cost
    about 2% of the interval, which stays in the measured times.
    """

    def __init__(self):
        self.bursts = []

    def _sample(self, _signum, _frame):
        # An untimed burst first refills the caches the workload took
        # over, so that the timed one does not depend on how much memory
        # the program touches.
        _burst()
        start = time.perf_counter()
        _burst()
        self.bursts.append(time.perf_counter() - start)

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *_exc):
        self.stop()


def fuzz_seed(seed):
    return seed % FUZZ_SEED_POOL


def serve_cells():
    return [(bench, config) for config in SERVE_CONFIGS
            for bench in SERVE_BENCHMARKS]


def cell_label(bench, config):
    return "%s/%s" % (config, bench)


def serve_plan(seed):
    """The job sequence of one service round: every cell once in a seeded
    order, plus SERVE_REPEATS repeats of cells already submitted."""
    rng = random.Random("perfbench-serve:%d" % seed)
    fresh = serve_cells()
    rng.shuffle(fresh)
    plan = list(fresh)
    for _ in range(SERVE_REPEATS):
        # Insert after a random point, repeating a cell submitted before it.
        position = rng.randrange(1, len(plan) + 1)
        earlier = {cell for cell in plan[:position]}
        plan.insert(position, rng.choice(sorted(earlier)))
    return plan


def count_disk_stores(env):
    """Results the runner stored in a repetition's disk cache."""
    cache = env["REPRO_SIMCACHE_DIR"]
    return sum(1 for entry in os.listdir(cache) if entry.endswith(".pkl"))


def load_refs():
    with open(REFS_PATH) as stream:
        return json.load(stream)


def host_info(root):
    """Provenance of a record: CPU model, nproc, Python, NumPy, git rev."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    rev = "not a git checkout"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_rev": rev, "platform": sys.platform}
