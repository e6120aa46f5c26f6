"""Host process for the service workload: ``repro serve`` with one worker.

Runs the server in this process on a free port (it prints ``repro serve
listening on HOST:PORT``), and after the drain prints one JSON line with
the peak RSS of this process plus its largest child, the worker::

    PYTHONPATH=src python perfbench/serve_host.py

Each worker times calibration bursts while it runs
(``workloads.CalibrationSampler``) and writes them into
``PERFBENCH_CALIBRATION_DIR`` when it exits.  With
``PERFBENCH_TRACE_DIR`` set, each worker also traces its layers and
writes its tracer dump into that directory.  Workers are started with
the ``spawn`` method, which re-runs this file as ``__mp_main__`` in the
worker before the worker's loop starts; that is where the sampler and
the tracer are installed.
"""

import json
import os
import resource
import sys

TRACE_ENV = "PERFBENCH_TRACE_DIR"
CALIBRATION_ENV = "PERFBENCH_CALIBRATION_DIR"


def _calibrate_worker(directory):
    import atexit

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import CalibrationSampler

    sampler = CalibrationSampler()
    sampler.start()

    def write_bursts():
        sampler.stop()
        path = os.path.join(directory, "worker-%d.json" % os.getpid())
        with open(path, "w") as stream:
            json.dump(sampler.bursts, stream)

    atexit.register(write_bursts)


def _trace_worker(directory):
    import atexit

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    tracer = tracing.Tracer()
    counter = tracing.install(tracer)

    def write_dump():
        dump = tracer.dump()
        dump["stats"] = counter.totals
        path = os.path.join(directory, "worker-%d.json" % os.getpid())
        with open(path, "w") as stream:
            json.dump(dump, stream)

    atexit.register(write_dump)


def main():
    from repro.serve.server import serve_main

    code = serve_main("127.0.0.1", 0, workers=1)
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps({"rss_mb": self_mb + child_mb}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    if os.environ.get(CALIBRATION_ENV):
        _calibrate_worker(os.environ[CALIBRATION_ENV])
    if os.environ.get(TRACE_ENV):
        _trace_worker(os.environ[TRACE_ENV])
