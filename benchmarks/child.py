"""One benchmark iteration in a fresh process.

    python3 child.py --start T --result R.json [--trace] CONFIG...

``T`` is the parent's CLOCK_MONOTONIC reading taken just before it started
this process, so ``setup_s`` covers interpreter start, the ``tangencylab``
import and loading every config.  ``run_s`` is the wall time of
``tangency-lab all`` on each config (``run_parts``), driven through
``cli.main``, and ``cpu_s`` the process's CPU time outside the calibration
kernel (``cpu_parts`` per config).  The kernel runs before the first config
and after each one; its times ``cal_s`` measure how fast the host is at
those moments.  With ``--trace`` the package is wrapped by
``tracer.Tracer`` after set-up and the trace snapshot goes into the result
file.  With no config the child only imports the package, which compiles
its bytecode before the timed children.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy
import tangencylab
from tangencylab import cli


def calibrate() -> tuple[float, float]:
    """Wall and CPU time of a fixed mix of scalar float code and small numpy
    calls, the two kinds of work the lab does."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc = 0.0
    for i in range(100_000):
        x, y = i * 1e-4, 1.0 - i * 1e-5
        acc += math.exp(-x) * y**3 + math.log1p(x)
    grid = numpy.linspace(0.0, 1.0, 257)
    for _ in range(1500):
        acc += float(numpy.polyval((1.0, 0.5, 0.25), grid).sum())
    return time.perf_counter() - wall, time.process_time() - cpu


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("configs", nargs="*")
    args = parser.parse_args()

    for path in args.configs:
        cli.load_config(path)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.start

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    kernels = [calibrate()]
    run_parts, cpu_parts, exit_codes = [], [], []
    with contextlib.redirect_stdout(io.StringIO()):
        for i, path in enumerate(args.configs):
            if tracer is not None:
                tracer.trace_id = i
            t0, c0 = time.perf_counter(), time.process_time()
            exit_codes.append(cli.main(["all", "--config", path]))
            run_parts.append(time.perf_counter() - t0)
            cpu_parts.append(time.process_time() - c0)
            kernels.append(calibrate())

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "run_s": sum(run_parts),
        "run_parts": run_parts,
        "cpu_s": usage.ru_utime + usage.ru_stime - sum(cpu for _, cpu in kernels),
        "cpu_parts": cpu_parts,
        "cal_s": [wall for wall, _ in kernels],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_codes": exit_codes,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "tangencylab": tangencylab.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
