"""Rewrite the pinned outputs of the workloads with seed-independent inputs.

    python3 benchmarks/pin.py

Runs one untraced child per workload in ``workloads.PINNED`` and writes
``benchmarks/expected/<workload>.json``.  Re-pin only when a change to the
program is meant to change ``report.json``, and say which values moved.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in workloads.PINNED:
        work = Path(tempfile.mkdtemp(prefix="pin-", dir=run.OUT_DIR))
        try:
            configs, paths = run.write_configs(workload, 0, work)
            run.run_child(paths, work / "child.json")
            [summary] = run.read_reports(configs)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        pinned = {"rel_tol": workloads.PIN_REL_TOL, "abs_tol": workloads.PIN_ABS_TOL, "commands": summary}
        (workloads.EXPECTED_DIR / f"{workload}.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"pinned {workload}: {sum(len(s['assertions']) for s in summary.values())} assertions")


if __name__ == "__main__":
    main()
