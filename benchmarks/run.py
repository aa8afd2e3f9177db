"""tangency-lab benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each iteration of a workload runs in a
fresh child process (``child.py``), one at a time, until ``--seconds`` have
passed (at least ``MIN_ITERATIONS``, or ``MIN_TRACED`` pairs of untraced and
traced children).  Every child writes its artifacts into
a temporary directory under ``.bench_out/``, which is removed at the end.

``--trace 0`` reports the medians of ``setup_s``, ``run_s``, ``cpu_s`` and
``peak_rss_mb`` over the children.  ``--trace 1`` alternates untraced and
traced children and reports the per-layer metrics named in
``BENCHMARK.json`` plus the tracing overhead (traced over untraced
``run_s``).  Both check every child's outputs (see ``workloads.py``) and
print, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record of the run,
with provenance and, when traced, the whole trace, is written to
``.bench_out/<workload>-seed<N>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
MIN_ITERATIONS = 3
# Typical time of one child.calibrate kernel on the 2-vCPU host the
# benchmark was written on.  A child's times are scaled by CAL_REF_S over the
# kernel times it measured next to them, so they read as seconds on a host as
# fast as that one.  This cancels the drift of a shared host's speed: there,
# the raw run_s of one child varied by +-30% and medians over 40-second runs
# by +-20%.
CAL_REF_S = 0.05
SCALED = ("setup_s", "run_s", "cpu_s")
PARTS = {"run_s": "run_parts", "cpu_s": "cpu_parts"}
MIN_TRACED = 2  # enough to check that counts repeat exactly
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(configs: list[Path], result: Path, trace: bool = False) -> dict:
    """Run one child to completion and return its result record."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--start", repr(start), "--result", str(result)]
    cmd += ["--trace"] if trace else []
    cmd += [str(p) for p in configs]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(result.read_text())
    result.unlink()
    bad = [code for code in record["exit_codes"] if code not in (0, 1)]
    if bad:
        raise BenchError(f"tangency-lab exited with {bad}, which is neither pass (0) nor assertion failure (1)")
    return record


def write_configs(workload: str, seed: int, work: Path) -> tuple[list[dict], list[Path]]:
    configs, paths = [], []
    for i, config in enumerate(workloads.make_configs(workload, seed, ROOT)):
        config = dict(config, output_dir=str(work / f"out{i}"))
        path = work / f"config{i}.json"
        path.write_bytes(workloads.config_bytes(config))
        configs.append(config)
        paths.append(path)
    return configs, paths


def read_reports(configs: list[dict]) -> list[dict]:
    return [workloads.summarize(json.loads((Path(c["output_dir"]) / "report.json").read_text())) for c in configs]


def scaled(child: dict, name: str) -> float:
    """A child's metric, with times scaled to the reference host speed: the
    time spent on each config by the kernels run just before and after it,
    and set-up by the first kernel."""
    if name not in SCALED:
        return child[name]
    cal = child["cal_s"]
    parts = child[PARTS[name]] if name in PARTS else []
    head = child[name] - sum(parts)
    return head * CAL_REF_S / cal[0] + sum(t * 2.0 * CAL_REF_S / (a + b) for t, a, b in zip(parts, cal, cal[1:]))


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Flatten a trace snapshot into ``<function>.<field>`` metrics, plus
    ``<module>.self_s``, the time a layer is busy in its own code."""
    flat = dict(trace["derived"])
    for name, fn in trace["functions"].items():
        flat[f"{name}.calls"] = fn["calls"]
        flat[f"{name}.incl_s"] = fn["incl_s"]
        flat[f"{name}.self_s"] = fn["self_s"]
        flat[f"{name}.errors"] = sum(fn["errors"].values())
        layer = f"{name.split('.')[0]}.self_s"
        flat[layer] = flat.get(layer, 0.0) + fn["self_s"]
    return flat


def exact_counts(trace: dict) -> dict:
    """The parts of a trace that must repeat exactly for one seed."""
    return {
        "calls": {k: v["calls"] for k, v in trace["functions"].items()},
        "errors": {k: v["errors"] for k, v in trace["functions"].items()},
        "derived": trace["derived"],
        "edges": trace["edges"],
    }


def provenance() -> dict:
    sources = sorted((ROOT / "src" / "tangencylab").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(workload: str, configs: list[dict], paths: list[Path], seconds: float, trace: bool, work: Path) -> dict:
    """Run children until ``seconds`` have passed and check their outputs.
    With ``trace``, each iteration is an untraced child then a traced one."""
    result = work / "child.json"
    run_child([], result)  # compile bytecode and warm the page cache, untimed
    kinds = ("plain", "traced") if trace else ("plain",)
    run = {"children": {kind: [] for kind in kinds}, "attempted": 0, "failed": 0, "mismatches": []}
    baseline = None
    unit_walls: list[float] = []
    deadline = time.monotonic() + seconds
    while True:
        unit_start = time.monotonic()
        for kind in kinds:
            for c in configs:
                shutil.rmtree(c["output_dir"], ignore_errors=True)
            run["children"][kind].append(run_child(paths, result, trace=kind == "traced"))
            summaries = read_reports(configs)
            attempted, failed, mismatches = workloads.check_outputs(workload, configs, summaries, baseline)
            baseline = baseline or summaries
            run["attempted"] += attempted
            run["failed"] += failed
            run["mismatches"] += mismatches
        unit_walls.append(time.monotonic() - unit_start)
        enough = len(unit_walls) >= (MIN_TRACED if trace else MIN_ITERATIONS)
        if enough and time.monotonic() + statistics.median(unit_walls) > deadline:
            return run


def traced_metrics(run: dict, spec: dict) -> dict:
    plain, traced = run["children"]["plain"], run["children"]["traced"]
    traces = [r["trace"] for r in traced]
    if any(exact_counts(t) != exact_counts(traces[0]) for t in traces[1:]):
        run["mismatches"].append("trace counts differ between traced children of one run")
    overhead = statistics.median(r["run_s"] for r in traced) / statistics.median(r["run_s"] for r in plain)
    flats = [dict(layer_metrics(t), **{"trace.overhead": overhead}) for t in traces]
    return {m["name"]: dict(spread([flat[m["name"]] for flat in flats]), unit=m["unit"]) for m in spec["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        configs, paths = write_configs(workload, seed, work)
        run = measure(workload, configs, paths, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = run["children"]["plain"]
    raw = {name: spread([r[name] for r in plain]) for name in SCALED}
    raw["cal_s"] = spread([statistics.fmean(r["cal_s"]) for r in plain])
    if trace:
        metrics = traced_metrics(run, spec)
    else:
        metrics = {m["name"]: dict(spread([scaled(r, m["name"]) for r in plain]), unit=m["unit"]) for m in spec["end_to_end"]}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": dict(provenance(), numpy=plain[0]["numpy"], tangencylab=plain[0]["tangencylab"]),
        "configs": configs,
        "correct": not run["mismatches"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "mismatches": run["mismatches"],
        "metrics": metrics,
        "unscaled": raw,
        "children": {kind: [{k: v for k, v in r.items() if k != "trace"} for r in rs] for kind, rs in run["children"].items()},
    }
    if trace:
        record["trace_detail"] = run["children"]["traced"][0]["trace"]
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "tangencylab" / "cli.py", ROOT / "configs" / "reference.json", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"benchmark error: {needed.relative_to(ROOT)} is missing; run from a full checkout", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace), spec))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for rec in records:
        prov = rec["provenance"]
        print(
            f"# {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} nproc={prov['nproc']} "
            f"python={prov['python']} numpy={prov['numpy']} commit={prov['git_commit']} "
            f"source={prov['source_sha256'][:12]} children={len(rec['children']['plain'])}"
        )
        for line in rec["mismatches"][:20]:
            print(f"MISMATCH {rec['workload']}: {line}")
        for name, m in rec["metrics"].items():
            line = f"{rec['workload']} {name} {m['median']:.6g} {m['unit']} (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})"
            if name in rec["unscaled"]:
                line += f"; unscaled {rec['unscaled'][name]['median']:.6g} {m['unit']}"
            print(line)
            key = name if len(records) == 1 else f"{rec['workload']}.{name}"
            metrics[key] = {"value": m["median"], "unit": m["unit"]}
        print(f"{rec['workload']} failed_ratio {rec['failed']}/{rec['attempted']} = {rec['failed'] / rec['attempted']:.4g}")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
