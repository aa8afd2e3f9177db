"""Tests of the benchmark's own machinery.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from tangencylab.cases import classify_system  # noqa: E402
from tangencylab.cli import load_config  # noqa: E402


def test_sweep_configs_repeat_byte_for_byte():
    first = [workloads.config_bytes(c) for c in workloads.make_configs("instance-sweep", 11, run.ROOT)]
    second = [workloads.config_bytes(c) for c in workloads.make_configs("instance-sweep", 11, run.ROOT)]
    assert first == second


def test_sweep_configs_load_as_reference_sign_case(tmp_path):
    for seed in range(25):
        for i, config in enumerate(workloads.make_configs("instance-sweep", seed, run.ROOT)):
            path = tmp_path / f"{seed}-{i}.json"
            path.write_bytes(workloads.config_bytes(config))
            cfg = load_config(path)
            case, adapt = classify_system(cfg.system)
            assert case.label == "II_{++}" and adapt.adaptable
            for name, (lo, hi) in workloads.SWEEP_RANGES.items():
                value = config["system"]["seed_coeffs"][0] if name == "z0" else abs(config["system"][name])
                assert lo <= value <= hi, (seed, name, value)


def test_sweep_seeds_give_different_instances():
    drawn = {json.dumps(workloads.sweep_instances(seed)) for seed in range(50)}
    assert len(drawn) == 50


def test_output_check_counts_a_drifted_value():
    pinned = workloads.pinned_commands("geometry")
    config = workloads.make_configs("geometry", 0, run.ROOT)[0]
    attempted, failed, mismatches = workloads.check_outputs("geometry", [config], [pinned])
    assert (attempted, failed, mismatches) == (14 + 4, 0, [])

    drifted = json.loads(json.dumps(pinned))
    drifted["rects"]["results"]["width_exponent"] *= 1.0 + 1e-7
    drifted["moduli"]["assertions"][0][1] = False
    attempted, failed, mismatches = workloads.check_outputs("geometry", [config], [drifted], [pinned])
    assert attempted == 18 and failed == 3  # the assertion, and the rects and moduli checks
    assert any("width_exponent" in m for m in mismatches)


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "geometry", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module", params=["reference-all", "geometry"])
def children(request):
    """One untraced and two traced children of a workload, with their
    reports."""
    run.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT_DIR))
    try:
        configs, paths = run.write_configs(request.param, 0, work)
        out = []
        for trace in (False, True, True):
            record = run.run_child(paths, work / "child.json", trace=trace)
            out.append((record, run.read_reports(configs)))
        yield request.param, configs, out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_trace_counts_repeat_exactly(children):
    _, _, [_, (first, _), (second, _)] = children
    assert run.exact_counts(first["trace"]) == run.exact_counts(second["trace"])
    derived = first["trace"]["derived"]
    assert derived["model.apply_linear_per_exit_check"] > 0
    assert derived["cascade.evals_per_invert"] > 0
    assert derived["numerics.solve_newton.f_evals"] > 0


def test_traced_reports_equal_untraced(children):
    workload, configs, [(_, plain), (_, traced), _] = children
    assert traced == plain
    attempted, failed, mismatches = workloads.check_outputs(workload, configs, traced, plain)
    assert failed == 0 and not mismatches


def test_trace_gives_every_listed_layer_metric(children):
    _, _, [_, (record, _), _] = children
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    flat = run.layer_metrics(record["trace"])
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in flat and m["name"] != "trace.overhead"]
    assert not missing
