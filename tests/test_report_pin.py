"""The ``all`` reports against the benchmark's output check, so an output
drift fails the unit tests and not only ``benchmarks/run.py``."""

import json
import shutil
from pathlib import Path

import pytest

from tangencylab.cli import run

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "reference.json"


def test_reference_report_matches_the_benchmark_pin(bench_workloads, tmp_path):
    config = tmp_path / "reference.json"
    shutil.copy(CONFIG, config)
    assert run(config, "all", out_dir=str(tmp_path / "out")) == 0
    summary = bench_workloads.summarize(json.loads((tmp_path / "out" / "report.json").read_text()))
    pinned = bench_workloads.pinned_commands("reference-all")
    assert sorted(summary) == sorted(pinned)
    for command, want in pinned.items():
        assert bench_workloads.values_match(summary[command], want, command) == []


@pytest.mark.parametrize("workload", ["reference-all", "geometry", "instance-sweep"])
def test_workload_reports_pass_the_benchmark_check(bench_workloads, workload, tmp_path):
    # Each workload's configs at seed 0, run in this process as a benchmark
    # child runs them, through the check that counts its failed operations:
    # the pins of reference-all and geometry, the closed forms of the sweep
    # and every CLI assertion.
    configs = bench_workloads.make_configs(workload, 0, ROOT)
    summaries = []
    for i, config in enumerate(configs):
        path, out = tmp_path / f"config{i}.json", tmp_path / f"out{i}"
        path.write_bytes(bench_workloads.config_bytes(dict(config, output_dir=str(out))))
        run(path, "all")
        summaries.append(bench_workloads.summarize(json.loads((out / "report.json").read_text())))
    attempted, failed, mismatches = bench_workloads.check_outputs(workload, configs, summaries)
    assert attempted > 0
    assert (failed, mismatches) == (0, [])
