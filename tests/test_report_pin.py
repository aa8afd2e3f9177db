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


def _check_workload(bench_workloads, workload, seed, tmp_path):
    """(attempted, failed, mismatches, failed assertions) of one workload
    iteration, its configs run in this process as a benchmark child runs
    them and checked as the benchmark checks them."""
    configs = bench_workloads.make_configs(workload, seed, ROOT)
    summaries = []
    for i, config in enumerate(configs):
        path, out = tmp_path / f"config{i}.json", tmp_path / f"out{i}"
        path.write_bytes(bench_workloads.config_bytes(dict(config, output_dir=str(out))))
        run(path, "all")
        summaries.append(bench_workloads.summarize(json.loads((out / "report.json").read_text())))
    failures = [(i, f"{cmd}:{name}") for i, summary in enumerate(summaries) for cmd, sec in summary.items() for name, passed in sec["assertions"] if not passed]
    return (*bench_workloads.check_outputs(workload, configs, summaries), failures)


@pytest.mark.parametrize("workload", ["reference-all", "geometry", "instance-sweep"])
def test_workload_reports_pass_the_benchmark_check(bench_workloads, workload, tmp_path):
    # Each workload's configs at seed 0, run in this process as a benchmark
    # child runs them, through the check that counts its failed operations:
    # the pins of reference-all and geometry, the closed forms of the sweep
    # and every CLI assertion.
    attempted, failed, mismatches, _ = _check_workload(bench_workloads, workload, 0, tmp_path)
    assert attempted > 0
    assert (failed, mismatches) == (0, [])


# The failed CLI assertions of instance-sweep seeds 0-9, per (instance,
# assertion): the benchmark counts each as a failed operation, so a change
# that moves one reads as more (or fewer) failures on that seed.
_SWEEP_FAILURES = {
    2: [(0, "leaves:tangency_coefficient"), (0, "validate:tau_upper")],
    7: [(0, "leaves:tangency_coefficient")],
    8: [(1, "leaves:tangency_coefficient")],
    9: [(1, "leaves:tangency_coefficient")],
}


def test_sweep_outcomes_are_pinned_on_seeds_0_to_9(bench_workloads, tmp_path):
    # (attempted, failed) of the instance-sweep check on each seed 0-9: 76
    # operations, every closed-form check passing, and only the pinned CLI
    # assertions failing.
    for seed in range(10):
        (tmp_path / str(seed)).mkdir()
        attempted, failed, mismatches, failures = _check_workload(bench_workloads, "instance-sweep", seed, tmp_path / str(seed))
        want = _SWEEP_FAILURES.get(seed, [])
        assert (attempted, failed, mismatches, sorted(failures)) == (76, len(want), [], want), seed
