"""The reference ``all`` report against the values the benchmark pins, so an
output drift fails the unit tests and not only ``benchmarks/run.py``."""

import json
import shutil
from pathlib import Path

from tangencylab.cli import run

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


def test_reference_report_matches_the_benchmark_pin(bench_workloads, tmp_path):
    config = tmp_path / "reference.json"
    shutil.copy(CONFIG, config)
    assert run(config, "all", out_dir=str(tmp_path / "out")) == 0
    summary = bench_workloads.summarize(json.loads((tmp_path / "out" / "report.json").read_text()))
    pinned = bench_workloads.pinned_commands("reference-all")
    assert sorted(summary) == sorted(pinned)
    for command, want in pinned.items():
        assert bench_workloads.values_match(summary[command], want, command) == []
