import importlib.util
import os
from pathlib import Path

import pytest

import tangencylab as tl

# pyproject's pythonpath puts src/ on this process's path; subprocesses that
# tests start (the CLI entry point) get it through the environment.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def ref():
    return tl.reference_system()


@pytest.fixture(scope="session")
def slow():
    return tl.slow_system()


@pytest.fixture(scope="session")
def tilted():
    return tl.tilted_system()


@pytest.fixture(scope="session")
def sn10(ref):
    return tl.build_sn(ref, 10)


@pytest.fixture(scope="session")
def cascade12(ref):
    return tl.run_cascade(ref, 12)


@pytest.fixture(scope="session")
def slope_search(ref):
    return tl.find_s_n0(ref)


@pytest.fixture(scope="session")
def bench_workloads():
    """benchmarks/workloads.py, read in place: the benchmark's configs and
    its check of a report against the pinned outputs."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
