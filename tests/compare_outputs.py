"""Run ``tangency-lab all`` on one fixed config set in two checkouts and
diff every output.

    python3 tests/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT [WORK_DIR]

Each config is written once to WORK_DIR/configs, without ``output_dir``,
and run in each checkout (its ``src`` on PYTHONPATH) from WORK_DIR/<side>
with ``--out <name>``, so the report paths printed on stdout agree.  Every
output file, stdout, stderr and the exit code are compared byte for byte.
The script prints each config that differs and what differs, and exits 1
when any does.  WORK_DIR defaults to a new temporary directory, which is
kept for inspection.

The set, generated from this file's checkout: the reference config and the
benchmark's ``geometry`` config, both instances of instance-sweep seeds
0-40, the 16 sign cases of the reference jet, the held-out jets of
test_closed_forms' ``grid_configs``, H1 2.0 x^4 over levels 1-18, b = 0.2,
the seed [0.5, 0.1, -0.05] and the tilted seed [0.5, 0.15].

pytest does not collect this file: its name has no ``test_`` prefix.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def comparison_configs() -> dict[str, dict]:
    """name -> raw config, in a fixed order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from tangencylab import cli
    from tangencylab.cases import SIGN_CASES
    from test_closed_forms import _HELD_OUT, _edge_jets

    workloads = _module(ROOT / "benchmarks" / "workloads.py")
    base = workloads.make_configs("reference-all", 0, ROOT)[0]
    configs = {"reference": base, "geometry": workloads.make_configs("geometry", 0, ROOT)[0]}
    for seed in range(41):
        for i, raw in enumerate(workloads.make_configs("instance-sweep", seed, ROOT)):
            configs[f"sweep{seed}.{i}"] = raw
    for i, case in enumerate(SIGN_CASES):
        system = dict(base["system"], c=1.0)
        for key, sign in (("a", case.sign_a), ("b", case.sign_bc), ("lambda", case.sign_lam), ("mu", case.sign_mu)):
            system[key] = sign * abs(base["system"][key])
        configs[f"case{i}"] = dict(base, system=system)
    reference = cli.load_config(ROOT / "configs" / "reference.json").system
    for i, changes in enumerate(dict(_HELD_OUT, **_edge_jets(reference)).values()):
        configs[f"jet{i}"] = dict(base, system=dict(base["system"], **changes))
    configs["quartic-from-1"] = dict(base, system=dict(base["system"], h1_terms=[[4, 0, 2.0]]), n_range=[1, 18])
    configs["b0.2"] = dict(base, system=dict(base["system"], b=0.2))
    configs["seed-quadratic"] = dict(base, system=dict(base["system"], seed_coeffs=[0.5, 0.1, -0.05]))
    configs["tilted"] = dict(base, system=dict(base["system"], seed_coeffs=[0.5, 0.15]))
    return configs


def _run(checkout: Path, config: Path, side_dir: Path, name: str) -> dict[str, bytes]:
    """Every output of one run: its files, stdout, stderr and exit code."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tangencylab.cli", "all", "--config", str(config), "--out", name],
        cwd=side_dir, env=env, capture_output=True,
    )
    outputs = {"<stdout>": proc.stdout, "<stderr>": proc.stderr, "<exit>": str(proc.returncode).encode()}
    out = side_dir / name
    for path in sorted(out.rglob("*")) if out.is_dir() else ():
        if path.is_file():
            outputs[str(path.relative_to(out))] = path.read_bytes()
    return outputs


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (Path(p).resolve() for p in argv[:2])
    work = Path(argv[2]) if len(argv) == 3 else Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    configs = comparison_configs()
    for sub in ("configs", "old", "new"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    for name, raw in configs.items():
        (work / "configs" / f"{name}.json").write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")

    def compare(name: str) -> list[str]:
        config = work / "configs" / f"{name}.json"
        a, b = (_run(tree, config, work / side, name) for tree, side in ((old, "old"), (new, "new")))
        return [key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]

    with ThreadPoolExecutor(WORKERS) as pool:
        diffs = dict(zip(configs, pool.map(compare, configs)))
    changed = {name: keys for name, keys in diffs.items() if keys}
    for name, keys in changed.items():
        print(f"{name}: {' '.join(keys)}")
    print(f"{len(configs) - len(changed)} of {len(configs)} configs identical; outputs under {work}")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
