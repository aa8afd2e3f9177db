"""Run ``tangency-lab all`` on one fixed config set in two checkouts and
diff every output.

    python3 tests/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT [WORK_DIR]

Each config is written once to WORK_DIR/configs, without ``output_dir``,
and run in each checkout (its ``src`` on PYTHONPATH) from WORK_DIR/<side>
with ``--out <name>``, so the report paths printed on stdout agree.  The
old side runs with PYTHONHASHSEED=1 and the new side with 2: string hashes
differ between the sides but are fixed on each, so output that depends on
the order of a set of strings shows on every comparison, not by chance.
Every output file, stdout, stderr and the exit code are
compared byte for byte.
The script prints each config that differs and what differs, and exits 1
when any does.  WORK_DIR defaults to a new temporary directory, which is
kept for inspection.

Inside a differing CSV or JSON file, each differing cell or leaf is printed
with its column or key path and, where both sides are finite numbers, their
distance in ulps (units in the last place, counted between the two
doubles) and their relative difference |old - new| / max(|old|, |new|);
any other difference (text, a flag, a changed shape) is printed as "text".
The relative difference ranks a move to or from 0.0 as 1, where the ulp
distance counts every double in between (4.6e18 from 0.0 to 1.0).  A drift
table closes the output: one row per file and column or key (list indices
dropped) with the count of differing values and the largest distance and
relative difference, and one row per file with its largest ones.

The set, generated from this file's checkout: the reference config and the
benchmark's ``geometry`` config, both instances of instance-sweep seeds
0-40, the 16 sign cases of the reference jet, the held-out jets of
test_closed_forms' ``grid_configs``, H1 2.0 x^4 over levels 1-18, b = 0.2,
the seed [0.5, 0.1, -0.05] and the tilted seed [0.5, 0.15].

pytest does not collect this file: its name has no ``test_`` prefix.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import os
import re
import struct
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


# String hash seed of each side's runs.
HASH_SEEDS = {"old": "1", "new": "2"}


def _run(checkout: Path, config: Path, side_dir: Path, name: str) -> dict[str, bytes]:
    """Every output of one run: its files, stdout, stderr and exit code."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED=HASH_SEEDS[side_dir.name])
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


def _ulps(a, b) -> int | None:
    """Distance in ulps between two finite numbers (0.0 and -0.0 coincide),
    None when either is not a finite number."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in (a, b)):
        return None

    def ordered(v: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", float(v)))[0]
        return bits if bits >= 0 else -(2**63) - bits

    return abs(ordered(a) - ordered(b))


def _relative(a, b) -> float | None:
    """|a - b| / max(|a|, |b|) between two finite numbers (0.0 when both are
    zero), None when either is not a finite number.  A move to or from 0.0
    reads 1, where its ulp distance counts every double in between
    (4.6e18 from 0.0 to 1.0)."""
    if _ulps(a, b) is None:
        return None
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_cells(data: bytes) -> dict[str, object]:
    """``column[row]`` -> cell value (a float where it parses as one)."""
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return {f"{col}[{i}]": _number(v) for i, row in enumerate(rows) for col, v in row.items()}


def _json_leaves(node, path: str = "") -> dict[str, object]:
    """key path -> leaf value; lists index their items as ``[i]``."""
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node}
    out = {path: type(node).__name__} if not node else {}
    for key, value in items:
        out.update(_json_leaves(value, key))
    return out


def value_diffs(name: str, old: bytes | None, new: bytes | None) -> list[tuple[str, object, object, int | None]]:
    """(cell or key path, old value, new value, ulps or None) for each value
    that differs inside the CSV or JSON file ``name``; one whole-file entry
    for any other file or for a file on one side only."""
    if old is None or new is None or not name.endswith((".csv", ".json")):
        return [("<file>", None, None, None)]
    parse = _csv_cells if name.endswith(".csv") else lambda data: _json_leaves(json.loads(data))
    a, b = parse(old), parse(new)
    return [(key, a.get(key), b.get(key), _ulps(a.get(key), b.get(key))) for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def drift_table(rows: list[tuple[str, str, int | None, float | None]]) -> list[str]:
    """Lines of the drift table over (file, key path, ulps, relative
    difference) rows."""
    groups: dict[tuple[str, str], list[tuple[int | None, float | None]]] = {}
    for file, key, ulps, rel in rows:
        groups.setdefault((file, re.sub(r"\[\d+\]", "[]", key)), []).append((ulps, rel))

    def worst(values: list[tuple[int | None, float | None]]) -> str:
        if any(ulps is None for ulps, _ in values):
            return f"{'text':>8} {'text':>9}"
        return f"{max(ulps for ulps, _ in values):>8} {max(rel for _, rel in values):>9.3g}"

    lines = [f"{'file':<14} {'column or key':<60} {'values':>6} {'max ulps':>8} {'max rel':>9}"]
    lines += [f"{file:<14} {key:<60} {len(v):>6} {worst(v)}" for (file, key), v in sorted(groups.items())]
    for file in sorted({file for file, _ in groups}):
        values = [u for (f, _), v in groups.items() if f == file for u in v]
        lines.append(f"{file:<14} {'(whole file)':<60} {len(values):>6} {worst(values)}")
    return lines


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

    def compare(name: str) -> dict[str, list]:
        config = work / "configs" / f"{name}.json"
        a, b = (_run(tree, config, work / side, name) for tree, side in ((old, "old"), (new, "new")))
        return {key: value_diffs(key, a.get(key), b.get(key)) for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)}

    with ThreadPoolExecutor(WORKERS) as pool:
        diffs = dict(zip(configs, pool.map(compare, configs)))
    changed = {name: files for name, files in diffs.items() if files}
    rows = []
    for name, files in changed.items():
        print(f"{name}: {' '.join(files)}")
        for file, values in files.items():
            for key, a, b, ulps in values:
                rel = _relative(a, b)
                shift = "differs" if key == "<file>" else f"{a!r} -> {b!r} ({'text' if ulps is None else f'{ulps} ulps, relative {rel:.3g}'})"
                print(f"  {file} {key}: {shift}")
                rows.append((file, key, ulps, rel))
    if rows:
        print("\n".join(drift_table(rows)))
    print(f"{len(configs) - len(changed)} of {len(configs)} configs identical; outputs under {work}")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
