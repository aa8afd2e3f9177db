"""Workload inputs and output checks for the tangency-lab benchmark.

Each workload is a list of experiment configs that one benchmark child runs
with ``tangency-lab all``.  The configs are generated here from the checkout's
``configs/reference.json`` and, for ``instance-sweep``, from the workload
seed; the program only ever sees the generated files.

Why these workloads:

* ``reference-all`` is the headline run behind the README and the paper's
  numbers; every module takes part and most of the time goes through
  ``returns.slope_through_return`` into ``model.chart_exit_index``.
* ``geometry`` is the same system without ``slopes``.  Its work is curve
  sampling and inversion (``cascade``, ``rects``, ``leaves``, ``moduli``),
  and ``model.apply_linear`` runs inside deep map words rather than along
  long scalar orbits, so a change that helps one use and costs the other
  shows up on one of the two workloads.
* ``instance-sweep`` runs seeded II++ instances (a > 0, b*c < 0, lam > 0,
  mu > 0) drawn around the reference.  It is the only workload whose inputs
  depend on the seed, so it is the held-out check on gains tuned to the
  reference constants or to caches keyed on them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("reference-all", "geometry", "instance-sweep")
# Workloads whose inputs do not depend on the seed have pinned outputs in
# expected/; the instance sweep is checked against closed forms instead.
PINNED = ("reference-all", "geometry")

GEOMETRY_COMMANDS = ["rects", "cascade", "moduli", "conjugacy"]

# Draw ranges of the instance sweep, with the reference signs b < 0, d < 0.
SWEEP_RANGES = {
    "lambda": (0.25, 0.4),
    "mu": (1.01, 1.03),
    "z0": (0.3, 0.8),
    "a": (0.7, 1.5),
    "b": (0.7, 1.5),
    "c": (0.7, 1.5),
    "d": (0.7, 1.5),
}
SWEEP_SIGNS = {"b": -1.0, "d": -1.0}

# Relative and absolute tolerance of the pinned-value check.  The tightest
# assertion tolerance of the lab's configs is 1e-6 (``power_fit``).
PIN_REL_TOL = 1e-9
PIN_ABS_TOL = 1e-12

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def reference_config(root: Path) -> dict:
    return json.loads((root / "configs" / "reference.json").read_text())


def sweep_instances(seed: int) -> list[dict]:
    """One antithetic pair of II++ instances drawn from ``seed``.

    Each parameter of the second instance mirrors the first one's position
    in its range.  For ``mu`` the mirrored quantity is 1/ln(mu), which sets
    the orbit length and with it most of the work, so every pair has the
    same total orbit length and the sweep's run time compares across seeds
    while the instances themselves change with the seed.
    """
    rng = random.Random(seed)
    draws = {name: rng.random() for name in SWEEP_RANGES}
    w_lo, w_hi = (1.0 / math.log(mu) for mu in SWEEP_RANGES["mu"])
    pair = []
    for mirrored in (False, True):
        sys = {}
        for name, (lo, hi) in SWEEP_RANGES.items():
            u = 1.0 - draws[name] if mirrored else draws[name]
            if name == "mu":
                value = math.exp(1.0 / (w_lo + u * (w_hi - w_lo)))
            else:
                value = SWEEP_SIGNS.get(name, 1.0) * (lo + u * (hi - lo))
            sys[name] = round(value, 9)
        pair.append(sys)
    return pair


def make_configs(workload: str, seed: int, root: Path) -> list[dict]:
    """The experiment configs of one workload iteration, without
    ``output_dir`` (the caller points it at a temporary directory)."""
    base = reference_config(root)
    base.pop("output_dir", None)
    if workload == "reference-all":
        return [base]
    if workload == "geometry":
        return [dict(base, commands=GEOMETRY_COMMANDS)]
    if workload == "instance-sweep":
        configs = []
        for inst in sweep_instances(seed):
            system = dict(base["system"])
            z0 = inst.pop("z0")
            system.update(inst)
            system["seed_coeffs"] = [z0] + list(system.get("seed_coeffs", [0.5]))[1:]
            configs.append(dict(base, system=system))
        return configs
    raise ValueError(f"unknown workload {workload!r}")


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, sort_keys=True, indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# Output checks.  One check per command of each report: it passes when the
# command's assertion names and pass flags and its ``results`` match what is
# expected.


def pinned_commands(workload: str) -> dict | None:
    """Pinned ``{command: {"assertions": [[name, passed]], "results": ...}}``
    for a workload with seed-independent inputs, else None."""
    if workload not in PINNED:
        return None
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())["commands"]


def summarize(report: dict) -> dict:
    """The parts of a report that the pinned check compares: the recorded
    ``seed`` and ``config_sha256`` are left out."""
    return {
        cmd: {
            "assertions": [[a["name"], a["passed"]] for a in sec["assertions"]],
            "results": sec["results"],
        }
        for cmd, sec in report["commands"].items()
    }


def values_match(got, want, path: str = "") -> list[str]:
    """Differences between two JSON values; floats compare within the pin
    tolerance, everything else exactly."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) <= PIN_ABS_TOL + PIN_REL_TOL * max(abs(got), abs(want)):
            return []
        return [f"{path}: got {got!r}, want {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in sorted(want) for d in values_match(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in values_match(g, w, f"{path}[{i}]")]
    if type(got) is not type(want) or got != want:
        return [f"{path}: got {got!r}, want {want!r}"]
    return []


def closed_form_checks(config: dict, summary: dict) -> dict[str, list[str]]:
    """Per command, the results that follow from the config in closed form,
    recomputed here; used where no pinned values exist."""
    s = config["system"]
    lam, mu, a, b, c = s["lambda"], s["mu"], s["a"], s["b"], s["c"]
    eps = abs(mu) - 1.0
    expected = {
        "leaves": {"coefficient_target": abs(c / a)},
        "rects": {"root_ratio_target": math.sqrt(abs(b) * s["seed_coeffs"][0] / (3.0 * abs(c)))},
        "slopes": {"intermediate_bound": eps**-2.5, "returned_bound": eps**2.5},
        "moduli": {"rho_target": -math.log(abs(lam)) / math.log(abs(mu))},
        "classify": {"label": "II_{++}", "adaptable": True},
    }
    diffs = {}
    for cmd, sec in summary.items():
        results = sec["results"]
        diffs[cmd] = []
        if "error" in results:
            continue  # the command raised; its <cmd>_completed assertion failed
        for key, want in expected.get(cmd, {}).items():
            diffs[cmd] += values_match(results.get(key), want, f"{cmd}.{key}")
    return diffs


def check_outputs(
    workload: str, configs: list[dict], summaries: list[dict], baseline: list[dict] | None = None
) -> tuple[int, int, list[str]]:
    """Count the operations of one child: every CLI assertion, plus one
    output check per command.  A command's check also fails when its report
    differs from ``baseline``, the first child of the run, so traced and
    untraced children must agree exactly.  Returns (attempted, failed,
    mismatches)."""
    pinned = pinned_commands(workload)
    attempted = failed = 0
    mismatches: list[str] = []
    for i, (config, summary) in enumerate(zip(configs, summaries)):
        for sec in summary.values():
            attempted += len(sec["assertions"])
            failed += sum(1 for _, passed in sec["assertions"] if not passed)
        if pinned is not None:
            if set(summary) != set(pinned):
                diffs = {"commands": [f"commands {sorted(summary)} != {sorted(pinned)}"]}
            else:
                diffs = {cmd: values_match(summary[cmd], pinned[cmd], cmd) for cmd in pinned}
        else:
            diffs = closed_form_checks(config, summary)
        if baseline is not None:
            for cmd in diffs:
                if summary[cmd] != baseline[i].get(cmd):
                    diffs[cmd] = diffs[cmd] + [f"{cmd}: differs from the first child of the run"]
        for cmd, d in diffs.items():
            attempted += 1
            if d:
                failed += 1
                mismatches += [f"instance {i}: {line}" for line in d]
    return attempted, failed, mismatches
