"""Config-driven experiment runner.

``tangency-lab <command> --config cfg.json [--out dir] [--seed n]`` loads a
JSON experiment description, runs one command (or ``all``) and writes a
deterministic ``report.json`` plus per-command CSV and SVG artifacts into the
output directory.  Exit status: 0 when every enabled assertion passes, 1 when
any fails (the failing names are listed), 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

# The SHA-256 hashlib falls back on without OpenSSL, whose libcrypto it loads.
if _sys.version_info >= (3, 12):
    from _sha2 import sha256
else:
    from _sha256 import sha256

import numpy as np

from . import __version__
from .cases import SIGN_CASES, adaptability, adaptable_count, adaptable_labels, classify_system
from .cascade import count_crossing_arcs, run_cascade
from .errors import (
    ConfigError,
    DomainError,
    InconclusiveError,
    SmallExpandingViolationError,
    TangencyLabError,
)
from .leaves import tangency_order, tangency_samples, unstable_leaf_w
from .model import ModelSystem, tau_bounds, validate
from .moduli import (
    correspondence_points,
    identity_pair,
    intersection_check,
    lemma_constant,
    mismatched_pair,
    modulus_fit,
    order_probe,
    power_fit,
    rescale_pair,
    return_record,
)
from .rects import _UNREALIZED, first_valid_n, fold_rectangles, level_range, scaling_fit
from .reference import make_system
from .returns import _S_GRID, _slope_cone, find_s_n0, slope_grid

COMMANDS = (
    "validate",
    "leaves",
    "rects",
    "slopes",
    "cascade",
    "classify",
    "moduli",
    "conjugacy",
)

_TOLERANCE_DEFAULTS: dict[str, float] = {
    "order": 0.02,
    "coefficient": 0.02,
    "root_ratio": 0.02,
    "dist_exponent": 0.03,
    "width_exponent": 0.05,
    "height_exponent": 0.05,
    "modulus": 0.30,
    "pair_match": 1e-3,
    "s_step": 1e-3,
    "power_fit": 1e-6,
    "lemma_constant": 0.01,
    "band_factor": 1.03,
    "probe_order": 0.02,
}


class ExperimentConfig(NamedTuple):
    """Parsed experiment description; every field has a reference default."""

    system: ModelSystem
    n_range: tuple[int, int]
    eps_grid: tuple[float, ...]
    s_grid: tuple[float, ...]
    tolerances: dict[str, float]
    output_dir: str
    commands: tuple[str, ...]
    seed: int
    sha256: str


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(mapping: dict, allowed, where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _as_float(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number, got {v!r}")
    if not abs(v) <= _sys.float_info.max:  # NaN, infinities, ints beyond the double range
        raise ConfigError(f"{where} must be finite, got {v!r}")
    return float(v)


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    return v


def _as_float_list(v, where: str, min_len: int = 1) -> tuple[float, ...]:
    if not isinstance(v, list) or len(v) < min_len:
        raise ConfigError(f"{where} must be a list of at least {min_len} number(s)")
    return tuple(_as_float(x, f"{where}[{i}]") for i, x in enumerate(v))


def _as_terms(v, where: str) -> tuple[tuple[int, int, float], ...]:
    if not isinstance(v, list):
        raise ConfigError(f"{where} must be a list of [i, j, coef] triples")
    out = []
    for k, item in enumerate(v):
        if not isinstance(item, list) or len(item) != 3:
            raise ConfigError(f"{where}[{k}] must be an [i, j, coef] triple")
        out.append((_as_int(item[0], f"{where}[{k}][0]"), _as_int(item[1], f"{where}[{k}][1]"), _as_float(item[2], f"{where}[{k}][2]")))
    return tuple(out)


def _as_pair(v, where: str) -> tuple[float, float]:
    pair = _as_float_list(v, where, 2)
    if len(pair) != 2:
        raise ConfigError(f"{where} must be a [lo, hi] pair")
    return pair


# Config key -> (make_system keyword, parser); absent keys take make_system's
# defaults, which are the reference system.
_SYSTEM_KEYS = {
    "seed_domain": ("seed_domain", _as_pair),
    "lambda": ("lam", _as_float),
    "mu": ("mu", _as_float),
    "a": ("a", _as_float),
    "b": ("b", _as_float),
    "c": ("c", _as_float),
    "d": ("d", _as_float),
    "e": ("e", _as_float),
    "m0": ("m0", _as_int),
    "h1_terms": ("h1_terms", _as_terms),
    "h2_terms": ("h2_terms", _as_terms),
    "seed_coeffs": ("seed_coeffs", _as_float_list),
    "chart_half_width": ("chart_half_width", _as_float),
    "uq_half_width": ("uq_half_width", _as_float),
    "ur_half_width": ("ur_half_width", _as_float),
}


def _parse_system(raw: dict) -> ModelSystem:
    _check_keys(raw, _SYSTEM_KEYS, "system")
    kwargs = {kw: parse(raw[key], f"system.{key}") for key, (kw, parse) in _SYSTEM_KEYS.items() if key in raw}
    try:
        return make_system(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"system parameters rejected: {exc}") from exc


_TOP_KEYS = ("system", "n_range", "eps_grid", "s_grid", "tolerances", "output_dir", "commands", "seed")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config (losslessly: unknown keys
    anywhere are an error, as are nonpositive tolerances)."""
    p = Path(path)
    try:
        raw_bytes = p.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        raw = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, "config")

    system = _parse_system(_require_mapping(raw.get("system", {}), "system"))

    n_raw = raw.get("n_range", [8, 18])
    if not isinstance(n_raw, list) or len(n_raw) != 2:
        raise ConfigError("n_range must be an [n_lo, n_hi] pair")
    n_lo, n_hi = (_as_int(v, "n_range") for v in n_raw)
    if not (1 <= n_lo <= n_hi):
        raise ConfigError(f"n_range must satisfy 1 <= lo <= hi, got [{n_lo}, {n_hi}]")

    eps_grid = _as_float_list(raw.get("eps_grid", [0.02]), "eps_grid")
    if any(not 0.0 < e < 1.0 for e in eps_grid):
        raise ConfigError("every eps in eps_grid must lie in (0, 1)")
    s_grid = _as_float_list(raw.get("s_grid", list(_S_GRID)), "s_grid")
    if any(s <= 0.0 for s in s_grid):
        raise ConfigError("every s in s_grid must be positive")

    tol_raw = _require_mapping(raw.get("tolerances", {}), "tolerances")
    _check_keys(tol_raw, _TOLERANCE_DEFAULTS, "tolerances")
    tolerances = dict(_TOLERANCE_DEFAULTS)
    for key, value in tol_raw.items():
        v = _as_float(value, f"tolerances.{key}")
        if v <= 0.0:
            raise ConfigError(f"tolerances.{key} must be positive, got {v:g}")
        tolerances[key] = v

    commands_raw = raw.get("commands", list(COMMANDS))
    if not isinstance(commands_raw, list) or not commands_raw:
        raise ConfigError("commands must be a nonempty list")
    for cmd in commands_raw:
        if cmd not in COMMANDS:
            raise ConfigError(f"unknown command {cmd!r}; choose from {', '.join(COMMANDS)}")

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a nonempty string")
    seed = _as_int(raw.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")

    return ExperimentConfig(
        system=system,
        n_range=(n_lo, n_hi),
        eps_grid=eps_grid,
        s_grid=s_grid,
        tolerances=tolerances,
        output_dir=output_dir,
        commands=tuple(commands_raw),
        seed=seed,
        sha256=sha256(raw_bytes).hexdigest(),
    )


# ---------------------------------------------------------------------------
# Artifact writers


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _jsonable(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else format(v, "g")
    if isinstance(v, tuple) and hasattr(v, "_fields"):  # a record, which json.dumps would write as a list
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


class Series(NamedTuple):
    """One polyline of a plot; ``slope_label`` is its slope annotation in the legend."""

    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    slope_label: str


class Axes(NamedTuple):
    x_label: str
    y_label: str
    title: str = ""
    y_log: bool = True


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _axis_ticks(lo: float, hi: float, log_scale: bool) -> list[tuple[float, str]]:
    if log_scale:
        k0, k1 = math.ceil(lo - 1e-9), math.floor(hi + 1e-9)
        if k1 < k0:
            return [(lo, f"{10.0**lo:.3g}"), (hi, f"{10.0**hi:.3g}")]
        stride = max(1, (k1 - k0) // 10 + 1)
        return [(float(k), f"1e{k}") for k in range(k0, k1 + 1, stride)]
    return [(float(v), f"{v:.4g}") for v in np.linspace(lo, hi, 6)]


def emit_svg(series, axes: Axes, path: str | Path) -> Path:
    """Write a standalone SVG with one polyline per series and its slope
    annotation in the legend, on a linear x axis.  Every series needs at
    least two points, and log-scaled ordinates must be positive."""
    series = list(series)
    if not series:
        raise DomainError("nothing to plot: no series given")
    us, vs = [], []
    for s in series:
        if len(s.xs) != len(s.ys) or len(s.xs) < 2:
            raise DomainError(f"series {s.label!r} needs at least two (x, y) points")
        ys = np.asarray(s.ys, dtype=float)
        if axes.y_log and (ys <= 0.0).any():
            raise DomainError(f"series {s.label!r} has nonpositive y on a log axis")
        us.append(np.asarray(s.xs, dtype=float))
        vs.append(np.log10(ys) if axes.y_log else ys)

    u0 = min(float(u.min()) for u in us)
    u1 = max(float(u.max()) for u in us)
    v0 = min(float(v.min()) for v in vs)
    v1 = max(float(v.max()) for v in vs)
    if u1 <= u0:
        u0, u1 = u0 - 0.5, u0 + 0.5
    if v1 <= v0:
        v0, v1 = v0 - 0.5, v0 + 0.5
    pad_u, pad_v = 0.04 * (u1 - u0), 0.06 * (v1 - v0)
    u0, u1 = u0 - pad_u, u1 + pad_u
    v0, v1 = v0 - pad_v, v1 + pad_v

    width, height, ml, mr, mt, mb = 720, 520, 76, 24, 40, 58
    px = lambda u: ml + (u - u0) / (u1 - u0) * (width - ml - mr)
    py = lambda v: height - mb - (v - v0) / (v1 - v0) * (height - mt - mb)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if axes.title:
        parts.append(f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="14">{axes.title}</text>')
    for u, label in _axis_ticks(u0 + pad_u, u1 - pad_u, False):
        x = px(u)
        parts.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{height - mb}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - mb + 16}" text-anchor="middle">{label}</text>')
    for v, label in _axis_ticks(v0 + pad_v, v1 - pad_v, axes.y_log):
        y = py(v)
        parts.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{width - mr}" y2="{y:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{ml - 6}" y="{y + 4:.2f}" text-anchor="end">{label}</text>')
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" fill="none" stroke="black"/>'
    )
    parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" text-anchor="middle">{axes.x_label}</text>')
    parts.append(f'<text transform="rotate(-90)" x="{-(mt + height - mb) / 2:.1f}" y="18" text-anchor="middle">{axes.y_label}</text>')

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(float(u)):.2f},{py(float(v)):.2f}" for u, v in zip(us[idx], vs[idx]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 16 * idx
        parts.append(f'<line x1="{width - mr - 208}" y1="{ly - 4}" x2="{width - mr - 186}" y2="{ly - 4}" stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{width - mr - 180}" y="{ly}">{s.label} (slope {s.slope_label})</text>')

    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n")
    return out


# ---------------------------------------------------------------------------
# Commands.  Each returns (results, assertions); assertions are dicts with
# name / passed / detail, and the runner folds them into the exit status.


def _assertion(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _system_for_eps(base: ModelSystem, eps: float) -> ModelSystem:
    return replace(base, saddle=replace(base.saddle, mu=math.copysign(1.0 + eps, base.mu)))


def cmd_validate(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[dict]]:
    rep = validate(cfg.system)
    results = {
        "conditions": [
            {"name": e.name, "passed": e.passed, "measured": e.measured, "detail": e.detail} for e in rep.entries
        ],
        "ok": rep.ok,
    }
    assertions = [_assertion(e.name, e.passed, e.measured) for e in rep.entries]
    return results, assertions


def cmd_leaves(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[dict]]:
    sys = cfg.system
    t = sys.transition
    xs = np.logspace(-4, -2, 9)
    samples = tangency_samples(sys, xs)
    order, coefficient = tangency_order(samples)
    target_coeff = abs(t.c / t.a)

    w_offsets = [math.copysign(v, t.d) for v in np.logspace(-4, -2, 9)]
    rows = [("v", float(x), d_leaf) for x, (_, d_leaf) in zip(xs, samples)]
    rows += [("w", float(s), unstable_leaf_w(sys, float(s))) for s in w_offsets]
    _write_csv(out / "leaves.csv", ("leaf", "offset", "value"), rows)

    tol = cfg.tolerances
    results = {"order": order, "coefficient": coefficient, "coefficient_target": target_coeff}
    assertions = [
        _assertion("tangency_order", abs(order - 3.0) <= tol["order"], f"order={order:.5f}"),
        _assertion(
            "tangency_coefficient",
            abs(coefficient - target_coeff) <= tol["coefficient"] * target_coeff,
            f"coefficient={coefficient:.5f} target={target_coeff:.5f}",
        ),
    ]
    return results, assertions


def cmd_rects(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[dict]]:
    sys = cfg.system
    tol = cfg.tolerances
    sns = list(fold_rectangles(sys, *cfg.n_range))
    ns = [S.n for S in sns]
    if len(ns) < 5:
        raise DomainError(f"need at least five valid levels in n_range, got {ns}")

    rows = [
        (S.n, S.t_minus, S.t_plus, S.t_ext_minus, S.t_ext_plus, S.rect.x_lo, S.rect.x_hi, S.rect.y_lo, S.rect.y_hi, S.width, S.height, S.dist, S.rho)
        for S in sns
    ]
    header = ("n", "t_minus", "t_plus", "t_ext_minus", "t_ext_plus", "x_lo", "x_hi", "y_lo", "y_hi", "width", "height", "dist", "rho")
    _write_csv(out / "rects.csv", header, rows)

    kappa_w, _ = scaling_fit([(S.n, S.width) for S in sns], sys.lam)
    kappa_h, _ = scaling_fit([(S.n, S.height) for S in sns], sys.lam)
    kappa_d, _ = scaling_fit([(S.n, abs(S.dist)) for S in sns], sys.lam)

    t = sys.transition
    root_target = math.sqrt(abs(t.b) * sys.seed.z0 / (3.0 * abs(t.c)))
    root_ratios = [S.t_plus / abs(sys.lam) ** (0.5 * S.n) for S in sns]
    root_dev = max(abs(r - root_target) for r in root_ratios) / root_target

    emit_svg(
        [
            Series("W_n", tuple(float(S.n) for S in sns), tuple(S.width for S in sns), f"{kappa_w:.2f}"),
            Series("H_n", tuple(float(S.n) for S in sns), tuple(S.height for S in sns), f"{kappa_h:.2f}"),
            Series("D_n", tuple(float(S.n) for S in sns), tuple(abs(S.dist) for S in sns), f"{kappa_d:.2f}"),
        ],
        Axes("n", "size", title="fold rectangle scaling", y_log=True),
        out / "rects.svg",
    )

    results = {
        "levels": ns,
        "width_exponent": kappa_w,
        "height_exponent": kappa_h,
        "dist_exponent": kappa_d,
        "root_ratio_target": root_target,
        "root_ratio_max_deviation": root_dev,
    }
    assertions = [
        _assertion("width_exponent", abs(kappa_w - 1.5) <= tol["width_exponent"], f"kappa_W={kappa_w:.4f}"),
        _assertion("height_exponent", abs(kappa_h - 0.5) <= tol["height_exponent"], f"kappa_H={kappa_h:.4f}"),
        _assertion("dist_exponent", abs(kappa_d - 1.0) <= tol["dist_exponent"], f"kappa_D={kappa_d:.4f}"),
        _assertion("root_ratio", root_dev <= tol["root_ratio"], f"max relative deviation {root_dev:.4g}"),
    ]
    return results, assertions


def cmd_slopes(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[dict]]:
    sys = cfg.system
    grid = slope_grid(sys)
    cone, bound = _slope_cone(sys)
    results = {
        "grid": list(grid.shape),
        "violations": grid.violations,
        "max_intermediate_slope": grid.max_intermediate,
        "intermediate_bound": bound,
        "max_returned_slope": grid.max_returned,
        "returned_bound": cone,
    }
    shape = "x".join(map(str, grid.shape))
    assertions = [_assertion("slope_grid", grid.violations == 0, f"{grid.violations} violations on {shape} grid")]

    rows = []
    try:
        search = find_s_n0(sys, cfg.s_grid)
    except TangencyLabError as exc:
        assertions.append(_assertion("slope_search", False, str(exc)))
    else:
        for rep in search.reports:
            rows.append((rep.n, rep.s, rep.j, rep.threshold, rep.max_slope, rep.passed, rep.samples, rep.excluded))
        results["s"] = search.s
        results["n0"] = search.n0
        results["levels"] = list(search.levels)
        assertions.append(
            _assertion(
                "slope_search",
                search.n0 <= sys.n_max and all(r.passed for r in search.reports),
                f"s={search.s:g} n0={search.n0} levels={list(search.levels)}",
            )
        )
    _write_csv(out / "slopes.csv", ("n", "s", "j", "threshold", "max_slope", "passed", "samples", "excluded"), rows)
    return results, assertions


def cmd_cascade(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[dict]]:
    rows = []
    found = None
    for eps in cfg.eps_grid:
        sys_e = _system_for_eps(cfg.system, eps)
        for n in level_range(sys_e, *cfg.n_range):
            try:
                res = run_cascade(sys_e, n)
            except (*_UNREALIZED, SmallExpandingViolationError):
                continue  # no B_1 at this level: no S_n, or it cannot return
            if res.k0 == 0:
                rows.append((eps, n, 0, "", "", "", "", "", "", ""))
                break  # the gate is n-independent, this eps is hopeless
            try:
                arcs = [count_crossing_arcs(sys_e, n, box) for box in res.boxes]
            except InconclusiveError:
                arcs = None
            for k in range(res.k0):
                u = res.u_exponents[k] if k < len(res.u_exponents) else ""
                logs = (res.log_heights[k] / math.log(10.0), res.log_dists[k] / math.log(10.0))
                rows.append((eps, n, k + 1, res.widths[k], res.heights[k], res.dists[k], u, arcs[k] if arcs is not None else "", *logs))
            good = res.k0 >= 2 and not res.violations and arcs is not None and all(a == 3 for a in arcs)
            if good and found is None:
                found = {
                    "eps": eps,
                    "n": n,
                    "k0": res.k0,
                    "u_exponents": list(res.u_exponents),
                    "widths": list(res.widths),
                    "heights": list(res.heights),
                    "dists": list(res.dists),
                    "crossing_arcs": arcs,
                }
                break
        if found is not None:
            break
    header = ("eps", "n", "k", "width", "height", "dist", "u", "crossing_arcs", "log10_height", "log10_dist")
    _write_csv(out / "cascade.csv", header, rows)
    results = {"witness": found}
    detail = (
        f"eps={found['eps']:g} n={found['n']} k0={found['k0']}"
        if found
        else f"no (eps, n) in {list(cfg.eps_grid)} x {list(cfg.n_range)} reached depth 2 cleanly"
    )
    assertions = [_assertion("cascade_depth", found is not None, detail)]
    return results, assertions


def cmd_classify(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[dict]]:
    case, adapt = classify_system(cfg.system)
    rows = []
    for c in SIGN_CASES:
        a = adaptability(c)
        rows.append(
            (c.label, c.family, c.sign_a, c.sign_bc, c.sign_lam, c.sign_mu, a.adaptable, a.n_parity, a.sn_quadrant, a.needs_f_image, a.region or "")
        )
    _write_csv(
        out / "cases.csv",
        ("label", "family", "sign_a", "sign_bc", "sign_lam", "sign_mu", "adaptable", "n_parity", "quadrant", "needs_f_image", "region"),
        rows,
    )
    results = {
        "label": case.label,
        "adaptable": adapt.adaptable,
        "n_parity": adapt.n_parity,
        "quadrant": adapt.sn_quadrant,
        "needs_f_image": adapt.needs_f_image,
        "region": adapt.region,
        "adaptable_labels": adaptable_labels(),
    }
    labels = {c.label for c in SIGN_CASES}
    assertions = [
        _assertion("case_table", len(labels) == 16, f"{len(labels)} distinct labels"),
        _assertion("adaptable_count", adaptable_count() == 9, f"count={adaptable_count()}"),
    ]
    return results, assertions


def _return_levels(cfg: ExperimentConfig, cmd: str) -> list[int]:
    """The levels of n_range the return data is read on; a fit needs six."""
    ns = list(level_range(cfg.system, *cfg.n_range))
    if len(ns) < 6:
        parity = classify_system(cfg.system)[1].n_parity
        raise DomainError(f"{cmd} command needs at least six levels in n_range, got {ns} ({parity} parity)")
    return ns


def cmd_moduli(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[dict]]:
    sys = cfg.system
    tol = cfg.tolerances
    ns = _return_levels(cfg, "moduli")
    records = [return_record(sys, n) for n in ns]
    rho, stderr = modulus_fit(sys, ns)
    target = -math.log(abs(sys.lam)) / math.log(abs(sys.mu))
    s_steps = [
        (records[i + 1].s_n - records[i].s_n) / (ns[i + 1] - ns[i]) for i in range(len(records) - 1)
    ]
    s_dev = max(abs(st - target) for st in s_steps)

    _write_csv(
        out / "moduli.csv",
        ("n", "m_n", "r_x", "x_n", "s_n", "c_n"),
        [(r.n, r.m_n, r.r_n[0], r.x_n[0], r.s_n, r.c_n) for r in records],
    )
    emit_svg(
        [Series("m_n", tuple(float(n) for n in ns), tuple(float(r.m_n) for r in records), f"{rho:.2f}")],
        Axes("n", "return exponent", title="return exponent growth", y_log=False),
        out / "moduli.svg",
    )

    probe = order_probe(sys)
    results = {
        "rho": rho,
        "rho_stderr": stderr,
        "rho_target": target,
        "s_step_max_deviation": s_dev,
        "c_first": records[0].c_n,
        "c_last": records[-1].c_n,
        "probe": {
            "slope": probe.slope,
            "band_lo": probe.band_lo,
            "band_hi": probe.band_hi,
            "band_factor": probe.band_factor,
            "stable": probe.stable,
        },
    }
    assertions = [
        _assertion("modulus", abs(rho - target) <= tol["modulus"], f"rho={rho:.4f} target={target:.4f}"),
        _assertion("s_step", s_dev <= tol["s_step"], f"max |s step - rho| = {s_dev:.3g}"),
        _assertion("probe_order", abs(probe.slope - 3.0) <= tol["probe_order"], f"slope={probe.slope:.4f}"),
        _assertion(
            "probe_band",
            probe.band_factor <= tol["band_factor"] and probe.stable,
            f"band factor {probe.band_factor:.5f}, stable={probe.stable}",
        ),
    ]
    return results, assertions


def cmd_conjugacy(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[dict]]:
    sys = cfg.system
    tol = cfg.tolerances
    ns = _return_levels(cfg, "conjugacy")
    pair_id = identity_pair(sys)
    pair_re = rescale_pair(sys, classify_system(sys)[1].f_power)

    corr_id = correspondence_points(pair_id, ns)
    c_id, tau_id = power_fit(corr_id)
    corr_re = correspondence_points(pair_re, ns)
    c_re, tau_re = power_fit(corr_re)
    c_pred = lemma_constant(pair_re, tau_re)

    rho0, _ = modulus_fit(pair_re.sys_0, ns)
    rho1, _ = modulus_fit(pair_re.sys_1, ns)
    pair_gap = abs(rho1 - rho0) / abs(rho0)

    ns_geom = [S.n for S in fold_rectangles(sys, *cfg.n_range)]
    inter_id = [intersection_check(pair_id, n) for n in ns_geom]
    inter_re = [intersection_check(pair_re, n) for n in ns_geom]

    lam_other = math.copysign(0.5 if abs(abs(sys.lam) - 0.5) > 0.05 else 0.25, sys.lam)
    mism = mismatched_pair(sys, lam_other)
    n_mism = max(first_valid_n(mism.sys_0), first_valid_n(mism.sys_1))
    inter_mism = intersection_check(mism, n_mism)

    corr_by_n = dict(zip(ns, corr_re))
    rows = [(n, *corr_by_n[n], i_id, i_re) for n, i_id, i_re in zip(ns_geom, inter_id, inter_re)]
    _write_csv(out / "conjugacy.csv", ("n", "x_n", "x_n_conjugate", "intersect_identity", "intersect_rescale"), rows)

    results = {
        "identity_fit": {"C": c_id, "tau": tau_id},
        "rescale_fit": {"C": c_re, "tau": tau_re, "C_predicted": c_pred},
        "rho": rho0,
        "rho_conjugate": rho1,
        "intersection_levels": ns_geom,
        "mismatch_level": n_mism,
        "mismatch_intersects": inter_mism,
    }
    assertions = [
        _assertion(
            "identity_fit",
            abs(c_id - 1.0) <= tol["power_fit"] and abs(tau_id - 1.0) <= tol["power_fit"],
            f"C={c_id:.8f} tau={tau_id:.8f}",
        ),
        _assertion(
            "lemma_constant",
            abs(c_re - c_pred) <= tol["lemma_constant"] * abs(c_pred),
            f"C={c_re:.6f} predicted={c_pred:.6f}",
        ),
        _assertion("pair_modulus", pair_gap <= tol["pair_match"], f"relative gap {pair_gap:.3g}"),
        _assertion("intersection_identity", all(inter_id), f"{sum(inter_id)}/{len(inter_id)} levels"),
        _assertion("intersection_rescale", all(inter_re), f"{sum(inter_re)}/{len(inter_re)} levels"),
    ]
    # The mismatched pair has no conjugacy behind it, so neither outcome is
    # guaranteed; report it as a diagnostic instead of asserting.
    return results, assertions


_COMMAND_TABLE = {
    "validate": cmd_validate,
    "leaves": cmd_leaves,
    "rects": cmd_rects,
    "slopes": cmd_slopes,
    "cascade": cmd_cascade,
    "classify": cmd_classify,
    "moduli": cmd_moduli,
    "conjugacy": cmd_conjugacy,
}


def run(config_path: str | Path, command: str, out_dir: str | None = None, seed: int | None = None) -> int:
    """Execute one command (or ``all``) and write artifacts; returns the exit
    status (0 pass, 1 assertion failures, 2 config error)."""
    try:
        cfg = load_config(config_path)
        if command != "all" and command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}; choose from {', '.join(COMMANDS + ('all',))}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2

    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    todo = cfg.commands if command == "all" else (command,)

    sections = {}
    failed: list[str] = []
    for cmd in todo:
        try:
            results, assertions = _COMMAND_TABLE[cmd](cfg, out)
        except TangencyLabError as exc:
            results = {"error": str(exc)}
            assertions = [_assertion(f"{cmd}_completed", False, str(exc))]
        sections[cmd] = {"results": _jsonable(results), "assertions": assertions}
        failed.extend(f"{cmd}:{a['name']}" for a in assertions if not a["passed"])

    report = {
        "version": __version__,
        "config_sha256": cfg.sha256,
        "seed": cfg.seed if seed is None else seed,
        "command": command,
        "commands": sections,
        "failed": failed,
        "passed": not failed,
    }
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    for name in failed:
        print(f"FAIL {name}")
    total = sum(len(sec["assertions"]) for sec in sections.values())
    print(f"{total - len(failed)}/{total} assertions passed; report written to {out / 'report.json'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tangency-lab",
        description="numerical laboratory for a cubic homoclinic tangency model",
    )
    parser.add_argument("command", choices=COMMANDS + ("all",), help="experiment to run")
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, default=None, help="seed recorded in the report")
    args = parser.parse_args(argv)
    return run(args.config, args.command, out_dir=args.out, seed=args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
