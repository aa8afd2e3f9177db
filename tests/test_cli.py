import functools
import hashlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import tangencylab as tl
from tangencylab import cascade, cli, moduli, numerics, rects, returns
from tangencylab.cases import SIGN_CASES, classify_system
from tangencylab.cli import Axes, Series, emit_svg, load_config, main, run

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"


@pytest.fixture()
def ref_config(tmp_path):
    dst = tmp_path / "reference.json"
    shutil.copy(CONFIG, dst)
    return dst


def _write(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def test_load_reference_config():
    cfg = load_config(CONFIG)
    assert cfg.system.lam == 0.3
    assert cfg.system.mu == 1.02
    assert cfg.n_range == (8, 18)
    assert tuple(cfg.eps_grid) == (0.02,)
    assert cfg.commands == (
        "validate",
        "leaves",
        "rects",
        "slopes",
        "cascade",
        "classify",
        "moduli",
        "conjugacy",
    )
    # hashlib is the oracle: the package takes its digest from CPython's
    # built-in SHA-256 instead.
    assert cfg.sha256 == hashlib.sha256(CONFIG.read_bytes()).hexdigest()


def test_unknown_keys_rejected(tmp_path):
    p = _write(tmp_path, {"system": {}, "bogus": 1})
    with pytest.raises(tl.ConfigError):
        load_config(p)
    p2 = _write(tmp_path, {"system": {"lambda": 0.3, "extra": 1.0}}, "cfg2.json")
    with pytest.raises(tl.ConfigError):
        load_config(p2)


def test_bad_values_rejected(tmp_path):
    with pytest.raises(tl.ConfigError):
        load_config(_write(tmp_path, {"n_range": [5]}))
    with pytest.raises(tl.ConfigError):
        load_config(_write(tmp_path, {"n_range": [9, 3]}, "a.json"))
    with pytest.raises(tl.ConfigError):
        load_config(_write(tmp_path, {"eps_grid": [1.5]}, "b.json"))
    with pytest.raises(tl.ConfigError):
        load_config(_write(tmp_path, {"tolerances": {"order": -1.0}}, "c.json"))
    with pytest.raises(tl.ConfigError):
        load_config(_write(tmp_path, {"tolerances": {"nope": 0.1}}, "d.json"))
    with pytest.raises(tl.ConfigError):
        load_config(_write(tmp_path, {"commands": ["fly"]}, "e.json"))


@pytest.mark.parametrize(
    ("payload", "key"),
    [
        ({"tolerances": {"order": float("inf")}}, "tolerances.order"),
        ({"s_grid": [float("nan")]}, "s_grid[0]"),
        ({"system": {"seed_coeffs": [float("nan")]}}, "system.seed_coeffs[0]"),
        ({"system": {"chart_half_width": float("inf")}}, "system.chart_half_width"),
        ({"system": {"h1_terms": [[2, 1, float("nan")]]}}, "system.h1_terms[0][2]"),
        ({"system": {"mu": 10**400}}, "system.mu"),
    ],
)
def test_non_finite_numbers_exit_two(tmp_path, capsys, payload, key):
    # json.loads reads NaN and Infinity; the config names the key instead of
    # letting a comparison with NaN pass silently.
    assert run(_write(tmp_path, payload), "validate", out_dir=str(tmp_path / "out")) == 2
    assert f"config error: {key} must be finite" in capsys.readouterr().err


def test_empty_system_is_the_reference_system(tmp_path):
    assert load_config(_write(tmp_path, {"system": {}})).system == tl.make_system()


def test_validate_command_passes(ref_config, tmp_path):
    out = tmp_path / "out"
    assert run(ref_config, "validate", out_dir=str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["failed"] == []
    assert rep["command"] == "validate"
    assert rep["config_sha256"] == hashlib.sha256(ref_config.read_bytes()).hexdigest()


def test_degenerate_system_exits_one(tmp_path):
    raw = json.loads(CONFIG.read_text())
    raw["system"]["b"] = 0.0
    p = _write(tmp_path, raw)
    out = tmp_path / "out"
    assert run(p, "validate", out_dir=str(out)) == 1
    rep = json.loads((out / "report.json").read_text())
    assert "validate:EX1" in rep["failed"]


def test_malformed_config_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert run(p, "validate") == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_command_exits_two(ref_config):
    assert run(ref_config, "frobnicate") == 2


def test_main_argv_roundtrip(ref_config, tmp_path):
    out = tmp_path / "cli_out"
    code = main(["classify", "--config", str(ref_config), "--out", str(out), "--seed", "7"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["seed"] == 7
    assert (out / "cases.csv").exists()


def test_rects_negative_lambda_uses_even_levels(tmp_path):
    # lam < 0 has a tangency pair only at even n; the odd levels are skipped
    raw = json.loads(CONFIG.read_text())
    raw["system"]["lambda"] = -0.3
    out = tmp_path / "out"
    assert run(_write(tmp_path, raw), "rects", out_dir=str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    section = rep["commands"]["rects"]
    assert section["results"]["levels"] == [8, 10, 12, 14, 16, 18]
    assert [a["name"] for a in section["assertions"]] == ["width_exponent", "height_exponent", "dist_exponent", "root_ratio"]
    assert all(a["passed"] for a in section["assertions"])


# tangency-lab all on the reference jet with the signs of a, b (c = 1), lambda
# and mu flipped: label -> (exit code, passed/total, failed assertions)
_LATE = " cascade:cascade_completed moduli:moduli_completed conjugacy:conjugacy_completed"
_NO_FOLD = "validate:sign_case rects:rects_completed"
_SIGN_SWEEP = {
    "I_{++}": (1, "14/20", _NO_FOLD + " slopes:slope_search" + _LATE),
    "I_{+-}": (1, "13/19", _NO_FOLD + " slopes:slopes_completed" + _LATE),
    "I_{-+}": (1, "18/23", "validate:sign_case slopes:slope_search" + _LATE),
    "I_{--}": (1, "18/22", "slopes:slopes_completed" + _LATE),
    "II_{++}": (0, "30/30", ""),
    "II_{+-}": (1, "18/22", "slopes:slopes_completed" + _LATE),
    "II_{-+}": (0, "30/30", ""),
    "II_{--}": (1, "18/22", "slopes:slopes_completed" + _LATE),
    "III_{++}": (1, "14/20", _NO_FOLD + " slopes:slope_search" + _LATE),
    "III_{+-}": (1, "13/19", _NO_FOLD + " slopes:slopes_completed" + _LATE),
    "III_{-+}": (1, "21/23", "moduli:moduli_completed conjugacy:conjugacy_completed"),
    "III_{--}": (1, "18/22", "slopes:slopes_completed" + _LATE),
    "IV_{++}": (1, "16/22", "validate:tau_upper validate:sign_case slopes:slopes_completed" + _LATE),
    "IV_{+-}": (1, "17/22", "validate:tau_upper slopes:slopes_completed" + _LATE),
    "IV_{-+}": (1, "16/22", "validate:tau_upper validate:sign_case slopes:slopes_completed" + _LATE),
    "IV_{--}": (1, "17/22", "validate:tau_upper slopes:slopes_completed" + _LATE),
}


@pytest.mark.parametrize("case", SIGN_CASES, ids=lambda case: case.label)
def test_sign_sweep(case, tmp_path):
    raw = json.loads(CONFIG.read_text())
    system = raw["system"]
    system["a"] = case.sign_a * abs(system["a"])
    system["b"] = case.sign_bc * abs(system["b"])
    system["c"] = 1.0
    system["lambda"] = case.sign_lam * abs(system["lambda"])
    system["mu"] = case.sign_mu * abs(system["mu"])
    out = tmp_path / "out"
    code = run(_write(tmp_path, raw), "all", out_dir=str(out))
    rep = json.loads((out / "report.json").read_text())
    total = sum(len(sec["assertions"]) for sec in rep["commands"].values())
    want_code, want_score, want_failed = _SIGN_SWEEP[case.label]
    assert (code, f"{total - len(rep['failed'])}/{total}", rep["failed"]) == (want_code, want_score, want_failed.split())


def test_tilted_seed_all_run(tmp_path):
    # seed_coeffs [0.5, 0.15]: every S_n of the conjugacy pairs builds.
    # moduli:s_step still compares the finite-n steps of a curved seed with
    # the flat-seed limit rho.
    raw = json.loads(CONFIG.read_text())
    raw["system"]["seed_coeffs"] = [0.5, 0.15]
    out = tmp_path / "out"
    code = run(_write(tmp_path, raw), "all", out_dir=str(out))
    rep = json.loads((out / "report.json").read_text())
    assert (code, rep["failed"]) == (1, ["moduli:s_step"])


def test_quartic_jet_all_run(tmp_path):
    # H1 term 2.0 x^4: 28 of 30 assertions pass.  Level 1 has no real
    # tangency pair (X' has no zero below t = 0), and the level walkers skip
    # it like the levels 2-4 whose tangencies leave the arc window, so the
    # slope search starts at level 5.  The two failures are the tangency
    # coefficient (1.046 against the cubic's |c/a| = 1) and the order
    # probe's band.
    raw = json.loads(CONFIG.read_text())
    raw["system"]["h1_terms"] = [[4, 0, 2.0]]
    out = tmp_path / "out"
    code = run(_write(tmp_path, raw), "all", out_dir=str(out))
    rep = json.loads((out / "report.json").read_text())
    total = sum(len(sec["assertions"]) for sec in rep["commands"].values())
    assert (code, total - len(rep["failed"]), total) == (1, 28, 30)
    assert rep["failed"] == ["leaves:tangency_coefficient", "moduli:probe_band"]
    assert rep["commands"]["slopes"]["results"]["levels"] == [5, 6, 7]


def test_quartic_jet_from_level_1_all_run(tmp_path):
    # The same jet over levels 1-18: level 1 has no real tangency pair, and
    # cmd_cascade skips it as fold_rectangles does, instead of failing the
    # whole command on its NoVerticalTangencyError.  The cascade's witness is
    # level 12; rects' root ratio fails on the wider level range.
    raw = json.loads(CONFIG.read_text())
    raw["system"]["h1_terms"] = [[4, 0, 2.0]]
    raw["n_range"] = [1, 18]
    out = tmp_path / "out"
    code = run(_write(tmp_path, raw), "all", out_dir=str(out))
    rep = json.loads((out / "report.json").read_text())
    total = sum(len(sec["assertions"]) for sec in rep["commands"].values())
    assert (code, total - len(rep["failed"]), total) == (1, 27, 30)
    assert rep["failed"] == ["leaves:tangency_coefficient", "rects:root_ratio", "moduli:probe_band"]
    witness = rep["commands"]["cascade"]["results"]["witness"]
    assert (witness["n"], witness["k0"], witness["crossing_arcs"]) == (12, 2, [3, 3])
    levels = [line.split(",")[1] for line in (out / "cascade.csv").read_text().splitlines()[1:]]
    assert levels[0] == "5"


def test_cascade_skips_levels_whose_b1_cannot_return(bench_workloads, tmp_path):
    # Sweep seed 15, instance 0: at levels 8 and 9 a corner of f^i_n(S_n)
    # misses R_eps ("f^407(S_8) corner (1.01021, 4.99691e-165) misses the
    # return rectangle"), so those levels have no B_1.  cmd_cascade skips
    # them as it skips levels whose S_n leaves the window, and finds its
    # witness at level 18; only the tangency coefficient fails.
    raw = json.loads(CONFIG.read_text())
    instance = bench_workloads.sweep_instances(15)[0]
    raw["system"]["seed_coeffs"] = [instance.pop("z0")] + raw["system"]["seed_coeffs"][1:]
    raw["system"].update(instance)
    out = tmp_path / "out"
    code = run(_write(tmp_path, raw), "all", out_dir=str(out))
    rep = json.loads((out / "report.json").read_text())
    total = sum(len(sec["assertions"]) for sec in rep["commands"].values())
    assert (code, total - len(rep["failed"]), total) == (1, 29, 30)
    assert rep["failed"] == ["leaves:tangency_coefficient"]
    witness = rep["commands"]["cascade"]["results"]["witness"]
    assert (witness["n"], witness["k0"], witness["crossing_arcs"]) == (18, 2, [3, 3])
    levels = [line.split(",")[1] for line in (out / "cascade.csv").read_text().splitlines()[1:]]
    assert levels[0] == "10"


def test_reference_run_work_counts(ref_config, tmp_path, monkeypatch):
    # One reference all run from empty caches: the fold polynomials leave
    # 127 fold_point calls, those of build_sn and of the 22 arc tips that
    # pick_rn keeps (193 while pick_rn recomputed each tip, 8,221 with 255
    # sampled curve points per S_n, 1,386 while jn_slope_check evaluated its
    # 600 samples one by one; the array path recomputes 1 sample near a side
    # of S_n), and no Newton solve falls back to bisection.  The cascade
    # makes 96 edge evaluations, the box vertices and the 48 of its
    # inversions, and 116 word applications (594 and 1,208 while the edge
    # and crossing-arc samplers took their points one by one; 1,408
    # evaluations while build_b1 sampled both B_1 edges) and inverts only the
    # 24 cuts of its steps, and the slope grid builds the 2 scalar frames of
    # its maxima: both screens settle the rest.
    monkeypatch.setattr(rects, "_SN_CACHE", {})
    monkeypatch.setattr(rects, "_FOLD_CACHE", {})
    monkeypatch.setattr(moduli, "_RN_CACHE", {})
    counts = {"fold_point": 0, "_bisect_or_fail": 0, "eval": 0, "apply": 0, "invert_x": 0, "return_frame": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    fold_point = counted("fold_point", rects.fold_point)
    for module in (rects, returns, cascade, moduli):
        monkeypatch.setattr(module, "fold_point", fold_point)
    monkeypatch.setattr(numerics, "_bisect_or_fail", counted("_bisect_or_fail", numerics._bisect_or_fail))
    for name in ("eval", "invert_x"):
        monkeypatch.setattr(cascade.CurveHandle, name, counted(name, getattr(cascade.CurveHandle, name)))
    monkeypatch.setattr(cascade.MapWord, "apply", counted("apply", cascade.MapWord.apply))
    monkeypatch.setattr(returns, "return_frame", counted("return_frame", returns.return_frame))
    assert run(ref_config, "all", out_dir=str(tmp_path / "out")) == 0
    assert 0 < counts["fold_point"] <= 127
    assert counts["_bisect_or_fail"] == 0
    assert counts["eval"] <= 96
    assert counts["apply"] <= 116
    assert (counts["invert_x"], counts["return_frame"]) == (24, 2)


def test_reference_run_root_polish_work(ref_config, tmp_path, monkeypatch):
    # One reference all run from empty caches: the Horner passes and
    # Polynomial evaluations of the root searches, by caller, with build_sn's
    # count of the zeros of X', and _branch_y_at's own evaluations: 1,466 in
    # all.  Isolating roots by Sturm chains took 2,303: vertical_params 1,244
    # (the even X' searched twice), extended_params 447, _branch_y_at 340,
    # build_sn 208 and _first_crossing 64.  _first_crossing's six searches
    # span the arc window, where X - target has X's two tangencies as
    # critical points; isolating between them polishes those two zeros of X',
    # and the zero of X'' that separates them, on every search: 189
    # evaluations where one Sturm interval needed 64.  Polishing each root by _bisect from its
    # isolating interval, and X''s two zeros only to count them, took 7,971.
    monkeypatch.setattr(rects, "_SN_CACHE", {})
    monkeypatch.setattr(rects, "_FOLD_CACHE", {})
    counts, inside = Counter(), []

    def within(label, fn, *args):
        inside.append(label)
        try:
            return fn(*args)
        finally:
            inside.pop()

    def evaluation(fn):
        def wrapper(*args):
            if inside:
                counts[inside[-1]] += 1
            return fn(*args)

        return wrapper

    real_roots, root_count = numerics.real_roots, rects.root_count
    monkeypatch.setattr(numerics.Polynomial, "__call__", evaluation(numerics.Polynomial.__call__))
    monkeypatch.setattr(numerics, "_horner", evaluation(numerics._horner))
    for module in (rects, returns):
        monkeypatch.setattr(module, "real_roots", lambda *args: within(sys._getframe(1).f_code.co_name, real_roots, *args))
    monkeypatch.setattr(moduli, "_branch_y_at", functools.partial(within, "_branch_y_at", moduli._branch_y_at))
    monkeypatch.setattr(rects, "root_count", functools.partial(within, "build_sn", root_count))
    assert run(ref_config, "all", out_dir=str(tmp_path / "out")) == 0
    assert dict(counts) == {
        "vertical_params": 555,
        "build_sn": 159,
        "_branch_y_at": 340,
        "extended_params": 223,
        "_first_crossing": 189,
    }


def test_reference_run_apply_linear_work(ref_config, tmp_path, monkeypatch):
    # One reference all run from empty caches makes 422 apply_linear calls
    # and computes 22 return records.  It made 642 and 44 while modulus_fit
    # and the conjugacy pairs recomputed the records and arc tips that the
    # moduli command had made, and _offset_gain carried each sample's point
    # and slope through the linear atom after a word's last phi atom.
    for module, name in ((rects, "_SN_CACHE"), (rects, "_FOLD_CACHE"), (moduli, "_RN_CACHE"), (moduli, "_RECORD_CACHE")):
        monkeypatch.setattr(module, name, {})
    monkeypatch.setattr(tl.model, "_TAU_CACHE", {})
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    apply_linear = counted("apply_linear", tl.model.apply_linear)
    for module in (tl.model, cascade, moduli, rects, returns):
        if hasattr(module, "apply_linear"):
            monkeypatch.setattr(module, "apply_linear", apply_linear)
    monkeypatch.setattr(moduli, "return_exponent", counted("return_exponent", moduli.return_exponent))
    assert run(ref_config, "all", out_dir=str(tmp_path / "out")) == 0
    assert counts["apply_linear"] <= 430
    assert counts["return_exponent"] == len(moduli._RECORD_CACHE) == 22


def test_reference_run_images_work(ref_config, tmp_path, monkeypatch):
    # One reference all run from empty caches makes 15 MapWord.images calls
    # and no scalar fallback: a box's top, bottom and delta share one word,
    # and so do the three fold branches of count_crossing_arcs, so each
    # cascade scan, edge slope, crossing band and set of first branch
    # samples takes one array pass.  It made 36 while every handle and
    # every branch took its own.
    for module, name in ((rects, "_SN_CACHE"), (rects, "_FOLD_CACHE"), (moduli, "_RN_CACHE"), (moduli, "_RECORD_CACHE")):
        monkeypatch.setattr(module, name, {})
    monkeypatch.setattr(tl.model, "_TAU_CACHE", {})
    results, images = [], cascade.MapWord.images
    monkeypatch.setattr(cascade.MapWord, "images", lambda *args: results.append(images(*args)) or results[-1])
    assert run(ref_config, "all", out_dir=str(tmp_path / "out")) == 0
    assert 0 < len(results) <= 15
    assert None not in results


def test_cascade_evaluates_each_edge_point_once(ref_config, tmp_path, monkeypatch):
    # One reference cascade command evaluates no (handle, s) pair twice
    # outside invert_x (232 pairs repeated before the edge samplers kept
    # their points on the handle): the samplers evaluate their words on
    # arrays, and eval is left with the 48 box vertices of the cascade
    # steps (546 pairs while the samplers read eval).  invert_x's
    # points are left out.
    seen, inside = Counter(), []
    original_eval, original_invert = cascade.CurveHandle.eval, cascade.CurveHandle.invert_x

    def counted_eval(self, sys, s):
        if not inside:
            seen[self, s] += 1
        return original_eval(self, sys, s)

    def counted_invert(self, sys, x):
        inside.append(x)
        try:
            return original_invert(self, sys, x)
        finally:
            inside.pop()

    monkeypatch.setattr(cascade.CurveHandle, "eval", counted_eval)
    monkeypatch.setattr(cascade.CurveHandle, "invert_x", counted_invert)
    results, _ = cli.cmd_cascade(load_config(ref_config), tmp_path)
    assert results["witness"]["n"] == 12
    assert len(seen) == 48
    assert [key for key, count in seen.items() if count > 1] == []


def test_mismatched_pair_keeps_the_sign_case(tmp_path, monkeypatch):
    # the non-conjugate system of the conjugacy diagnostics differs from the
    # configured one in |lambda| only, so it stays in the same sign case
    pairs = []
    original = cli.mismatched_pair

    def spy(sys, lam_other):
        pairs.append(original(sys, lam_other))
        return pairs[-1]

    monkeypatch.setattr(cli, "mismatched_pair", spy)
    raw = json.loads(CONFIG.read_text())
    raw["system"]["lambda"] = -0.3
    run(_write(tmp_path, raw), "conjugacy", out_dir=str(tmp_path / "out"))
    (pair,) = pairs
    labels = {classify_system(s)[0].label for s in (pair.sys_0, pair.sys_1)}
    assert labels == {"II_{-+}"}


def test_return_levels_error_names_the_parity(tmp_path):
    # III_{-+} realizes the odd levels only: five of them in 8..18
    raw = json.loads(CONFIG.read_text())
    raw["system"].update({"a": -1.0, "b": 1.0, "lambda": -0.3})
    out = tmp_path / "out"
    assert run(_write(tmp_path, raw), "moduli", out_dir=str(out)) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["commands"]["moduli"]["results"]["error"] == (
        "moduli command needs at least six levels in n_range, got [9, 11, 13, 15, 17] (odd parity)"
    )


def test_rects_artifacts(ref_config, tmp_path):
    out = tmp_path / "out"
    assert run(ref_config, "rects", out_dir=str(out)) == 0
    lines = (out / "rects.csv").read_text().splitlines()
    assert lines[0].startswith("n,t_minus,t_plus,")
    assert len(lines) == 1 + 11  # header + n = 8..18
    svg = (out / "rects.svg").read_text()
    assert svg.startswith("<?xml")
    assert "<polyline" in svg
    assert "slope" in svg


def test_report_is_deterministic(ref_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(ref_config, "all", out_dir=str(out_a)) == 0
    assert run(ref_config, "all", out_dir=str(out_b)) == 0
    for f in sorted(out_a.iterdir()):
        assert (out_b / f.name).read_bytes() == f.read_bytes()


def test_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tangencylab.cli", "validate", "--config", str(CONFIG), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=str(CONFIG.parent.parent),
    )
    assert proc.returncode == 0
    assert "assertions passed" in proc.stdout


# Run in a fresh interpreter: the top-level packages a reference all run
# imports beyond the standard library and tangencylab itself, then the
# OpenSSL-backed hash modules loaded by the end of the run.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
from tangencylab.cli import run
run(sys.argv[1], "all", out_dir=sys.argv[2])
imported = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(imported - set(sys.stdlib_module_names) - {"tangencylab"}))
print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
"""


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(CONFIG), str(tmp_path_factory.mktemp("probe") / "out")],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()[-2:]


def test_all_run_imports_no_third_party_module_but_numpy(import_probe):
    # pyproject declares numpy as the only runtime dependency; scipy and
    # sympy may be installed too, so a stray import would otherwise pass.
    assert import_probe[0] == "['numpy']"


def test_all_run_loads_no_openssl_hash_module(import_probe):
    # hashlib always loads OpenSSL's libcrypto, about 3.6 MB of peak RSS,
    # for the one digest of a config.
    assert import_probe[1] == "[]"


def test_all_run_calls_no_lapack_least_squares(ref_config, tmp_path, monkeypatch):
    # Every fit is numerics.line_fit's closed form: the first LAPACK least
    # squares call would allocate OpenBLAS workspace, about 1.3 MB of peak RSS.
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert run(ref_config, "all", out_dir=str(tmp_path / "out")) == 0


def test_svg_rejects_degenerate_series(tmp_path):
    with pytest.raises(tl.DomainError):
        emit_svg([], Axes("x", "y"), tmp_path / "empty.svg")
    with pytest.raises(tl.DomainError):
        emit_svg(
            [Series("one", [1.0], [2.0], "1.00")],
            Axes("x", "y"),
            tmp_path / "point.svg",
        )


def test_svg_draws_each_series(tmp_path):
    series = [
        Series("first", [1.0, 2.0, 3.0], [10.0, 100.0, 1000.0], "1.00"),
        Series("second", [1.0, 2.0, 3.0], [2.0, 4.0, 8.0], "0.30"),
    ]
    path = emit_svg(series, Axes("n", "value"), tmp_path / "two.svg")
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "first (slope 1.00)" in text and "second (slope 0.30)" in text
