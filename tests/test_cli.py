import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tangencylab as tl
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
    assert len(cfg.sha256) == 64


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


def test_validate_command_passes(ref_config, tmp_path):
    out = tmp_path / "out"
    assert run(ref_config, "validate", out_dir=str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["failed"] == []
    assert rep["command"] == "validate"
    assert len(rep["config_sha256"]) == 64


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


def test_svg_rejects_degenerate_series(tmp_path):
    with pytest.raises(tl.DomainError):
        emit_svg([], Axes("x", "y"), tmp_path / "empty.svg")
    with pytest.raises(tl.DomainError):
        emit_svg(
            [Series("one", [1.0], [2.0])],
            Axes("x", "y"),
            tmp_path / "point.svg",
        )


def test_svg_draws_each_series(tmp_path):
    series = [
        Series("first", [1.0, 2.0, 4.0], [1.0, 8.0, 64.0]),
        Series("second", [1.0, 2.0, 4.0], [2.0, 4.0, 8.0]),
    ]
    path = emit_svg(series, Axes("n", "value", x_log=True), tmp_path / "two.svg")
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "first" in text and "second" in text
