"""What the linear chart decides without sampling: the level edges of B_1
and the slope-free part of the return.  Each shortcut must give the bits of
the path it replaces, and the operation counts keep the real work visible."""

import math
from pathlib import Path

import numpy as np
import pytest

import tangencylab as tl
from tangencylab import cli
from tangencylab.cascade import CurveHandle, MapWord, _fiber_metrics, _lobatto, box_metrics, build_b1
from tangencylab.rects import level_range
from tangencylab.returns import ReturnFrame, _rescale_slope, _u0_image, return_frame, slope_through_return

ROOT = Path(__file__).resolve().parents[1]


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.fixture(scope="module")
def sweep0_systems(bench_workloads, tmp_path_factory):
    # both instances of the instance-sweep workload at seed 0, loaded the way
    # the benchmark hands them to the CLI
    root = tmp_path_factory.mktemp("sweep0")
    systems = []
    for i, config in enumerate(bench_workloads.make_configs("instance-sweep", 0, ROOT)):
        path = root / f"config{i}.json"
        path.write_bytes(bench_workloads.config_bytes(config))
        systems.append(cli.load_config(path))
    return systems


def _b1_boxes(sys, n_range):
    return [build_b1(sys, tl.build_sn(sys, n)) for n in level_range(sys, *n_range)]


def test_level_fibers_equal_the_inverted_fibers(ref, sweep0_systems, monkeypatch):
    # The closed form against the 33 + 2 x 33 fibers that invert_x finds on
    # every edge, bit for bit, on levels 8-18 of three systems.
    cases = [(ref, box) for box in _b1_boxes(ref, (8, 18))]
    for cfg in sweep0_systems:
        cases += [(cfg.system, box) for box in _b1_boxes(cfg.system, cfg.n_range)]
    assert len(cases) == 33
    closed = [_fiber_metrics(sys, box) for sys, box in cases]
    monkeypatch.setattr(CurveHandle, "level_y", lambda self, sys: None)
    explicit = [_fiber_metrics(sys, box) for sys, box in cases]
    assert [_bits(c) for c in closed] == [_bits(e) for e in explicit]
    # the comparison covers normal, subnormal and underflowed heights
    heights = [c[0] for c in closed]
    assert min(h for h in heights if h > 0.0) < 2.3e-308 < max(heights)
    assert 0.0 in heights


def test_level_y_is_the_ordinate_eval_gives(ref, sn10):
    box = build_b1(ref, sn10)
    for handle in (box.top, box.bottom, box.delta):
        ys = [handle.eval(ref, float(s))[1] for s in _lobatto(handle.s_lo, handle.s_hi, 9)]
        assert _bits(ys) == _bits([handle.level_y(ref)] * 9)
    # a -0.0 base ordinate becomes +0.0 in base_point, and so in level_y
    flat = CurveHandle((0.5, -0.0), (1.5, -0.0), MapWord((("linear", 0),)))
    assert _bits([flat.level_y(ref)]) == _bits([flat.eval(ref, 0.5)[1]]) == _bits([0.0])


def test_level_y_needs_a_horizontal_base_and_linear_atoms(ref, sn10):
    box = build_b1(ref, sn10)
    assert box.top.extended_word(("phi",)).level_y(ref) is None
    assert box.top.extended_word(("phi",), ("linear", 3)).level_y(ref) is None
    sloped = CurveHandle(box.top.start, (box.top.end[0], box.top.end[1] + 1e-9), box.word)
    assert sloped.level_y(ref) is None
    assert box.top.level_y(ref) is not None


def test_level_edges_have_slope_zero(ref, sn10, monkeypatch):
    box = build_b1(ref, sn10)
    skipped = tl.max_edge_slope(ref, box)
    monkeypatch.setattr(CurveHandle, "level_y", lambda self, sys: None)
    assert _bits([skipped]) == _bits([tl.max_edge_slope(ref, box)]) == _bits([0.0])


def test_frozen_b1_levels_8_and_9(ref):
    # recorded before the closed form: the only reference levels whose B_1
    # heights and distances are still above the double range's floor
    expected = {
        8: (1.3583348964210243e-276, 1.0201303613399645e-274),
        9: (9.461587790473467e-309, 1.3012416428100062e-306),
    }
    for n, (height, dist) in expected.items():
        _, h, d = box_metrics(ref, build_b1(ref, tl.build_sn(ref, n)))
        assert h > 0.0 and d > 0.0
        assert h == pytest.approx(height, rel=1e-12, abs=0.0)
        assert d == pytest.approx(dist, rel=1e-12, abs=0.0)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_b1_metrics_invert_nothing(ref, sn10, monkeypatch):
    box = build_b1(ref, sn10)
    inversions = _count_calls(monkeypatch, CurveHandle, "invert_x")
    evaluations = _count_calls(monkeypatch, CurveHandle, "eval")
    box_metrics(ref, box)
    assert len(inversions) == 0
    assert len(evaluations) == 0


def test_phi_box_metrics_budget(ref, cascade12, monkeypatch):
    # B_2 at level 12 is the box whose word passes through phi, so its fibers
    # are still found by inversion: 64 fibers x 3 edges = 192 inversions and
    # 2,249 edge evaluations when measured.
    box = cascade12.boxes[1]
    assert ("phi",) in box.word.atoms
    inversions = _count_calls(monkeypatch, CurveHandle, "invert_x")
    evaluations = _count_calls(monkeypatch, CurveHandle, "eval")
    box_metrics(ref, box)
    assert len(inversions) <= 200
    assert len(evaluations) <= 2_300


def _transported(sys, point, slope):
    # the return of one slope written out from the primitives, as a single
    # function computed it before the point part was split off
    jac = tl.jacobian_phi(sys, point)
    vx = float(jac[0, 0] + jac[0, 1] * slope)
    vy = float(jac[1, 0] + jac[1, 1] * slope)
    intermediate = math.inf if vx == 0.0 else abs(vy / vx)
    k, returned = _u0_image(sys, point)
    return [intermediate, _rescale_slope(sys, intermediate, k), *returned]


def test_transport_equals_the_whole_return(ref):
    # the 32 x 32 x 3 grid of the slopes command, which has no counterexample
    rect = tl.return_rectangle(ref.epsilon)
    cap = ref.epsilon**2.5
    for x in np.linspace(rect.x_lo, rect.x_hi, 32):
        for y in np.linspace(rect.y_lo, rect.y_hi, 32):
            point = (float(x), float(y))
            frame = return_frame(ref, point)
            assert frame.in_rectangle
            for slope in (0.0, 0.5 * cap, cap):
                want = _bits(_transported(ref, point, slope))
                inter, out = slope_through_return(ref, point, slope)
                assert _bits([inter, out.slope, *out.point]) == want
                inter, out = frame.transport(ref, slope)
                assert _bits([inter, out.slope, *out.point]) == want


def test_transport_checks_the_slope(ref):
    frame = return_frame(ref, (ref.mu, 0.0))
    for bad in (math.inf, math.nan, -1e-9):
        with pytest.raises(tl.DomainError):
            frame.transport(ref, bad)


def test_slope_grid_builds_one_frame_per_point(tmp_path, monkeypatch):
    frames = _count_calls(monkeypatch, cli, "return_frame")
    transports = _count_calls(monkeypatch, ReturnFrame, "transport")
    cfg = cli.load_config(ROOT / "configs" / "reference.json")
    results, _ = cli.cmd_slopes(cfg, tmp_path)
    assert results["grid"] == [32, 32, 3]
    assert len(frames) == 32 * 32
    assert len(transports) == 32 * 32 * 3
