"""What the linear chart decides without sampling: the level edges of B_1,
the slope-free part of the return and the slope grid's array screen.  Each
shortcut must give the bits of the path it replaces, and the operation
counts keep the real work visible."""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import tangencylab as tl
from tangencylab import cli, returns
from tangencylab.cases import SIGN_CASES
from tangencylab.cascade import CurveHandle, MapWord, _fiber_metrics, _lobatto, box_metrics, build_b1
from tangencylab.rects import level_range
from tangencylab.returns import ReturnFrame, SlopeGrid, _rescale_slope, _screen, _u0_image, return_frame, slope_through_return

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


def test_slope_grid_decides_few_cells_in_scalars(tmp_path, monkeypatch):
    # The screen settles the reference grid except the cells of the two
    # maxima: 2 scalar frames (6 transports) when measured, against 1,024
    # (3,072) for the scalar loop over every cell.
    frames = _count_calls(monkeypatch, returns, "return_frame")
    transports = _count_calls(monkeypatch, ReturnFrame, "transport")
    cfg = cli.load_config(ROOT / "configs" / "reference.json")
    results, _ = cli.cmd_slopes(cfg, tmp_path)
    assert results["grid"] == [32, 32, 3]
    assert 1 <= len(frames) <= 4
    assert len(transports) == 3 * len(frames)


def _config(raw, root, name):
    path = root / f"{name}.json"
    path.write_text(json.dumps(raw))
    return cli.load_config(path)


# Held-out jets beside the benchmark's: higher-order terms, and a strongly
# expanding chart whose grid has 1,312 slope-lemma counterexamples.
_HELD_OUT = {
    "H1 x^2y": {"h1_terms": [[2, 1, 0.5]]},
    "H1 x^4": {"h1_terms": [[4, 0, 2.0]]},
    "H2 x^2": {"h2_terms": [[2, 0, 1.0]]},
    "wide": {"lambda": 0.7, "mu": 1.13, "a": 2.4, "b": 0.2, "c": 0.015, "d": 1.6, "e": 0.55, "uq_half_width": 1.5, "chart_half_width": 3.0},
}


@pytest.fixture(scope="module")
def grid_configs(bench_workloads, tmp_path_factory):
    """label -> config: the reference, both instances of sweep seeds 0-20,
    the 16 sign cases of the reference jet (as test_cli's sign sweep builds
    them) and the held-out jets."""
    root = tmp_path_factory.mktemp("grids")
    base = json.loads((ROOT / "configs" / "reference.json").read_text())
    configs = {"reference": cli.load_config(ROOT / "configs" / "reference.json")}
    for seed in range(21):
        for i, raw in enumerate(bench_workloads.make_configs("instance-sweep", seed, ROOT)):
            configs[f"sweep {seed}.{i}"] = _config(raw, root, f"sweep{seed}.{i}")
    for case in SIGN_CASES:
        system = dict(base["system"], c=1.0)
        for key, sign in (("a", case.sign_a), ("b", case.sign_bc), ("lambda", case.sign_lam), ("mu", case.sign_mu)):
            system[key] = sign * abs(base["system"][key])
        configs[case.label] = _config(dict(base, system=system), root, f"case{len(configs)}")
    for label, changes in _HELD_OUT.items():
        configs[label] = _config(dict(base, system=dict(base["system"], **changes)), root, f"jet{len(configs)}")
    return configs


def _grid_points(sys):
    rect = tl.return_rectangle(sys.epsilon)
    return [(float(x), float(y)) for x in np.linspace(rect.x_lo, rect.x_hi, 32) for y in np.linspace(rect.y_lo, rect.y_hi, 32)]


@pytest.fixture(scope="module")
def scalar_frames(grid_configs):
    """label -> the scalar return_frame of every grid cell, or its error."""
    frames = {}
    for label, cfg in grid_configs.items():
        frames[label] = []
        for point in _grid_points(cfg.system):
            try:
                frames[label].append(return_frame(cfg.system, point))
            except tl.TangencyLabError as exc:
                frames[label].append(exc)
    return frames


def _scalar_slope_grid(sys, frames):
    # the grid loop as cmd_slopes ran it before the screen: every cell in
    # grid order, the first error propagating
    cap = sys.epsilon**2.5
    violations = 0
    worst_intermediate = worst_returned = 0.0
    for frame in frames:
        if isinstance(frame, Exception):
            raise frame
        for slope in (0.0, 0.5 * cap, cap):
            try:
                intermediate, returned = frame.transport(sys, slope)
            except tl.SlopeLemmaCounterexample:
                violations += 1
                continue
            worst_intermediate = max(worst_intermediate, intermediate)
            worst_returned = max(worst_returned, returned.slope)
    return SlopeGrid((32, 32, 3), violations, worst_intermediate, worst_returned)


def _slopes_outcome(cfg, out):
    # cmd_slopes' report section, or its error, exactly as report.json holds it
    try:
        return json.dumps(cli.cmd_slopes(cfg, out), sort_keys=True)
    except tl.TangencyLabError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_cmd_slopes_equals_the_scalar_loop(grid_configs, scalar_frames, tmp_path, monkeypatch):
    # the cap search after the grid is the same code in both runs: search once
    monkeypatch.setattr(cli, "find_s_n0", functools.cache(cli.find_s_n0))
    got = {label: _slopes_outcome(cfg, tmp_path) for label, cfg in grid_configs.items()}
    want = {}
    for label, cfg in grid_configs.items():
        monkeypatch.setattr(cli, "slope_grid", lambda sys, frames=scalar_frames[label]: _scalar_slope_grid(sys, frames))
        want[label] = _slopes_outcome(cfg, tmp_path)
    assert got == want
    # the comparison covers counterexamples, underflowed maxima and errors
    assert '"violations": 1312' in got["wide"]
    assert '"max_returned_slope": 0.0,' in got["sweep 0.1"]
    assert got["IV_{--}"].startswith("NotFoundError: no iterate places")
    assert got["IV_{++}"].startswith("WrongQuadrantError: phi image abscissa")


def _log(values):
    # natural logs by libm, as the scalar path takes them
    return np.array([math.log(v) for v in np.ravel(values)]).reshape(np.shape(values))


def test_screen_gap_stays_below_the_margin(grid_configs, scalar_frames):
    # Every cell the screen settles returns exactly when its scalar frame
    # does, with the same exponent, and the screened values are within the
    # margin over the stated factor of the scalar ones.
    gaps = []
    for label, cfg in grid_configs.items():
        sys = cfg.system
        sc = _screen(sys)
        points = _grid_points(sys)
        frames = scalar_frames[label]
        returned = np.array([not isinstance(f, Exception) for f in frames])
        assert (sc.returns == returned)[~sc.near].all(), label
        in_uq = np.array([sys.in_uq(p) for p in points]) & ~sc.near
        zx = np.array([tl.apply_phi(sys, p)[0] for p, inside in zip(points, in_uq) if inside])
        gaps.append(np.abs(sc.zx[in_uq] - zx) / sc.zx_scale[in_uq])
        settled = returned & ~sc.near
        kept = [f for f, ok in zip(frames, settled) if ok]
        if not kept:
            continue
        k = np.array([f.k for f in kept])
        assert (sc.k[settled] == k).all(), label
        x, y = np.array([f.returned_point for f in kept]).T
        gaps.append(np.abs(sc.log_x[settled] - _log(x)))
        normal = np.abs(y) >= 2.3e-308  # a normal double's log carries all its digits
        gaps.append(np.abs(sc.log_y[settled][normal] - _log(np.abs(y[normal]))))
        # transport's arithmetic, elementwise on the scalar Jacobians
        jac = np.array([f.jac for f in kept])
        s = np.array(sc.slopes)
        log_inter = _log(np.abs((jac[:, 1, :1] + jac[:, 1, 1:] * s) / (jac[:, 0, :1] + jac[:, 0, 1:] * s)))
        gaps.append(np.abs(sc.log_inter[settled] - log_inter).ravel())
        log_ratio = math.log(abs(sys.lam)) - math.log(abs(sys.mu))
        gaps.append(np.abs(sc.log_returned[settled] - (log_inter + k[:, None] * log_ratio)).ravel())
    gaps = np.concatenate(gaps)
    assert gaps.size > 60 * 1024
    assert 0.0 < gaps.max() < returns._SCREEN_DELTA / returns._SCREEN_FACTOR
