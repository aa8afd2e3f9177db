"""What the linear chart decides without sampling: the level edges of B_1,
the slope-free part of the return, the array screen of the slope grid and
the cascade's box heights in log space.  Each shortcut must give the bits
(or, for the heights, the values) of the path it replaces, and the
operation counts keep the real work visible."""

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tangencylab as tl
from tangencylab import cascade, cli, rects, returns
from tangencylab.cases import SIGN_CASES
from tangencylab.cascade import CurveHandle, MapWord, _lobatto, box_metrics, build_b1
from tangencylab.leaves import arc_height
from tangencylab.model import _MEMBERSHIP_TOL, _phi_parts, _saturated_exp, _small_expansion
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


def _inverted_fibers(sys, box):
    # (largest fiber length, largest gap to delta) over 33 abscissas inside
    # the box, each edge inverted there and evaluated in doubles
    inset = 1e-6 * (box.x_hi - box.x_lo)
    lengths, gaps = [], []
    for x in _lobatto(box.x_lo + inset, box.x_hi - inset, 33):
        y_t, y_b, y_d = (h.eval(sys, h.invert_x(sys, float(x)))[1] for h in (box.top, box.bottom, box.delta))
        lengths.append(abs(y_t - y_b))
        gaps.append(abs(y_b - y_d))
    return max(lengths), max(gaps)


def test_level_fibers_equal_the_inverted_fibers(ref, sweep0_systems):
    # The transported B_1 metrics against the fibers that invert_x finds on
    # every edge, on levels 8-18 of three systems, as far as doubles hold
    # them: within 1e-9 where normal (the inverted fibers subtract two
    # log-space powers and carry errors up to about 5e-12 here), and within
    # a few subnormal units below.
    cases = [(ref, box) for box in _b1_boxes(ref, (8, 18))]
    for cfg in sweep0_systems:
        cases += [(cfg.system, box) for box in _b1_boxes(cfg.system, cfg.n_range)]
    assert len(cases) == 33
    inverted = [_inverted_fibers(sys, box) for sys, box in cases]
    for (sys, box), want in zip(cases, inverted):
        got = [_saturated_exp(v) for v in box_metrics(sys, box)[1:]]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * w + 2e-323, (box, g, w)
    # the comparison covers normal, subnormal and underflowed heights
    heights = [h for h, _ in inverted]
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
    # The only reference levels whose B_1 heights and distances are still
    # above the double range's floor.  The heights are |lam|^(i_n) times
    # S_n's height at 60 digits, from the same doubles; the distances were
    # recorded before the closed form.
    expected = {
        8: (1.3583348964275343e-276, 1.0201303613399645e-274),
        9: (9.461587790493615e-309, 1.3012416428100062e-306),
    }
    for n, (height, dist) in expected.items():
        h, d = map(_saturated_exp, box_metrics(ref, build_b1(ref, tl.build_sn(ref, n)))[1:])
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
    # B_2 at level 12 is the box whose word passes through phi.  Its
    # heights are transported along the word from the base segments, so
    # nothing is inverted or evaluated (192 inversions and 2,249 edge
    # evaluations when every fiber was inverted in scalars).
    box = cascade12.boxes[1]
    assert ("phi",) in box.word.atoms
    inversions = _count_calls(monkeypatch, CurveHandle, "invert_x")
    evaluations = _count_calls(monkeypatch, CurveHandle, "eval")
    box_metrics(ref, box)
    assert len(inversions) == 0
    assert len(evaluations) == 0


def test_cmd_cascade_inverts_only_the_cuts(tmp_path, monkeypatch):
    # One reference cascade command: four cut inversions in each of the
    # cascade steps that reach the cut, 24 in all; box metrics invert
    # nothing.
    inversions = _count_calls(monkeypatch, CurveHandle, "invert_x")
    cli.cmd_cascade(cli.load_config(ROOT / "configs" / "reference.json"), tmp_path)
    assert len(inversions) <= 24


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
    for label, changes in dict(_HELD_OUT, **_edge_jets(configs["reference"].system)).items():
        configs[label] = _config(dict(base, system=dict(base["system"], **changes)), root, f"jet{len(configs)}")
    return configs


def _edge_jets(sys):
    """Two held-out jets, each with one slope-grid cell on a decision edge
    of the screen, in closed form.  phi's z_x is linear in a and z_y in e.

    "window end": the top-right cell's z_x is mu^-12 (1+eps)^3, so its
    return exponent is 11 or 12 by the last bits; its returned slope at
    slope 0 is under eps^(5/2) at 12 and over it at 11.
    "R_eps edge": a puts the top-left cell's z_x mid-window at exponent 10,
    and e its returned ordinate on R_eps's top edge eps^3 + tol, then 16
    ulps of e higher, so the scalar return misses R_eps by its last bits.
    The top-left cell has the grid's largest z_y and smallest exponent, so
    no cell misses R_eps before it.
    """
    eps, t = sys.epsilon, sys.transition
    rect = tl.return_rectangle(eps)
    u = 1.0 + eps
    y = rect.y_hi
    lx = rect.x_hi - 1.0
    window_a = (u * u * u / sys.mu**12 - t.b * lx * y - t.c * lx**3) / y
    lx = rect.x_lo - 1.0
    edge_a = (u**2.5 / sys.mu**10 - t.b * lx * y - t.c * lx**3) / y
    edge_e = ((rect.y_hi + 1e-12) / sys.lam**10 - 1.0 - t.d * lx) / y
    return {"window end": {"a": window_a}, "R_eps edge": {"a": edge_a, "e": edge_e + 16 * math.ulp(edge_e)}}


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


def test_edge_jets_put_a_cell_on_the_screen_edges(grid_configs, tmp_path):
    # The held-out edge jets reach the window-end and R_eps margins of the
    # screen, so test_cmd_slopes_equals_the_scalar_loop covers both.
    cfg = grid_configs["window end"]
    u = 1.0 + cfg.system.epsilon
    sc = _screen(cfg.system)
    assert sc.near[-1]
    assert min(abs(sc.log_x[-1] - math.log(end)) for end in (u * u, u * u * u)) <= returns._SCREEN_DELTA
    cfg = grid_configs["R_eps edge"]
    sc = _screen(cfg.system)
    assert sc.near[31]
    assert abs(sc.log_y[31] - math.log(cfg.system.epsilon**3 + 1e-12)) <= returns._SCREEN_DELTA
    assert _slopes_outcome(cfg, tmp_path).startswith("SmallExpandingViolationError: f^10(phi(point))")


def _saturated_jet(sys, k, log_returned):
    """``sys`` with lam = 0.9 and a and d solved so the top-left grid cell
    returns with exponent k and, at slope 0, a returned slope of log
    ``log_returned``.  phi's z_x is linear in a, and at slope 0 the transit
    slope is G_x / F_x = d / (b y + 3 c x^2)."""
    sys = replace(sys, saddle=replace(sys.saddle, lam=0.9))
    t = sys.transition
    rect = tl.return_rectangle(sys.epsilon)
    y, lx = rect.y_hi, rect.x_lo - 1.0
    a = ((1.0 + sys.epsilon) ** 2.5 / sys.mu**k - t.b * lx * y - t.c * lx**3) / y
    log_ratio = math.log(abs(sys.lam)) - math.log(abs(sys.mu))
    d = math.exp(log_returned - k * log_ratio + math.log(abs(t.b * y + 3.0 * t.c * lx**2)))
    return replace(sys, transition=replace(t, a=a, d=d))


@pytest.mark.parametrize("point, k", [(-745.0, 450), (709.0, 2)])
def test_screen_leaves_saturated_returns_to_scalars(ref, point, k):
    # No grid system has a cell near the saturation points of the returned
    # slope.  These jets put the top-left cell's returned log slope on a
    # point, half a margin either side of it and two margins either side:
    # the screen leaves the cell to the scalar path exactly in the first
    # three, where the scalar power may saturate and the screen's log cannot
    # tell.
    delta = returns._SCREEN_DELTA
    for offset, near in ((0.0, True), (-0.5, True), (0.5, True), (-2.0, False), (2.0, False)):
        sc = _screen(_saturated_jet(ref, k, point + offset * delta))
        assert sc.k[31] == k
        assert abs(sc.log_returned[31, 0] - (point + offset * delta)) < 0.01 * delta
        assert sc.near[31] == near, offset


def _scalar_returns(sys, sc, cell):
    try:
        return_frame(sys, (float(sc.x[cell]), float(sc.y[cell])))
    except tl.TangencyLabError:
        return False
    return True


def test_screen_leaves_the_chart_edge_to_scalars(ref):
    # No grid system has a returned abscissa near U(p)'s edge.  These charts
    # put the reach chart_half_width + tol on the top-left cell's returned
    # log-abscissa, half a margin either side of it and two margins either
    # side: the cell goes to scalars exactly in the first three, where the
    # scalar chart exit may go either way (on the edge itself the screen says
    # the orbit leaves U(p) and the scalar return holds).
    delta, cell = returns._SCREEN_DELTA, 31
    log_x = _screen(ref).log_x[cell]
    for offset, near in ((0.0, True), (-0.5, True), (0.5, True), (-2.0, False), (2.0, False)):
        sys = replace(ref, chart_half_width=math.exp(log_x + offset * delta) - _MEMBERSHIP_TOL)
        sc = _screen(sys)
        assert abs(math.log(sys._chart_reach) - (log_x + offset * delta)) < 0.01 * delta
        assert sc.near[cell] == near, offset
        assert near or sc.returns[cell] == _scalar_returns(sys, sc, cell) == (offset > 0.0)


def test_screen_leaves_a_vanishing_z_x_to_scalars(ref):
    # The bottom-left cell (x = 1 + eps, y = 0) has z_x = c lx^3 + h lx^4 with
    # an H1 term h x^4.  These h put z_x on 0, half a margin of the size of
    # its terms either side and two margins either side.  The cell goes to
    # scalars in all but the last: within the margin the screen cannot tell
    # the sign of z_x, and below 0 its log is undefined.  Two margins above 0
    # the screen decides the cell as the scalar return does.
    delta, cell = returns._SCREEN_DELTA, 0
    c = ref.transition.c
    lx = tl.return_rectangle(ref.epsilon).x_lo - 1.0
    for offset, near in ((0.0, True), (-0.5, True), (0.5, True), (-2.0, True), (2.0, False)):
        margin = offset * delta
        h = c * (margin - 1.0) / (lx * (1.0 + margin))  # z_x = margin * (|c| lx^3 + |h| lx^4)
        sys = replace(ref, transition=replace(ref.transition, h1_terms=((4, 0, h),)))
        sc = _screen(sys)
        assert (sc.x[cell] - 1.0, sc.y[cell]) == (lx, 0.0)
        assert abs(sc.zx[cell] - margin * sc.zx_scale[cell]) < 0.01 * delta * sc.zx_scale[cell]
        assert sc.near[cell] == near, offset
        assert near or sc.returns[cell] == _scalar_returns(sys, sc, cell)


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


def _scalar_jn_slope_check(sys, n, s):
    # jn_slope_check as it sampled the branch before the array path: one
    # fold_point and one fold_velocity per sample.  Also returns the branch
    # and the scalar abscissas of its samples.
    threshold = returns._slope_cone(sys)[0]
    beta = returns.beta_arc(sys, n, s)
    max_slope, excluded, xs = 0.0, 0, []
    for t in np.linspace(beta.t_lo, beta.t_hi, returns._JN_SAMPLES):
        p = rects.fold_point(sys, n, float(t))
        xs.append(p[0])
        if beta.s_n_minus <= p[0] <= beta.s_n_plus:
            excluded += 1
            continue
        vx, vy = rects.fold_velocity(sys, n, float(t))
        if vx == 0.0:
            max_slope = returns.VERTICAL
            continue
        max_slope = max(max_slope, _rescale_slope(sys, abs(vy / vx), beta.j))
    report = returns.JnSlopeReport(n, s, beta.j, threshold, max_slope, bool(max_slope <= threshold), returns._JN_SAMPLES, excluded)
    return report, beta, np.array(xs)


def _searched_levels(sys):
    """The levels find_s_n0 tries its caps on; none where it raises first."""
    if not _small_expansion(sys):
        return []
    try:
        levels = [S.n for S in itertools.islice(rects.fold_rectangles(sys, 1, sys.n_max), 3)]
    except tl.TangencyLabError:
        return []
    return levels if len(levels) == 3 else []


def _report_bits(report):
    return tuple(v.hex() if isinstance(v, float) else v for v in tuple(report))


def test_jn_slope_check_equals_the_scalar_loop(grid_configs, tilted):
    # Every cap of _S_GRID on every level find_s_n0 tries, on the grid
    # systems and the tilted seed: the same report bits or the same error.
    # The array abscissas of fold_x are not fold_point's bits (numpy's power
    # does not round like libm's), but their gap, relative to the size of
    # phi's terms, stays far below the margin inside which jn_slope_check
    # recomputes an abscissa by fold_point.
    systems = {label: cfg.system for label, cfg in grid_configs.items()}
    systems["tilted seed"] = tilted
    outcomes, gaps, near = Counter(), [], 0
    for label, sys in systems.items():
        for n in _searched_levels(sys):
            for s in returns._S_GRID:
                try:
                    got = _report_bits(returns.jn_slope_check(sys, n, s))
                except tl.TangencyLabError as exc:
                    got = type(exc).__name__, str(exc)
                try:
                    report, beta, xs = _scalar_jn_slope_check(sys, n, s)
                except tl.TangencyLabError as exc:
                    assert got == (type(exc).__name__, str(exc)), (label, n, s)
                    outcomes[got[0]] += 1
                    continue
                assert got == _report_bits(report), (label, n, s)
                outcomes["passed" if report.passed else "failed"] += 1
                ts = np.linspace(beta.t_lo, beta.t_hi, returns._JN_SAMPLES)
                scale = _phi_parts(returns._absolute(sys), np.abs(ts), np.abs(arc_height(sys, n, ts)))[0]
                gaps.append(np.abs(rects.fold_x(sys, n, ts) - xs) / scale)
                sides = np.minimum(np.abs(xs - beta.s_n_minus), np.abs(xs - beta.s_n_plus))
                near += np.count_nonzero(sides <= returns._SCREEN_DELTA * scale)
    assert 0.0 < np.concatenate(gaps).max() < returns._SCREEN_DELTA / returns._SCREEN_FACTOR
    # the comparison covers both errors of beta_arc and 40 samples that are
    # recomputed by fold_point; every returned branch passes
    assert outcomes == {"passed": 770, "WrongQuadrantError": 90, "NotFoundError": 25}
    assert near == 40


def test_jn_slope_check_recomputes_abscissas_at_the_sides_of_s_n(ref, monkeypatch):
    # On reference level 7, cap 0.2, the fold_x abscissa of a sample is not
    # fold_point's double.  With S_n's lower side moved onto the larger of
    # the two, they fall on either side of it, and the report is still the
    # scalar loop's: the sample is recomputed by fold_point.
    n, s = 7, 0.2
    beta = returns.beta_arc(ref, n, s)
    ts = np.linspace(beta.t_lo, beta.t_hi, returns._JN_SAMPLES)
    array = rects.fold_x(ref, n, ts)
    scalar = np.array([rects.fold_point(ref, n, float(t))[0] for t in ts])
    i = np.flatnonzero(array != scalar)[0]
    moved = beta._replace(s_n_minus=max(array[i], scalar[i]))
    monkeypatch.setattr(returns, "beta_arc", lambda sys, n, s: moved)
    want = _scalar_jn_slope_check(ref, n, s)[0]
    assert _report_bits(returns.jn_slope_check(ref, n, s)) == _report_bits(want)


@pytest.fixture(scope="module")
def built_b1s(grid_configs):
    """(label, system, box) for every B_1 that run_cascade builds, at every
    level and eps of each grid system, in the order it meets them."""
    built = []
    build_b1 = cascade.build_b1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cascade, "build_b1", lambda sys, sn: built.append((label, sys, build_b1(sys, sn))) or built[-1][2])
        for label, cfg in grid_configs.items():
            for eps in cfg.eps_grid:
                sys = cli._system_for_eps(cfg.system, eps)
                for n in level_range(sys, *cfg.n_range):
                    try:
                        tl.run_cascade(sys, n)
                    except tl.TangencyLabError:
                        pass
    return built


def test_b1_edges_are_x_monotone(built_b1s):
    # build_b1 checks no edge: its word of linear atoms maps x to mu^k x.
    # Both edges of every B_1 that run_cascade builds on the grid systems
    # pass the cut edges' check, on its samples and with its tolerance; in
    # fact no sample steps back at all.
    built = built_b1s
    for label, sys, box in built:
        for handle in (box.top, box.bottom):
            xs = [handle.eval(sys, float(s))[0] for s in _lobatto(handle.s_lo, handle.s_hi, cascade._SAMPLES)]
            assert xs[-1] - xs[0] != 0.0 and cascade._x_monotone(xs), label
            assert (np.diff(xs) * np.sign(xs[-1] - xs[0]) > 0.0).all(), label
    assert len(built) > 500
    assert {label.split()[0] for label, _, _ in built} >= {"reference", "sweep", "H1", "H2", "II_{++}", "II_{-+}"}
