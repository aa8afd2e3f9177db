import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tangencylab as tl
from tangencylab import cascade, cli
from tangencylab.cascade import _SAMPLES, _lobatto, box_metrics, build_b1, cascade_step, max_edge_slope
from tangencylab.leaves import SeedArc, t_window
from tangencylab.model import _MEMBERSHIP_TOL
from tangencylab.rects import fold_point, level_range
from tangencylab.returns import _slope_cone, i_n

ROOT = Path(__file__).resolve().parents[1]


def test_first_box_matches_fold_geometry(ref, sn10):
    b1 = build_b1(ref, sn10)
    w, log_h, log_dist = box_metrics(ref, b1)
    assert w == pytest.approx(0.0013764572352941151, rel=1e-10)
    # every y coordinate of B_1 is lam^{i_n} * O(1), far below double range,
    # so its height and distance are |lam|^{i_n} times S_n's, in log space
    log_lam = i_n(ref, 10) * math.log(abs(ref.lam))
    assert log_h == pytest.approx(log_lam + math.log(sn10.rect.height), rel=1e-15)
    assert log_dist == pytest.approx(log_lam + math.log(sn10.rect.y_lo), rel=1e-15)
    assert log_h < log_dist < -745.0


def test_cascade_level_12_frozen(cascade12):
    assert cascade12.k0 == 2
    assert cascade12.u_exponents == (459,)
    assert cascade12.widths[0] == pytest.approx(0.00041624347835145237, rel=1e-10)
    assert cascade12.widths[1] == pytest.approx(0.02651806934129186, rel=1e-10)
    assert cascade12.heights == (0.0, 0.0)
    assert cascade12.dists == (0.0, 0.0)
    log10 = math.log(10.0)
    assert [h / log10 for h in cascade12.log_heights] == pytest.approx([-403.9722857355648, -641.8483461659071], rel=1e-12)
    assert [d / log10 for d in cascade12.log_dists] == pytest.approx([-401.04825621035394, -638.9243166406962], rel=1e-12)
    assert cascade12.violations == ()


def test_cascade_growth_inequalities(cascade12):
    # the content of the decade checks: widths expand tenfold, the vertical
    # measures shrink by far more than a decade (compared as logs, since
    # their doubles underflow to 0.0)
    for k in range(cascade12.k0 - 1):
        assert cascade12.widths[k + 1] >= 10.0 * cascade12.widths[k]
        assert cascade12.log_heights[k + 1] <= cascade12.log_heights[k] - 100.0 * math.log(10.0)
        assert cascade12.log_dists[k + 1] <= cascade12.log_dists[k] - 100.0 * math.log(10.0)


@pytest.mark.parametrize("n", [14, 16, 18])
def test_cascade_deeper_levels_stay_clean(ref, n):
    res = tl.run_cascade(ref, n)
    assert res.k0 == 2
    assert res.violations == ()
    assert len(res.u_exponents) == 1


def test_cascade_level_10_stops_after_first_box(ref):
    # the level-10 cut image is too wide for the return rectangle, so the
    # cascade ends cleanly after B_1 rather than recording a violation
    res = tl.run_cascade(ref, 10)
    assert res.k0 == 1
    assert res.u_exponents == ()
    assert res.violations == ()


def test_three_crossing_arcs_per_box(ref, cascade12):
    for box in cascade12.boxes[: cascade12.k0 + 1]:
        assert tl.count_crossing_arcs(ref, 12, box) == 3


def test_crossing_arcs_level_10(ref, sn10):
    b1 = build_b1(ref, sn10)
    assert tl.count_crossing_arcs(ref, 10, b1) == 3


def test_cascade_step_geometry(ref):
    b1 = build_b1(ref, tl.build_sn(ref, 12))
    cut, u, b2 = cascade_step(ref, b1)
    # the cut is the transition image of B_1 restricted to the innermost
    # abscissa strip; its image under f^u is the next box, back inside R_eps
    images = [tl.apply_phi(ref, v) for v in b1.vertices(ref)]
    xs = sorted(w[0] for w in images)
    assert cut.x_lo == xs[1]
    assert cut.x_hi == xs[2]
    assert u == 459  # window of the cut's right edge at level 12
    assert b2.k == b1.k + 1
    assert b2.x_lo == pytest.approx(cut.x_lo * ref.mu**u, rel=1e-9)
    assert b2.x_hi == pytest.approx(cut.x_hi * ref.mu**u, rel=1e-9)
    target = tl.return_rectangle(ref.epsilon)
    assert target.x_lo <= b2.x_lo < b2.x_hi <= target.x_hi


def test_edges_stay_shallow(ref, cascade12):
    for box in cascade12.boxes[: cascade12.k0 + 1]:
        assert max_edge_slope(ref, box) <= 1.0


def test_cascade_refuses_wide_expansion():
    # tau_1 * eps is too large at mu = 1.2: the gate yields an empty cascade
    res = tl.run_cascade(tl.wide_expansion_system(), 10)
    assert res.k0 == 0
    assert res.boxes == ()
    assert res.violations == ()


def test_box_metrics_evaluation_budget(ref, monkeypatch):
    # An operation count, so it holds on any hardware: box metrics walk the
    # bottom edge's base points through the word themselves, so no box of
    # the reference cascades at levels 8-18 inverts an edge or evaluates a
    # handle, not even with the level edges' closed form disabled (a B_1
    # took 2,201 evaluations when its fibers were inverted).
    boxes = [box for n in level_range(ref, 8, 18) for box in tl.run_cascade(ref, n).boxes]
    assert {box.k for box in boxes} == {1, 2}
    monkeypatch.setattr(tl.CurveHandle, "level_y", lambda self, sys: None)
    calls = []
    for name in ("eval", "invert_x"):
        original = getattr(tl.CurveHandle, name)
        monkeypatch.setattr(tl.CurveHandle, name, lambda self, *args, _name=name, _original=original: calls.append(_name) or _original(self, *args))
    for box in boxes:
        box_metrics(ref, box)
    assert calls == []


# (n, k) -> box_metrics' (W, ln H, ln L) as float.hex over the reference
# cascades at levels 8-12: a B_1's word is f^(i_n) alone, whose gain is read
# once, and B_2 at level 12 stops its transport at the phi atom.
_BOX_METRICS_HEX = {
    (8, 1): ("0x1.3044ef8235900p-8", "-0x1.3d9a86622a1c5p+9", "-0x1.3b71b699fce52p+9"),
    (9, 1): ("0x1.4ea45ad5cd800p-9", "-0x1.62a032e7e6998p+9", "-0x1.6029f2b6bc4e6p+9"),
    (10, 1): ("0x1.68d47b3d5e800p-10", "-0x1.870bc3a5bd298p+9", "-0x1.84483fba90e88p+9"),
    (11, 1): ("0x1.8cd946b080800p-11", "-0x1.ac11702b79a6cp+9", "-0x1.a900c0e9320a4p+9"),
    (12, 1): ("0x1.b4768206ef000p-12", "-0x1.d1171cb13623ep+9", "-0x1.cdb94f6c7c6e5p+9"),
    (12, 2): ("0x1.b278d824baec0p-6", "-0x1.717a448c50d31p+10", "-0x1.6fcb5de9f3f85p+10"),
}


def test_box_metrics_bits_at_levels_8_to_12(ref):
    got = {(n, box.k): tuple(map(float.hex, box_metrics(ref, box))) for n in level_range(ref, 8, 12) for box in tl.run_cascade(ref, n).boxes}
    assert got == _BOX_METRICS_HEX


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(-1e6, 1e6, allow_nan=False),
    width=st.floats(0.0, 1e6, allow_nan=False),
    count=st.integers(2, 129),
)
@example(lo=1.0213, width=0.0625, count=_SAMPLES)
def test_lobatto_sets_nest_bit_for_bit(lo, width, count):
    # One sample count serves every cascade sampler because the count-point
    # set is the even half of the (2 count - 1)-point set, to the bit: the
    # angles pi j / (count - 1) and pi 2j / (2 count - 2) are one quotient.
    hi = lo + width
    coarse, fine = _lobatto(lo, hi, count), _lobatto(lo, hi, 2 * count - 1)
    assert coarse.view(np.int64).tolist() == fine[::2].view(np.int64).tolist()


# --- the samplers' array path against the scalar one --------------------------


@pytest.fixture(scope="module")
def sampled_cascades(ref, bench_workloads, tmp_path_factory):
    """(systems and boxes, sampled members): every box of the reference
    cascades at levels 8-18 and of both instance-sweep seed 0 systems at
    their configured levels and eps, with each handle's and each branch's
    samples that running and counting their arcs take from ``_edge_points``
    and ``_branch_points``, batched or alone."""
    systems = [ref]
    root = tmp_path_factory.mktemp("sweep0")
    for i, config in enumerate(bench_workloads.make_configs("instance-sweep", 0, ROOT)):
        path = root / f"config{i}.json"
        path.write_bytes(bench_workloads.config_bytes(config))
        cfg = cli.load_config(path)
        systems += [cli._system_for_eps(cfg.system, eps) for eps in cfg.eps_grid]
    boxes, calls = [], []
    edge_points, branch_points = cascade._edge_points, cascade._branch_points

    def recorded(keys, members, size):
        # each member's slice, recorded as the sampler's caller takes it
        for key, pts in zip(keys, members):
            calls.append((*key, pts, size))
            yield pts

    def edges(sys, handles, count=2 * _SAMPLES - 1):
        if isinstance(handles, tl.CurveHandle):
            return next(recorded([("edge", sys, handles, count)], [edge_points(sys, handles, count)], 1))
        return recorded([("edge", sys, h, count) for h in handles], edge_points(sys, handles, count), len(handles))

    def branches(sys, n, word, ts):
        if ts.ndim == 1:
            return next(recorded([("branch", sys, n, word, ts)], [branch_points(sys, n, word, ts)], 1))
        return recorded([("branch", sys, n, word, row) for row in ts], branch_points(sys, n, word, ts), len(ts))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cascade, "_edge_points", edges)
        mp.setattr(cascade, "_branch_points", branches)
        for sys in systems:
            for n in level_range(sys, 8, 18):
                try:
                    res = tl.run_cascade(sys, n)
                except tl.TangencyLabError:
                    continue
                for box in res.boxes:
                    boxes.append((sys, n, box))
                    tl.count_crossing_arcs(sys, n, box)
    return boxes, calls


def _both_paths(call):
    """(word, array images, scalar images) of one recorded sampled member."""
    if call[0] == "edge":
        _, sys, handle, count, array, _ = call
        scalar = [handle.eval(sys, float(s)) for s in _lobatto(handle.s_lo, handle.s_hi, count)]
        return handle.word, array, np.array(scalar).T
    _, sys, n, word, ts, array, _ = call
    scalar = [word.apply(sys, fold_point(sys, n, float(t))) for t in ts]
    return word, array, np.array(scalar).T


def test_batched_samples_equal_each_members_own_pass(sampled_cascades):
    # Batching changes only array lengths, and numpy evaluates each element
    # alone: every handle's and every branch's slice of a batched pass is
    # its own array pass, bit for bit.  The batches seen are the edge pairs
    # and the three fold branches; the refinements go alone.
    _, calls = sampled_cascades
    sizes = set()
    for call in calls:
        own = cascade._edge_points(*call[1:4]) if call[0] == "edge" else cascade._branch_points(*call[1:5])
        array = call[-2]
        assert own.shape == array.shape and own.tobytes() == array.tobytes(), call[0]
        sizes.add((call[0], call[-1]))
    assert {("edge", 2), ("branch", 3)} <= sizes


def _ordered(v: float) -> int:
    bits = struct.unpack("<q", struct.pack("<d", float(v)))[0]
    return bits if bits >= 0 else -(2**63) - bits


def test_array_images_stay_within_the_ulp_bound(sampled_cascades):
    # MapWord.images differs from MapWord.apply only where numpy's exp and
    # power round unlike libm's: by at most 1 ulp on the words of linear
    # atoms and the fold points.  Each phi atom then multiplies the
    # difference by its condition number, about 100 here (the offset x - 1
    # of an abscissa near 1 + 3 eps, and its cube), so the bound is
    # 4 * 128**p ulps for a word with p phi atoms.  Measured: 1, 130, 11,115
    # and 520,525 ulps for p = 0 to 3.
    boxes, calls = sampled_cascades
    assert len(boxes) > 40
    worst = {}
    for call in calls:
        word, array, scalar = _both_paths(call)
        assert array.shape == scalar.shape == (2, len(array[0]))
        phis = sum(atom[0] == "phi" for atom in word.atoms)
        ulps = max(abs(_ordered(a) - _ordered(b)) for a, b in zip(array.ravel(), scalar.ravel()))
        assert ulps <= 4 * 128**phis, (call[0], word)
        worst[phis] = max(worst.get(phis, 0), ulps)
    assert sorted(worst) == [0, 1, 2, 3]


def _scalar_crossings(sys, n, box):
    # count_crossing_arcs with every sample taken on the scalar path
    S = tl.build_sn(sys, n)
    width = box.x_hi - box.x_lo
    xa, xb = box.x_lo + 0.01 * width, box.x_hi - 0.01 * width
    ys = []
    for handle in (box.top, box.bottom):
        level = handle.level_y(sys)
        ys += [level] if level is not None else [handle.eval(sys, float(s))[1] for s in _lobatto(handle.s_lo, handle.s_hi, 2 * _SAMPLES - 1)]
    band_lo, band_hi = min(ys), max(ys)
    band_tol = max(1e-12, 10.0 * (band_hi - band_lo))

    def samples(t0, t1, depth):
        pts = [box.word.apply(sys, fold_point(sys, n, float(t))) for t in _lobatto(t0, t1, _SAMPLES)]
        if cascade._x_monotone([p[0] for p in pts]):
            return pts
        assert depth < cascade._ARC_MAX_REFINE
        mid = 0.5 * (t0 + t1)
        return samples(t0, mid, depth + 1) + samples(mid, t1, depth + 1)

    count = 0
    for t0, t1 in S.branches:
        pts = samples(t0, t1, 0)
        xs = [p[0] for p in pts]
        if min(xs) <= xa and max(xs) >= xb:
            count += all(band_lo - band_tol <= y <= band_hi + band_tol for x, y in pts if xa <= x <= xb)
    return count


def _scalar_edge_slope(sys, handle):
    pts = [handle.eval(sys, float(s)) for s in _lobatto(handle.s_lo, handle.s_hi, 2 * _SAMPLES - 1)]
    worst = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 == x0:
            if y1 != y0:
                return math.inf
            continue
        worst = max(worst, abs((y1 - y0) / (x1 - x0)))
    return worst


def _verdicts(sys, points):
    # cascade_step's checks on one scan: collapsed, not x-monotone, escaped
    xs, ys = points
    target = tl.return_rectangle(sys.epsilon)
    escaped = [y < target.y_lo - _MEMBERSHIP_TOL or y > target.y_hi + _MEMBERSHIP_TOL for y in ys]
    return xs[-1] - xs[0] == 0.0, cascade._x_monotone(list(xs)), any(escaped)


def test_array_verdicts_equal_the_scalar_loop(sampled_cascades):
    # Every decision the samplers take on arrays is the one the scalar
    # samples give: the crossing counts, the monotone and escape verdicts of
    # each scan of cascade_step (both verdicts on every scan), and whether
    # max_edge_slope exceeds its bound.
    boxes, calls = sampled_cascades
    for sys, n, box in boxes:
        assert tl.count_crossing_arcs(sys, n, box) == _scalar_crossings(sys, n, box)
        scalar_slope = max((_scalar_edge_slope(sys, h) for h in (box.top, box.bottom) if h.level_y(sys) is None), default=0.0)
        bound = _slope_cone(sys)[0]
        assert (max_edge_slope(sys, box) > bound) == (scalar_slope > bound)
        assert max_edge_slope(sys, box) == pytest.approx(scalar_slope, rel=1e-9)
    scans = [call for call in calls if call[0] == "edge" and call[3] == _SAMPLES]
    assert len(scans) > 100
    verdicts = set()
    for call in scans:
        _, array, scalar = _both_paths(call)
        verdicts.add(_verdicts(call[1], array))
        assert _verdicts(call[1], array) == _verdicts(call[1], scalar)
    assert {escaped for _, _, escaped in verdicts} == {False, True}


def test_max_edge_slope_on_straight_edges(ref):
    # A vertical edge has a vertical step (inf), a sloped one its slope, and
    # a level one none; the array scan reads what the scalar loop reads.
    for top, slope in (
        (tl.CurveHandle((1.0, 0.0), (1.0, 0.25)), math.inf),
        (tl.CurveHandle((1.0, 0.0), (1.5, 0.25)), 0.5),
        (tl.CurveHandle((1.0, 0.0), (1.5, 0.0)), 0.0),
    ):
        box = tl.Box("rectangle-like", 1.0, 1.5, top, tl.CurveHandle((1.0, 0.0), (1.5, 0.0)), top, k=1)
        assert max_edge_slope(ref, box) == pytest.approx(slope, rel=1e-12)
        assert max_edge_slope(ref, box) == pytest.approx(_scalar_edge_slope(ref, top), rel=1e-15)


def test_vertical_escape_names_the_first_escaping_sample(ref, monkeypatch):
    # With R_eps lifted to heights above 1e-11, the next box of the
    # level-12 step escapes vertically; the message names the first sample
    # out, top edge first, as a scan over the scalar samples finds it.
    b1 = build_b1(ref, tl.build_sn(ref, 12))
    _, u, nxt = cascade_step(ref, b1)
    rect = tl.return_rectangle(ref.epsilon)
    monkeypatch.setattr(cascade, "return_rectangle", lambda eps: rect._replace(y_lo=1e-11))
    first = next(
        y
        for handle in (nxt.top, nxt.bottom)
        for y in (handle.eval(ref, float(s))[1] for s in _lobatto(handle.s_lo, handle.s_hi, _SAMPLES))
        if y < 1e-11 - _MEMBERSHIP_TOL
    )
    with pytest.raises(tl.CascadeEnd, match=rf"^B_2 escapes R_eps vertically \(y={first:.6g}, u_1={u}\)$"):
        cascade_step(ref, b1)


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the class and text are compared
        return type(exc), str(exc)
    return None


def test_array_samples_raise_the_scalar_errors(ref):
    # A failed array check reruns the samples on the scalar path in order,
    # so the first failing sample raises the scalar error, class and text.
    phi = tl.MapWord((("phi",),))
    handle = tl.CurveHandle((0.9, 0.0), (1.5, 0.01), phi)
    ss = _lobatto(0.0, 1.0, 9)
    want = _raised(lambda: [handle.eval(ref, float(s)) for s in ss])
    assert want is not None and "outside U(q)" in want[1]
    assert _raised(lambda: cascade._edge_points(ref, handle, 9)) == want

    lo, hi = t_window(ref)
    narrow = replace(ref, seed=SeedArc((-0.5, 1.01), (0.5,)))
    cases = (
        (ref, tl.MapWord(), _lobatto(lo, hi + 0.01, 9), "outside arc window"),
        (narrow, tl.MapWord(), _lobatto(lo, hi, 9), "outside the seed domain"),
        (ref, phi, _lobatto(lo, hi, 9), "outside U(q)"),
    )
    for sys, word, ts, text in cases:
        want = _raised(lambda: [word.apply(sys, fold_point(sys, 1, float(t))) for t in ts])
        assert want is not None and text in want[1]
        assert _raised(lambda: cascade._branch_points(sys, 1, word, ts)) == want


def test_batched_samples_fall_back_member_by_member(ref):
    # When a batch's array pass gives up, its members take their own passes
    # one at a time, in order, as the caller asks for them: the batch raises
    # what the per-member scalar loop raises, class and text, and the
    # members before the failing one come out first, as their own passes.
    phi = tl.MapWord((("phi",),))
    inside = tl.CurveHandle((0.95, 0.0), (1.05, 0.01), phi)
    outside = tl.CurveHandle((0.9, 0.0), (1.5, 0.01), phi)
    ss = _lobatto(0.0, 1.0, 9)
    for handles in ((inside, outside), (outside, inside), (inside, inside, outside)):
        want = _raised(lambda: [h.eval(ref, float(s)) for h in handles for s in ss])
        assert want is not None and "outside U(q)" in want[1]
        assert _raised(lambda: list(cascade._edge_points(ref, handles, 9))) == want
    batch = iter(cascade._edge_points(ref, (inside, outside), 9))
    assert next(batch).tobytes() == cascade._edge_points(ref, inside, 9).tobytes()
    assert _raised(lambda: next(batch)) == _raised(lambda: [outside.eval(ref, float(s)) for s in ss])

    lo, hi = t_window(ref)
    narrow = replace(ref, seed=SeedArc((-0.5, 1.01), (0.5,)))
    cases = (
        (ref, tl.MapWord(), _lobatto(lo, hi, 9), _lobatto(lo, hi + 0.01, 9), "outside arc window"),
        (narrow, tl.MapWord(), _lobatto(lo, 0.0, 9), _lobatto(lo, hi, 9), "outside the seed domain"),
        # f^107 takes the level-1 fold points to abscissas 1.17-1.32, past U(q) only near t = lo
        (ref, tl.MapWord((("linear", 107), ("phi",))), _lobatto(-0.03, 0.0, 9), _lobatto(lo, hi, 9), "outside U(q)"),
    )
    for sys, word, good, bad, text in cases:
        ts = np.array([good, bad])
        want = _raised(lambda: [word.apply(sys, fold_point(sys, 1, float(t))) for t in ts.ravel()])
        assert want is not None and text in want[1]
        batch = iter(cascade._branch_points(sys, 1, word, ts))
        assert next(batch).tobytes() == cascade._branch_points(sys, 1, word, good).tobytes()
        assert _raised(lambda: next(batch)) == want
