import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tangencylab as tl
from tangencylab.cascade import _SAMPLES, _lobatto, box_metrics, build_b1, cascade_step, max_edge_slope
from tangencylab.rects import level_range
from tangencylab.returns import i_n


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
    for name in ("eval", "invert_x", "_point"):
        original = getattr(tl.CurveHandle, name)
        monkeypatch.setattr(tl.CurveHandle, name, lambda self, *args, _name=name, _original=original: calls.append(_name) or _original(self, *args))
    for box in boxes:
        box_metrics(ref, box)
    assert calls == []


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
