import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tangencylab as tl
from tangencylab.cascade import _SAMPLES, _lobatto, box_metrics, build_b1, cascade_step, max_edge_slope
from tangencylab.numerics import _bisect


def test_first_box_matches_fold_geometry(ref, sn10):
    b1 = build_b1(ref, sn10)
    w, h, dist = box_metrics(ref, b1)
    assert w == pytest.approx(0.0013764572352941151, rel=1e-10)
    # every y coordinate of B_1 is lam^{i_n} * O(1), far below double range
    assert h == 0.0
    assert dist == 0.0


def test_cascade_level_12_frozen(cascade12):
    assert cascade12.k0 == 2
    assert cascade12.u_exponents == (459,)
    assert cascade12.widths[0] == pytest.approx(0.00041624347835145237, rel=1e-10)
    assert cascade12.widths[1] == pytest.approx(0.02651806934129186, rel=1e-10)
    assert cascade12.heights == (0.0, 0.0)
    assert cascade12.dists == (0.0, 0.0)
    assert cascade12.violations == ()


def test_cascade_growth_inequalities(cascade12):
    # the content of the decade checks: widths expand tenfold, the vertical
    # measures stay dominated
    for k in range(cascade12.k0 - 1):
        assert cascade12.widths[k + 1] >= 10.0 * cascade12.widths[k]
        assert cascade12.heights[k + 1] <= cascade12.heights[k] / 10.0 + 1e-300
        assert cascade12.dists[k + 1] <= cascade12.dists[k] / 10.0 + 1e-300


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


def test_box_metrics_evaluation_budget(ref, sn10, monkeypatch):
    # An operation count, so it holds on any hardware: the 33 + 2 x 33 fibers
    # of B_1 at level 10, inverted with its level closed form disabled (a B_1
    # takes its metrics from level_y and evaluates nothing), need 2,201 edge
    # evaluations with ITP inversions, each fiber computed once and each word
    # applied once per base point of an inversion.  The bound fails without
    # that memo (5,270) and with plain bisection of every fiber (17,498).
    monkeypatch.setattr(tl.CurveHandle, "level_y", lambda self, sys: None)
    calls = []
    original = tl.CurveHandle.eval

    def counted(self, sys, s):
        calls.append(s)
        return original(self, sys, s)

    box = build_b1(ref, sn10)
    monkeypatch.setattr(tl.CurveHandle, "eval", counted)
    box_metrics(ref, box)
    assert len(calls) <= 2_400


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


def _fiber_abscissas(box):
    # the 33 abscissas of _fiber_metrics' first pass
    inset = 1e-6 * max(box.x_hi - box.x_lo, 1e-300)
    return [float(x) for x in _lobatto(box.x_lo + inset, box.x_hi - inset, _SAMPLES)]


def test_invert_x_memo_is_exact(ref, sn10, cascade12):
    # invert_x keeps the images of one call by base point; the root must be
    # the same double as the search that applies the word at every trial s.
    # Level 12 adds a box whose word passes through phi.
    boxes = [build_b1(ref, sn10), *tl.run_cascade(ref, 10).boxes, *cascade12.boxes]
    for box in boxes:
        for handle in (box.top, box.bottom, box.delta):
            for x in _fiber_abscissas(box):
                plain = _bisect(lambda s: handle.eval(ref, s)[0] - x, handle.s_lo, handle.s_hi)
                assert handle.invert_x(ref, x) == plain, (box.k, x)


def test_box_metrics_inversion_budget_with_base_point_memo(ref, sn10, monkeypatch):
    # The same 33 + 2 x 33 fibers of the level-10 B_1 as the 2,400 budget
    # above, level closed form disabled, counted like the tracer's invert_x ->
    # eval edge: applying each word once per base point of an inversion takes
    # 2,009 evaluations over its 192 inversions (each fiber edge then
    # evaluates its root once more); without the memo they take 5,078.
    monkeypatch.setattr(tl.CurveHandle, "level_y", lambda self, sys: None)
    inside, calls = [], []
    original_eval, original_invert = tl.CurveHandle.eval, tl.CurveHandle.invert_x

    def counted_eval(self, sys, s):
        if inside:
            calls.append(s)
        return original_eval(self, sys, s)

    def counted_invert(self, sys, x):
        inside.append(x)
        try:
            return original_invert(self, sys, x)
        finally:
            inside.pop()

    box = build_b1(ref, sn10)
    monkeypatch.setattr(tl.CurveHandle, "eval", counted_eval)
    monkeypatch.setattr(tl.CurveHandle, "invert_x", counted_invert)
    box_metrics(ref, box)
    assert len(calls) <= 2_100
