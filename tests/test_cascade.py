import pytest

import tangencylab as tl
from tangencylab.cascade import box_metrics, build_b1, cascade_step, max_edge_slope


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
