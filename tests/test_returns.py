import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tangencylab as tl
from tangencylab.returns import (
    VERTICAL,
    beta_arc,
    find_s_n0,
    i_n,
    jn_slope_check,
    slope_through_return,
    u0,
    window_exponent,
)


def test_window_exponent_of_seed_return(ref):
    # px = c * eps^3 enters ((1+eps)^2, (1+eps)^3] after 595 steps
    assert u0(ref, (ref.mu, 0.0)) == 595


def test_window_exponent_uniqueness(ref):
    k = window_exponent(ref, 1e-5)
    lo = (1.0 + ref.epsilon) ** 2
    hi = (1.0 + ref.epsilon) ** 3
    assert lo < 1e-5 * ref.mu**k <= hi
    assert 1e-5 * ref.mu ** (k + 1) > hi
    assert 1e-5 * ref.mu ** (k - 1) <= lo


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-9, max_value=0.999))
def test_window_exponent_lands_inside(x):
    sys = tl.reference_system()
    k = window_exponent(sys, x)
    eps = sys.epsilon
    value = x * sys.mu**k
    assert (1.0 + eps) ** 2 * (1.0 - 1e-9) < value <= (1.0 + eps) ** 3 * (1.0 + 1e-9)


def test_window_rejects_mirrored_return(ref):
    # a U(q) point whose transition image has negative abscissa
    with pytest.raises(tl.WrongQuadrantError):
        u0(ref, (1.0, -0.2))


def test_fold_rectangle_exponent(ref):
    assert i_n(ref, 10) == 645


def test_beta_arc_frozen_level_10(ref):
    beta = beta_arc(ref, 10, 0.1)
    assert beta.j == 646
    assert beta.t_lo == pytest.approx(-0.01441449169006341, rel=1e-12)
    assert beta.t_hi == pytest.approx(-0.013951334821161416, rel=1e-12)
    assert beta.t_lo < beta.t_hi
    assert beta.s_n_minus < beta.s_n_plus


def test_beta_arc_needs_positive_cap(ref):
    with pytest.raises(tl.DomainError):
        beta_arc(ref, 10, -0.1)


def test_horizontal_tangent_returns_flat(ref):
    # the seed return point carries slope 0 through the whole excursion
    inter, out = slope_through_return(ref, (ref.mu, 0.0), 0.0)
    assert inter <= ref.epsilon**-2.5
    assert out.slope <= ref.epsilon**2.5


def test_vertical_input_slope_rejected(ref):
    assert VERTICAL == math.inf
    with pytest.raises(tl.DomainError):
        slope_through_return(ref, (ref.mu, 0.0), VERTICAL)


def test_jn_slope_check_frozen_level_10(ref):
    rep = jn_slope_check(ref, 10, 0.1)
    assert rep.passed
    assert rep.max_slope == 0.0
    assert rep.excluded == 0
    assert rep.samples == 200
    assert rep.threshold == pytest.approx(ref.epsilon**2.5, rel=1e-12)


def test_slope_grid_has_no_counterexamples(ref):
    # 8x8 corner of the acceptance grid: every start stays within both bounds
    target = tl.return_rectangle(ref.epsilon)
    cap = ref.epsilon**2.5
    xs = np.linspace(target.x_lo, target.x_hi, 8)
    ys = np.linspace(target.y_lo, target.y_hi, 8)
    for x in xs:
        for y in ys:
            for s in (0.0, cap / 2.0, cap):
                inter, out = slope_through_return(ref, (float(x), float(y)), s)
                assert inter <= 1.0 / cap
                assert out.slope <= cap


def test_slope_search_result(slope_search):
    assert slope_search.s == 0.2
    assert slope_search.n0 == 5
    assert slope_search.levels == (5, 6, 7)
    assert len(slope_search.reports) == 3
    for rep in slope_search.reports:
        assert rep.passed
        assert rep.samples >= 200


def test_slope_search_threshold_scaling(ref, slope_search):
    # doubling the target threshold can only keep or lower the first level
    relaxed = find_s_n0(ref, eps_target=2.0 * ref.epsilon)
    assert relaxed.n0 <= slope_search.n0
