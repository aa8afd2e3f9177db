import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tangencylab as tl
from tangencylab.leaves import t_window
from tangencylab.model import _scale_power
from tangencylab.numerics import _bisect
from tangencylab.rects import build_sn, fold_x, level_range
from tangencylab.returns import (
    _first_crossing,
    VERTICAL,
    beta_arc,
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


# The landing check of u0 and i_n, one system per error text: the orbit
# leaves U(p) before its return exponent (a chart of half width 1 ends
# inside the window), or f^k lands outside R_eps (ordinate lam^73 * 1 at
# lam = 0.99; the S_6 corner at x_lo of lam = 0.5, mu = 1.05).
_LANDING_ERRORS = {
    "u0 chart exit": (
        {"chart_half_width": 1.0},
        lambda sys: u0(sys, (1.0, 0.25)),
        tl.ChartExitError,
        "connecting orbit leaves U(p) at step 71 of 73",
    ),
    "u0 miss": (
        {"lam": 0.99},
        lambda sys: u0(sys, (1.0, 0.25)),
        tl.SmallExpandingViolationError,
        "f^73(phi(point)) = (1.06109, 0.480141) misses the return rectangle",
    ),
    "i_n chart exit": (
        {"chart_half_width": 1.0},
        lambda sys: i_n(sys, 8),
        tl.ChartExitError,
        "corner orbit leaves U(p) at step 522 of 524",
    ),
    "i_n miss": (
        {"lam": 0.5, "mu": 1.05},
        lambda sys: i_n(sys, 6),
        tl.SmallExpandingViolationError,
        "f^101(S_6) corner (1.04202, 3.54174e-31) misses the return rectangle",
    ),
}


@pytest.mark.parametrize("case", _LANDING_ERRORS)
def test_landing_error_texts(case):
    changes, call, error, text = _LANDING_ERRORS[case]
    with pytest.raises(error) as info:
        call(tl.make_system(**changes))
    assert str(info.value) == text


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


@pytest.mark.parametrize("mu", [1.0, 0.9, -1.0])
def test_slope_checks_need_an_expanding_chart(mu):
    # The slope cone eps^(5/2) needs eps = |mu| - 1 > 0; both slope checks
    # refuse other charts before any work, with one text.
    sys = tl.make_system(mu=mu)
    for check in (lambda: tl.slope_grid(sys), lambda: jn_slope_check(sys, 10, 0.1)):
        with pytest.raises(tl.DomainError, match=r"slope checks need \|mu\| > 1"):
            check()


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


def _first_crossing_scalar(sys, n, target, t_from, t_to):
    """The first sign change of fold_x - target on a scan of 4,097 probes,
    one fold_x call each, polished by bisection on fold_x itself."""
    ts = np.linspace(t_from, t_to, 4097)
    vals = np.array([fold_x(sys, n, float(t)) - target for t in ts])
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)[0]
    if sign_change.size == 0:
        return None
    i = int(sign_change[0])
    return _bisect(lambda t: fold_x(sys, n, t) - target, float(ts[i]), float(ts[i + 1]))


@pytest.mark.parametrize("sys", [tl.reference_system(), tl.make_system(lam=-0.3)], ids=["reference", "lam<0"])
def test_first_crossing_matches_the_scalar_scan(sys):
    # The crossing is the first root of the fold polynomial X - target; it
    # must be the first sign change of phi's own arithmetic on a fine scan,
    # for the two targets beta_arc asks for.
    lo, hi = t_window(sys)
    for n in level_range(sys, 8, 18):
        S = build_sn(sys, n)
        x_cap = _scale_power(0.1, sys.mu, -window_exponent(sys, S.dist))
        t_lo = _first_crossing(S.fold, 0.0, lo, hi)
        assert t_lo == pytest.approx(_first_crossing_scalar(sys, n, 0.0, lo, hi), rel=1e-12)
        t_from = lo if t_lo is None else t_lo
        t_hi = _first_crossing(S.fold, x_cap, t_from, hi)
        assert t_hi == pytest.approx(_first_crossing_scalar(sys, n, x_cap, t_from, hi), rel=1e-12)
