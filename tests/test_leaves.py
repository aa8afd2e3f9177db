import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tangencylab as tl
from tangencylab.leaves import (
    alpha,
    arc_height,
    stable_leaf_v,
    t_window,
    tangency_order,
    tangency_samples,
    unstable_leaf_w,
)


def test_stable_leaf_sample(ref):
    # closed form v(x) = -c x^3 / (a + b x)
    assert stable_leaf_v(ref, 0.1) == pytest.approx(-0.0011111111111111113, rel=1e-14)


def test_unstable_leaf_sample(ref):
    # the image of the unstable axis solves y_off = d*x for its abscissa
    assert unstable_leaf_w(ref, -0.1) == pytest.approx(0.0010000000000000002, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-0.25, max_value=0.25))
def test_stable_leaf_matches_closed_form(x):
    sys = tl.reference_system()
    expect = -(x**3) / (1.0 - x)
    assert stable_leaf_v(sys, x) == pytest.approx(expect, rel=1e-10, abs=1e-15)


def test_stable_leaf_flat_to_cubic_order(ref):
    # v and its first two differences vanish faster than x^2 at 0
    for x in (1e-3, 1e-4):
        assert abs(stable_leaf_v(ref, x)) < x**2


def test_tangency_order_and_coefficient(ref):
    xs = np.logspace(-4, -2, 9)
    order, coeff = tangency_order(tangency_samples(ref, xs))
    assert order == pytest.approx(3.0, abs=0.02)
    assert coeff == pytest.approx(1.0, abs=0.02)


def test_tangency_order_needs_enough_samples(ref):
    xs = np.logspace(-3, -2, 4)
    with pytest.raises(tl.DomainError):
        tangency_order(tangency_samples(ref, xs))


def test_tangency_order_needs_two_decades(ref):
    xs = np.logspace(-3.0, -2.5, 10)
    with pytest.raises(tl.DomainError):
        tangency_order(tangency_samples(ref, xs))


def test_arc_heights_follow_seed(ref):
    # y_n(1 + t) = lam^n * y0(mu^-n (1 + t)); constant seed makes this flat
    for n in (5, 8, 12):
        h0 = arc_height(ref, n, 0.0)
        assert h0 == pytest.approx(0.5 * 0.3**n, rel=1e-12)
        assert arc_height(ref, n, 1e-3) == pytest.approx(h0, rel=1e-12)


def test_arc_heights_tilted_seed(tilted):
    # tilted seed y0(x) = 0.5(1 + 0.3x) evaluated at the pullback abscissa
    n = 10
    t = 5e-4
    pullback = (1.0 + t) * 1.02**-n
    expect = 0.3**n * 0.5 * (1.0 + 0.3 * pullback)
    assert arc_height(tilted, n, t) == pytest.approx(expect, rel=1e-12)


def test_alpha_points_sit_on_the_arc(ref):
    pt = alpha(ref, 10, 2e-4)
    x, y = pt.point
    assert x == pytest.approx(1.0 + 2e-4, rel=1e-15)
    assert y == pytest.approx(arc_height(ref, 10, 2e-4), rel=1e-14)


def test_t_window_brackets_zero(ref):
    lo, hi = t_window(ref)
    assert lo < 0.0 < hi
    # window endpoints are the (1+eps)^{\pm3} slab in t = x - 1
    assert hi == pytest.approx((1.0 + ref.epsilon) ** 3 - 1.0, rel=1e-12)


def test_seed_arc_positive_everywhere():
    with pytest.raises(tl.DomainError):
        # crosses zero inside the domain
        tl.make_system(seed_coeffs=(0.1, 1.0), seed_domain=(-2.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=2.0),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=5),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_seed_eval_is_polyval_bit_for_bit(z0, tail, x):
    # |c_i| 2^i <= 0.18 keeps y0 >= z0 - 0.9 > 0 on the domain [-2, 2]
    coeffs = (z0, *(u * 0.18 / 2**i for i, u in enumerate(tail, 1)))
    seed = tl.SeedArc((-2.0, 2.0), coeffs)
    assert seed.eval(x) == float(np.polyval(coeffs[::-1], x))


def test_seed_dipping_between_samples_is_rejected():
    # 1e6 (x - 0.3003)^2 - 1e-3 is negative only on (0.30027, 0.30033),
    # between two points of a 2,001-sample grid over (-0.5, 1.5)
    coeffs = (1e6 * 0.3003**2 - 1e-3, -2e6 * 0.3003, 1e6)
    assert np.polyval(coeffs[::-1], np.linspace(-0.5, 1.5, 2001)).min() > 0.0
    with pytest.raises(tl.DomainError, match="positive on its whole domain"):
        tl.SeedArc((-0.5, 1.5), coeffs)


def test_seed_touching_zero_is_rejected():
    # (x - 0.3125)^2 touches 0 off the 2,001-sample grid without changing
    # sign; its coefficients are exact, so y0 is exactly 0.0 at y0's zero
    coeffs = (0.09765625, -0.625, 1.0)
    assert np.polyval(coeffs[::-1], np.linspace(-0.5, 1.5, 2001)).min() > 0.0
    with pytest.raises(tl.DomainError, match="positive on its whole domain"):
        tl.SeedArc((-0.5, 1.5), coeffs)


def test_reference_and_tilted_seeds_load(ref, tilted):
    for sys in (ref, tilted):
        seed = sys.seed
        assert tl.SeedArc(seed.domain, seed.coeffs) == seed
