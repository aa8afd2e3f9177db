import math

import pytest

import tangencylab as tl
from tangencylab.rects import (
    build_sn,
    first_valid_n,
    fold_point,
    fold_rectangles,
    fold_x_d1,
    scaling_fit,
    vertical_params,
)


def test_first_valid_level(ref):
    assert first_valid_n(ref) == 5


def test_too_small_level_rejected(ref):
    # a failed build is not memoized: it raises again on every call
    for _ in range(3):
        with pytest.raises(tl.WindowExceededError):
            build_sn(ref, 3)


def test_build_sn_shared_by_equal_systems(ref):
    assert build_sn(ref, 10) is build_sn(tl.make_system(), 10)


def test_fold_rectangles_walks_the_valid_levels(ref):
    assert [S.n for S in fold_rectangles(ref, 8, 18)] == list(range(8, 19))
    # the walker stops at n_max whatever the upper bound asked for
    assert [S.n for S in fold_rectangles(ref, 20, 99)] == list(range(20, ref.n_max + 1))


def test_fold_rectangles_keeps_the_adaptable_parity():
    # for lam < 0 only one parity of n has a real tangency pair
    sys = tl.make_system(lam=-0.3)
    assert tl.classify_system(sys)[1].n_parity == "even"
    assert [S.n for S in fold_rectangles(sys, 8, 18)] == [8, 10, 12, 14, 16, 18]


def test_vertical_tangency_parameters(sn10):
    assert sn10.t_plus == pytest.approx(0.000992043345827187, rel=1e-13)
    assert sn10.t_minus == -sn10.t_plus


def test_rho_matches_root_of_vertical_equation(sn10):
    # t_+ / lam^{n/2} -> sqrt(|b| z0 / (3 c)) = sqrt(1/6)
    assert sn10.rho == pytest.approx(math.sqrt(1.0 / 6.0), rel=2e-3)


@pytest.mark.parametrize("n", range(14, 21))
def test_root_ratio_band(ref, n):
    S = build_sn(ref, n)
    ratio = S.t_plus / 0.3 ** (n / 2.0)
    target = math.sqrt(1.0 / 6.0)
    assert 0.98 * target <= ratio <= 1.02 * target


def test_fold_rectangle_frozen_level_10(sn10):
    r = sn10.rect
    assert r.x_lo == pytest.approx(2.950497361082407e-06, rel=1e-13)
    assert r.x_hi == pytest.approx(2.9544026389175904e-06, rel=1e-13)
    assert r.y_lo == pytest.approx(0.9980159133083457, rel=1e-13)
    assert r.y_hi == pytest.approx(1.0019840866916545, rel=1e-13)
    assert sn10.width == pytest.approx(3.905277835183439e-09, rel=1e-12)
    assert sn10.height == pytest.approx(0.003968173383308793, rel=1e-12)
    assert sn10.dist == pytest.approx(2.950497361082407e-06, rel=1e-13)


def test_fold_turns_vertical_at_the_tangency_parameters(ref, sn10):
    # dx/dt = 0 exactly at t_{+-}: the fold tip is a vertical tangency
    for t in (sn10.t_minus, sn10.t_plus):
        assert abs(fold_x_d1(ref, 10, t)) < 1e-12
    # and the tip is the leftmost point of the fold
    tip_x = fold_point(ref, 10, sn10.t_plus)[0]
    for t in (0.5 * sn10.t_plus, 1.5 * sn10.t_plus):
        assert fold_point(ref, 10, t)[0] > tip_x


def test_fold_point_tracks_transition(ref, sn10):
    t = 3e-4
    from tangencylab.leaves import alpha

    direct = tl.apply_phi(ref, alpha(ref, 10, t).point)
    via_fold = fold_point(ref, 10, t)
    assert via_fold[0] == pytest.approx(direct[0], rel=1e-12)
    assert via_fold[1] == pytest.approx(direct[1], rel=1e-12)


def test_extended_params_bracket_the_core(sn10):
    assert sn10.t_ext_minus < sn10.t_minus < sn10.t_plus < sn10.t_ext_plus


def test_scaling_exponents_over_levels(ref):
    levels = range(8, 19)
    rects = [build_sn(ref, n) for n in levels]
    lam = 0.3
    kw, _ = scaling_fit([(n, S.width) for n, S in zip(levels, rects)], lam)
    kh, _ = scaling_fit([(n, S.height) for n, S in zip(levels, rects)], lam)
    kd, _ = scaling_fit([(n, S.dist) for n, S in zip(levels, rects)], lam)
    assert kw == pytest.approx(1.5, abs=0.05)
    assert kh == pytest.approx(0.5, abs=0.05)
    assert kd == pytest.approx(1.0, abs=0.03)


def test_vertical_params_solves_the_tangent_equation(ref):
    # b*y_n(1+t) + 3c t^2 = 0 at the returned parameters, up to Newton tol
    from tangencylab.leaves import arc_height

    t_minus, t_plus = vertical_params(ref, 12)
    for t in (t_minus, t_plus):
        resid = -1.0 * arc_height(ref, 12, t) + 3.0 * t * t
        assert abs(resid) < 1e-15
