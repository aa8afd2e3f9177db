import math

import numpy as np
import pytest

import tangencylab as tl
from tangencylab.cases import SIGN_CASES
from tangencylab.rects import (
    build_sn,
    first_valid_n,
    fold_point,
    fold_rectangles,
    fold_velocity,
    fold_x,
    level_range,
    scaling_fit,
    vertical_params,
)
from tangencylab.leaves import t_window


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
    # for lam < 0 only one parity of n has a real tangency pair; the sign
    # record's parity is checked against the tangency solver, case by case
    sys = tl.make_system(lam=-0.3)
    assert tl.classify_system(sys)[1].n_parity == "even"
    assert [S.n for S in fold_rectangles(sys, 8, 18)] == [8, 10, 12, 14, 16, 18]
    adaptable = 0
    for case in SIGN_CASES:
        sys = tl.make_system(a=case.sign_a, b=case.sign_bc, lam=0.3 * case.sign_lam, mu=1.02 * case.sign_mu)
        if not tl.classify_system(sys)[1].adaptable:
            continue
        adaptable += 1
        levels = level_range(sys, 8, 18)
        assert [S.n for S in fold_rectangles(sys, 8, 18)] == list(levels)
        for n in set(range(8, 19)) - set(levels):
            with pytest.raises(tl.NoVerticalTangencyError):
                vertical_params(sys, n)
    assert adaptable == 9


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


# float.hex of (t_minus, t_plus, t_ext_minus, t_ext_plus, width, height, rho)
# of the reference S_n: a change of the roots' polish path shows here.
_REFERENCE_SN_BITS = {
    8: ("-0x1.b16e2b82a1ca9p-9", "0x1.b16e2b82a1ca9p-9", "-0x1.b16e2b82a1ca9p-8", "0x1.b16e2b82a1ca9p-8", "0x1.369ca308177f5p-23", "0x1.b16e2b82a1ca9p-7", "0x1.a20bd700c2c3dp-2"),
    9: ("-0x1.dacc95d34c3cep-10", "0x1.dacc95d34c3cep-10", "-0x1.dacc95d34c3cep-9", "0x1.dacc95d34c3cep-9", "0x1.984f556b5573ap-26", "0x1.dacc95d34c3cep-8", "0x1.a20bd700c2c3ep-2"),
    10: ("-0x1.040ee6e7faaccp-10", "0x1.040ee6e7faaccp-10", "-0x1.040ee6e7faaccp-9", "0x1.040ee6e7faaccp-9", "0x1.0c5e5fcda5b5bp-28", "0x1.040ee6e7faaccp-8", "0x1.a20bd700c2c3ep-2"),
    11: ("-0x1.1ce126b1fa8afp-11", "0x1.1ce126b1fa8afp-11", "-0x1.1ce126b1fa8afp-10", "0x1.1ce126b1fa8afp-10", "0x1.60c79dc52f34cp-31", "0x1.1ce126b1fa8afp-9", "0x1.a20bd700c2c3ep-2"),
    12: ("-0x1.3811e1e32ccf5p-12", "0x1.3811e1e32ccf5p-12", "-0x1.3811e1e32ccf6p-11", "0x1.3811e1e32ccf6p-11", "0x1.cfbdb3e255a46p-34", "0x1.3811e1e32ccf6p-10", "0x1.a20bd700c2c41p-2"),
    13: ("-0x1.55dafb3bf9738p-13", "0x1.55dafb3bf9738p-13", "-0x1.55dafb3bf9738p-12", "0x1.55dafb3bf9738p-12", "0x1.30cd3c89996d0p-36", "0x1.55dafb3bf9738p-11", "0x1.a20bd700c2c3ep-2"),
    14: ("-0x1.767bdbdd68f8cp-14", "0x1.767bdbdd68f8cp-14", "-0x1.767bdbdd68f8dp-13", "0x1.767bdbdd68f8cp-13", "0x1.90ac18590e9a5p-39", "0x1.767bdbdd68f8cp-12", "0x1.a20bd700c2c3ep-2"),
    15: ("-0x1.9a39fa47f8243p-15", "0x1.9a39fa47f8243p-15", "-0x1.9a39fa47f8243p-14", "0x1.9a39fa47f8243p-14", "0x1.075942a3f11a9p-41", "0x1.9a39fa47f8243p-13", "0x1.a20bd700c2c3ep-2"),
    16: ("-0x1.c1616e3ce45dap-16", "0x1.c1616e3ce45dap-16", "-0x1.c1616e3ce45dbp-15", "0x1.c1616e3ce45dap-15", "0x1.5a2e4a48d96aap-44", "0x1.c1616e3ce45dap-14", "0x1.a20bd700c2c3ep-2"),
    17: ("-0x1.ec4592bcc35e9p-17", "0x1.ec4592bcc35e9p-17", "-0x1.ec4592bcc35e9p-16", "0x1.ec4592bcc35e9p-16", "0x1.c711069c50c15p-47", "0x1.ec4592bcc35e9p-15", "0x1.a20bd700c2c3ep-2"),
    18: ("-0x1.0da0dbbe229e9p-17", "0x1.0da0dbbe229e9p-17", "-0x1.0da0dbbe229e9p-16", "0x1.0da0dbbe229e9p-16", "0x1.2b19a8a13eeb6p-49", "0x1.0da0dbbe229e9p-15", "0x1.a20bd700c2c3dp-2"),
}


def test_reference_fold_rectangles_keep_their_bits(ref):
    fields = ("t_minus", "t_plus", "t_ext_minus", "t_ext_plus", "width", "height", "rho")
    bits = {S.n: tuple(getattr(S, k).hex() for k in fields) for S in fold_rectangles(ref, 8, 18)}
    assert bits == _REFERENCE_SN_BITS


def test_fold_turns_vertical_at_the_tangency_parameters(ref, sn10):
    # dx/dt = 0 exactly at t_{+-}: the fold tip is a vertical tangency
    for t in (sn10.t_minus, sn10.t_plus):
        assert abs(fold_velocity(ref, 10, t)[0]) < 1e-12
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


def test_scaling_fit_needs_five_distinct_levels():
    # numerics.line_fit needs distinct abscissas; a repeated level is not one
    with pytest.raises(tl.DomainError, match="five distinct levels"):
        scaling_fit([(8, 1.0), (8, 2.0), (9, 0.5), (10, 0.2), (11, 0.1)], 0.3)
    kappa, _ = scaling_fit([(n, 0.3 ** (1.5 * n)) for n in range(8, 13)], 0.3)
    assert kappa == pytest.approx(1.5, rel=1e-12)


def test_vertical_params_solves_the_tangent_equation(ref):
    # b*y_n(1+t) + 3c t^2 = 0 at the returned parameters, up to Newton tol
    from tangencylab.leaves import arc_height

    t_minus, t_plus = vertical_params(ref, 12)
    for t in (t_minus, t_plus):
        resid = -1.0 * arc_height(ref, 12, t) + 3.0 * t * t
        assert abs(resid) < 1e-15


@pytest.mark.parametrize("system", ["ref", "tilted"])
def test_fold_velocity_matches_central_differences(system, request):
    # the tilted seed makes the arc slope dy/dt nonzero, so both chain-rule
    # terms of (X', Y') are exercised
    sys = request.getfixturevalue(system)
    S = build_sn(sys, 10)
    h = 1e-6
    for t in (S.t_ext_minus, 0.5 * S.t_minus, 0.0, 2.0 * S.t_plus, 0.03, -0.05):
        plus, minus = fold_point(sys, 10, t + h), fold_point(sys, 10, t - h)
        vx, vy = fold_velocity(sys, 10, t)
        assert vx == pytest.approx((plus[0] - minus[0]) / (2.0 * h), rel=1e-6, abs=1e-13)
        assert vy == pytest.approx((plus[1] - minus[1]) / (2.0 * h), rel=1e-8)


def test_fold_x_is_the_fold_point_abscissa(ref):
    # one evaluation route: phi at the offset t, never at (1 + t) - 1
    lo, hi = t_window(ref)
    for n in (5, 10, 18):
        for t in np.linspace(lo, hi, 201):
            assert fold_x(ref, n, float(t)) == fold_point(ref, n, float(t))[0]


def test_branches_tile_the_extended_window(ref):
    for S in fold_rectangles(ref, 8, 18):
        branches = S.branches
        assert len(branches) == 3
        assert branches[0][0] == S.t_ext_minus and branches[-1][1] == S.t_ext_plus
        assert all(left[1] == right[0] for left, right in zip(branches, branches[1:]))
        assert branches[1] == (S.t_minus, S.t_plus)
        for lo, hi in branches:
            assert lo < hi
            xs = np.diff([fold_x(ref, S.n, float(t)) for t in np.linspace(lo, hi, 33)])
            assert (xs >= 0.0).all() or (xs <= 0.0).all()


# build_sn on jets with an H1 term k*x^4.  The quartic bends the hook.  For
# k = 50, and for k = 300 at level 12, X(t) - X(t_+) has two roots left of
# t_minus and the same sign at both ends of [window start, t_minus]: the
# left cap is inside the window, nearest to the tangency.  For larger k at
# shallow levels X' has no zero left of 0, so there is no tangency pair.
_QUARTIC_OUTCOMES = {
    (10, 8): None,
    (10, 10): None,
    (10, 12): None,
    (50, 8): None,
    (50, 10): None,
    (50, 12): None,
    (300, 8): tl.NoVerticalTangencyError,
    (300, 10): tl.NoVerticalTangencyError,
    (300, 12): None,
    (1000, 8): tl.NoVerticalTangencyError,
    (1000, 10): tl.NoVerticalTangencyError,
    (1000, 12): tl.NoVerticalTangencyError,
}


@pytest.mark.parametrize("k, n", sorted(_QUARTIC_OUTCOMES))
def test_build_sn_outcome_on_quartic_jets(k, n):
    sys = tl.make_system(h1_terms=((4, 0, k),))
    outcome = _QUARTIC_OUTCOMES[k, n]
    if outcome is None:
        S = build_sn(sys, n)
        assert S.t_ext_minus < S.t_minus < 0.0 < S.t_plus < S.t_ext_plus
        assert list(fold_rectangles(sys, n, n)) == [S]
        # the certified count holds on a sampled piece: it stays in the strip
        xs = fold_x(sys, n, np.linspace(S.t_ext_minus, S.t_ext_plus, 1025))
        slack = 1e-9 * S.width
        assert S.rect.x_lo - slack <= xs.min() and xs.max() <= S.rect.x_hi + slack
        return
    with pytest.raises(outcome) as info:
        build_sn(sys, n)
    assert type(info.value) is outcome
    assert str(info.value).startswith("X' has no zero below t = 0")


def test_build_sn_certifies_one_hook_between_the_caps():
    # In s = t / |lam|^4 at level 8 the jet below gives
    # X'(s) = |lam|^12 (3 s^2 - 1/2)(1 + e3 s^3 + e4 s^4), whose last factor
    # vanishes at s = 0.55 and 0.7, between t_+ and the right cap: the curve
    # turns back there, and the sampled strip check that this count replaced
    # fires on the same jet.
    e3, e4 = np.linalg.solve([[0.55**3, 0.55**4], [0.7**3, 0.7**4]], [-1.0, -1.0])
    x_coeffs = {4: -e3 / 8.0, 5: -e4 / 10.0, 6: e3 / 2.0, 7: 3.0 * e4 / 7.0}
    h = 0.3**4
    sys = tl.make_system(h1_terms=tuple((i, 0, float(v / h ** (i - 3))) for i, v in x_coeffs.items()))
    with pytest.raises(tl.NumericError, match="X' has 4 zeros between the caps of S_8"):
        build_sn(sys, 8)


def test_tilted_rescaled_system_builds_at_level_12(tilted):
    # The rescaled partner of the conjugacy pair: X is of size |lam|^n while
    # the width is of size |lam|^(3n/2), so no cap is matched on X's values.
    S = build_sn(tl.rescale_pair(tilted, 1).sys_1, 12)
    assert S.t_ext_minus < S.t_minus < 0.0 < S.t_plus < S.t_ext_plus
    assert S.width == pytest.approx(S.rect.width, rel=1e-9)
