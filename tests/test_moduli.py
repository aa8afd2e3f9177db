import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tangencylab as tl
from tangencylab import moduli
from tangencylab.moduli import (
    correspondence_points,
    eigenvalue_estimates,
    identity_pair,
    intersection_check,
    lemma_constant,
    mismatched_pair,
    modulus_fit,
    order_probe,
    pick_rn,
    power_fit,
    rescale_pair,
    return_exponent,
    return_record,
    sn_cn_series,
)
from tangencylab.errors import NumericError
from tangencylab.numerics import Polynomial, real_roots
from tangencylab.rects import first_valid_n, fold_rectangles

# fundamental-domain exponents for n = 8..18, pinned by an exact rational
# recomputation (m(10) sits 2.1e-4 from the domain boundary and is the one
# the log estimate alone would get wrong)
M_SERIES = [521, 582, 642, 703, 764, 825, 886, 946, 1007, 1068, 1129]


def test_representative_return_point(ref):
    r = pick_rn(ref, 10)
    # closed form a z0 lam^10 with the constant seed
    assert r[0] == pytest.approx(0.5 * 0.3**10, rel=1e-9)
    assert r[0] == pytest.approx(2.95245e-06, rel=1e-6)


def test_return_exponent_borderline_level(ref):
    rec = return_record(ref, 10)
    assert rec.m_n == 642
    assert rec.x_n[0] == pytest.approx(0.9806021083835446, rel=1e-12)
    assert 1.0 / ref.mu < rec.x_n[0] <= 1.0


def test_return_exponent_identity_point(ref):
    m, x = return_exponent(ref, (1.0, 0.0))
    assert m == 0
    assert x == (1.0, 0.0)


def test_return_exponent_rejects_bad_abscissas(ref):
    with pytest.raises(tl.WrongQuadrantError):
        return_exponent(ref, (-0.5, 0.0))
    with pytest.raises(tl.DomainError):
        return_exponent(ref, (1.5, 0.0))


def test_fundamental_exponent_series(ref):
    ms = [return_record(ref, n).m_n for n in range(8, 19)]
    assert ms == M_SERIES
    steps = [b - a for a, b in zip(ms, ms[1:])]
    assert set(steps) <= {60, 61}


def test_modulus_fit_reference(ref):
    rho, stderr = modulus_fit(ref, range(8, 19))
    assert rho == pytest.approx(60.80, abs=0.30)
    assert rho == pytest.approx(-math.log(0.3) / math.log(1.02), abs=0.05)
    assert stderr < 0.05


def test_modulus_fit_slow_contraction(slow):
    rho, _ = modulus_fit(slow, range(8, 19))
    assert rho == pytest.approx(35.00, abs=0.30)


def test_modulus_fit_needs_enough_levels(ref):
    with pytest.raises(tl.DomainError):
        modulus_fit(ref, range(8, 12))


def test_modulus_invariant_under_seed_rescale(ref):
    doubled = tl.make_system(seed_coeffs=(1.0,))
    rho0, err0 = modulus_fit(ref, range(8, 19))
    rho1, err1 = modulus_fit(doubled, range(8, 19))
    assert abs(rho1 - rho0) <= 2.0 * (err0 + err1)


def test_cn_is_one_on_reference(ref):
    # exactly 1 in real arithmetic; the float log round-trip leaves ~1e-15
    series = sn_cn_series(ref, range(8, 19))
    for _, _, c_n in series:
        assert c_n == pytest.approx(1.0, abs=1e-12)


def test_sn_steps_match_the_modulus(ref):
    series = sn_cn_series(ref, range(8, 19))
    target = -math.log(0.3) / math.log(1.02)
    for (_, s0, _), (_, s1, _) in zip(series, series[1:]):
        assert s1 - s0 == pytest.approx(target, abs=1e-3)


def test_tilted_seed_cn_closed_form(tilted):
    # the level-n arc reads the seed at abscissa mu^-n, so
    # c_n = 1 / (1 + 0.3 mu^-n): slow convergence at rate 1.02^-n
    for n in (10, 15, 18):
        rec = return_record(tilted, n)
        expect = 1.0 / (1.0 + 0.3 * 1.02**-n)
        assert rec.c_n == pytest.approx(expect, rel=1e-10)
    c10 = return_record(tilted, 10).c_n
    c18 = return_record(tilted, 18).c_n
    assert c10 < c18 < 1.0


def test_eigenvalue_estimates(ref):
    lam_hat, mu_check = eigenvalue_estimates(ref, range(8, 19))
    assert lam_hat == pytest.approx(0.3, rel=1e-6)
    assert mu_check == pytest.approx(1.02, rel=1e-3)


def test_power_fit_recovers_synthetic_law():
    xs = [10 ** (-4 + 0.25 * k) for k in range(16)]
    c, tau = power_fit([(x, 2.0 * x**0.7) for x in xs])
    assert c == pytest.approx(2.0, abs=1e-6)
    assert tau == pytest.approx(0.7, abs=1e-6)


def test_power_fit_guards():
    with pytest.raises(tl.DomainError):
        power_fit([(0.1, 1.0), (0.2, 2.0), (0.3, 3.0)])  # too few
    with pytest.raises(tl.DomainError):
        power_fit([(0.1, 1.0), (0.11, 1.0), (0.12, 1.0), (0.13, 1.0)])  # narrow
    with pytest.raises(tl.DomainError):
        power_fit([(0.1, -1.0), (0.2, 2.0), (0.3, 3.0), (10.0, 4.0)])  # sign


def test_identity_pair_fit(ref):
    pair = identity_pair(ref)
    c, tau = power_fit(correspondence_points(pair, range(8, 19)))
    assert c == pytest.approx(1.0, abs=1e-6)
    assert tau == pytest.approx(1.0, abs=1e-6)
    assert lemma_constant(pair, tau) == pytest.approx(1.0, rel=1e-12)


def test_rescale_pair_fit(ref):
    pair = rescale_pair(ref, 1)
    c, tau = power_fit(correspondence_points(pair, range(8, 19)))
    assert c == pytest.approx(1.0, abs=1e-6)
    assert tau == pytest.approx(1.0, abs=1e-6)
    assert lemma_constant(pair, tau) == pytest.approx(c, rel=0.01)


def test_rescale_pair_bookkeeping(ref):
    pair = rescale_pair(ref, 1)
    assert pair.m0_shift == 1
    for n in (10, 14):
        rec0 = return_record(pair.sys_0, n)
        rec1 = return_record(pair.sys_1, n)
        # identical eigenvalues shift the exponent but not the representative
        assert rec1.x_n[0] == rec0.x_n[0]
        assert rec0.m_n - rec1.m_n == 1


def test_conjugate_pair_moduli_agree(ref):
    pair = rescale_pair(ref, 1)
    rho0, _ = modulus_fit(pair.sys_0, range(8, 19))
    rho1, _ = modulus_fit(pair.sys_1, range(8, 19))
    assert abs(rho1 - rho0) <= 1e-3 * abs(rho0)


def test_intersection_identity_pair(ref):
    pair = identity_pair(ref)
    for n in range(8, 17):
        assert intersection_check(pair, n)


def test_intersection_rescale_pair(ref):
    pair = rescale_pair(ref, 1)
    for n in range(10, 17):
        assert intersection_check(pair, n)


def test_branch_heights_equal_the_root_real_roots_isolates(ref):
    # _branch_y_at polishes from the signs at the branch ends, with no zeros
    # of px' as piece ends: on every branch of the reference levels it gives
    # real_roots' double, inside and at the ends, and raises where real_roots
    # finds no root in (lo, hi].
    line = (0.0, 1.0, Polynomial((-1.0, 2.0)), Polynomial((0.0, 1.0)))  # p is exactly 0 at an end for x = -1 and 1
    for branch in [line] + [b for S in fold_rectangles(ref, 8, 18) for b in moduli._branches(S, (1.0, 1.0))]:
        lo, hi, px, py = branch
        for x in [*np.linspace(px(lo), px(hi), 9), 2.0 * px(hi) - px(lo)]:
            roots = real_roots(px + -float(x), lo, hi)
            if roots:
                assert moduli._branch_y_at(branch, float(x)) == py(roots[0])
            else:
                with pytest.raises(NumericError, match="not reached on the branch"):
                    moduli._branch_y_at(branch, float(x))


def test_intersection_check_decides_each_level_from_few_fold_points(ref, monkeypatch):
    # Each branch height is one root search on the fold polynomials, and no
    # fold point is evaluated; an operation count, not wall time, guards
    # that work.
    calls = []
    fold_point, branch_y_at = moduli.fold_point, moduli._branch_y_at

    def counted(sys, n, t):
        calls.append(t)
        return fold_point(sys, n, t)

    def counted_roots(branch, x):
        calls.append(x)
        return branch_y_at(branch, x)

    monkeypatch.setattr(moduli, "fold_point", counted)
    monkeypatch.setattr(moduli, "_branch_y_at", counted_roots)
    levels = [S.n for S in fold_rectangles(ref, 8, 18)]
    for pair, limit in ((rescale_pair(ref, 1), 200), (identity_pair(ref), 100)):
        calls.clear()
        assert [intersection_check(pair, n) for n in levels] == [True] * len(levels)
        assert len(calls) <= limit
    mism = mismatched_pair(ref, 0.5)
    assert not intersection_check(mism, max(first_valid_n(mism.sys_0), first_valid_n(mism.sys_1)))


def test_mismatched_pair_diagnostics(ref):
    pair = mismatched_pair(ref, 0.5)
    # no conjugation identity is claimed; the formal correspondence exposes
    # the eigenvalue mismatch as the fitted exponent
    _, tau = power_fit(correspondence_points(pair, range(8, 19)))
    assert tau == pytest.approx(math.log(0.5) / math.log(0.3), rel=1e-9)
    assert not intersection_check(pair, 10)


def test_order_probe_reference(ref):
    probe = order_probe(ref)
    assert probe.slope == pytest.approx(3.0, abs=0.02)
    assert probe.band_factor <= 1.03
    assert probe.band_factor >= 1.0
    assert probe.stable
    # the integer window quantizes the ratio within one mu step
    assert probe.band_hi / probe.band_lo <= 1.02 * (1.0 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=8, max_value=18))
def test_record_consistency(n):
    sys = tl.reference_system()
    rec = return_record(sys, n)
    # s_n solves mu^{-s_n} = pr_x(r_n); c_n folds the remaining constants
    assert rec.r_n[0] * 1.02**rec.s_n == pytest.approx(1.0, rel=1e-9)
    assert rec.c_n == pytest.approx(0.5 * 0.3**n * 1.02**rec.s_n, rel=1e-9)
    assert rec.m_n <= rec.s_n <= rec.m_n + 1


def test_tips_and_records_are_kept_per_system(ref):
    # systems compare by value, so an equal system gets the stored objects
    for n in (8, 13):
        assert pick_rn(ref, n) is pick_rn(tl.make_system(), n)
        assert return_record(ref, n) is return_record(tl.make_system(), n)
        assert return_record(ref, n).r_n is pick_rn(ref, n)


@pytest.mark.parametrize("sys, n", [(tl.make_system(), 0), (tl.make_system(), 200), (tl.make_system(b=1.0), 10)])
def test_failed_tips_raise_on_every_call(sys, n):
    # out of the workable range, or a sign case without the construction:
    # nothing is stored, so each call raises again
    for fn in (pick_rn, return_record, pick_rn, return_record):
        with pytest.raises(tl.DomainError):
            fn(sys, n)
    assert (sys, n) not in moduli._RN_CACHE and (sys, n) not in moduli._RECORD_CACHE


def test_failed_record_raises_on_every_call():
    # a < 0 with mu < 0 puts the tip left of W^s(p): the tip is kept, the
    # record fails on its return exponent and is not stored
    sys = tl.make_system(a=-1.0, mu=-1.02)
    for _ in range(2):
        assert pick_rn(sys, 10)[0] < 0.0
        with pytest.raises(tl.WrongQuadrantError):
            return_record(sys, 10)
    assert (sys, 10) in moduli._RN_CACHE and (sys, 10) not in moduli._RECORD_CACHE
